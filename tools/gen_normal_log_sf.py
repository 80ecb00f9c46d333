"""Rebuild the coefficient table of the Normal's array log sf.

``arrays._normal_log_sf_array`` writes log Q(x), x > 0, as

    log Q = P(t) - log(1 + z/2) - x^2/2,   P(t) = log(erfcx(z) / (2 t)),

with z = x/sqrt 2 and t = 2/(2 + z) in (0, 1].  P is smooth on [0, 1], the
z -> inf end included, where it tends to -log(4 sqrt pi).  On each of
INTERVALS equal pieces [k, k + 1]/INTERVALS of t it is a polynomial of
degree DEGREE in u = INTERVALS t - k in [0, 1): the interpolant at the
Chebyshev points of the piece, solved at 50 digits and rounded to doubles.
A last row holds t = 1 (x = 0) alone, P(1) = -log 2.

Run with

    python tools/gen_normal_log_sf.py

to print the table as the literal ``_NORMAL_LOG_SF_TABLE`` in
``src/weibtail/arrays.py``; ``tests/test_catalog.py`` checks that the two
agree bit for bit.
"""

from __future__ import annotations

import mpmath as mp

INTERVALS = 32
DEGREE = 7
DIGITS = 50


def _p(t):
    z = 2 / t - 2
    return mp.log(mp.erfc(z) * mp.exp(z * z) / (2 * t))


def coefficient_table():
    """Rows (c_0, ..., c_DEGREE) of P(t) = sum c_j u^j, one per piece, then t = 1."""
    with mp.workdps(DIGITS):
        nodes = [(1 + mp.cos(mp.pi * (2 * j + 1) / (2 * (DEGREE + 1)))) / 2
                 for j in range(DEGREE + 1)]
        vandermonde = mp.matrix([[u**i for i in range(DEGREE + 1)] for u in nodes])
        rows = []
        for k in range(INTERVALS):
            values = mp.matrix([_p((k + u) / INTERVALS) for u in nodes])
            coeffs = mp.lu_solve(vandermonde, values)
            rows.append(tuple(float(c) for c in coeffs))
        rows.append((float(-mp.log(2)),) + (0.0,) * DEGREE)
    return tuple(rows)


def render(table) -> str:
    """The table as the Python literal in arrays.py, four numbers a line."""
    lines = ["_NORMAL_LOG_SF_TABLE = ("]
    for row in table:
        chunks = [", ".join(map(repr, row[i:i + 4])) for i in range(0, len(row), 4)]
        lines.append("    (" + ",\n     ".join(chunks) + "),")
    lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(coefficient_table()))
