"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed and imports nothing from
weibtail, so the inputs cannot depend on the code under test.

Each workload is a *deck*: a fixed-length list of operations that the
closed loop cycles through.  The deck's shape (which model and quantity
sits in which slot, which stratum of log n and grid size a slot draws
from) is the same for every seed; the seed only jitters values inside
their strata and draws the model parameters.  That keeps the cost of a
deck, and of any prefix of it, nearly seed-independent, so run-to-run
spread comes from the machine rather than from the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

MODELS = (
    "pure-weibull",
    "extended-weibull",
    "normal",
    "exponential",
    "logistic",
    "gamma",
    "gumbel-fixture",
)
THETA_NOT_ONE = ("pure-weibull", "extended-weibull", "normal")

LOG_N_FLOOR = 1.0
LOG_N_MAX = 700.0
# At the seed commit gamma's b_n solve is refused with tail_underflow from
# log n ~ 491 (shape 5) to ~ 516 (shape 0.5) upwards (ROADMAP item 2).  The
# timed decks stop below that, so no op of a timed workload fails and every
# run times the same mix; the traced run's gamma reach probe covers
# (GAMMA_LOG_N_MAX, LOG_N_MAX] and reports the refused share.
GAMMA_LOG_N_MAX = 480.0
GAMMA_REACH_OPS = 16

# entries per model and per deck pass
BLOCK_ENTRIES = 48
ERROR_ENTRIES = 16
GRID_MIN, GRID_MAX = 1000, 10000
GRID_WINDOW = (-3.0, 6.0)
CLI_COMMANDS = ("norming", "penultimate", "vonmises", "errors", "report")
# ROADMAP's dense-grid case (`errors --grid -3:6:100000` at the CLI's
# default log n list), run first in every pass
DENSE_GRID = (-3.0, 6.0, 100000)
CLI_DEFAULT_LOG_N = (10.0, 20.0, 40.0)


@dataclass(frozen=True)
class ModelSpec:
    """A catalog name plus the keyword parameters build_model takes."""

    name: str
    params: Tuple[Tuple[str, float], ...] = ()

    def kwargs(self) -> Dict[str, float]:
        return dict(self.params)

    def cli_flags(self) -> List[str]:
        out: List[str] = []
        for key, value in self.params:
            out += [f"--{key}", repr(value)]
        return out


@dataclass(frozen=True)
class Op:
    """One quantity call (warm workloads) or one CLI invocation (cli-cold).

    ``fn`` is the library function for warm ops and the CLI command for
    CLI ops; ``entry`` names the model instance the op runs on.
    """

    fn: str
    entry: int
    log_n: Optional[float] = None
    grid: Optional[Tuple[float, float, int]] = None
    gamma_mode: str = "exact"
    t_grid: Optional[Tuple[float, ...]] = None
    log_n_list: Tuple[float, ...] = ()
    fmt: str = "csv"


@dataclass
class Deck:
    workload: str
    seed: int
    models: List[ModelSpec] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    sample: List[int] = field(default_factory=list)  # op indices the oracle checks


def _bitrev_order(count: int) -> List[int]:
    """Strata 0..count-1 in van der Corput order: every prefix is spread out."""
    bits = max(1, (count - 1).bit_length())
    return sorted(range(count), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def _log_uniform(lo: float, hi: float, stratum: int, count: int, rng: random.Random) -> float:
    u = (stratum + rng.random()) / count
    return lo * (hi / lo) ** u


def _draw_params(name: str, rng: random.Random, stratum: int = 0, count: int = 1) -> ModelSpec:
    """Parameters from the ranges below, stratified like log n."""
    u = (stratum + rng.random()) / count
    if name == "pure-weibull":
        return ModelSpec(name, (("theta", 0.25 * 16.0**u),))  # log-uniform on [0.25, 4]
    if name == "extended-weibull":
        return ModelSpec(name, (("beta", 0.5 + 3.5 * u),))
    if name == "gamma":
        return ModelSpec(name, (("shape", 0.5 + 4.5 * u),))
    return ModelSpec(name)


def _param_order(count: int) -> List[int]:
    """A second fixed stratum order, unrelated to the log n order."""
    step = next(k for k in (7, 5, 3, 1) if math.gcd(k, count) == 1)
    return [(i * step + count // 3) % count for i in range(count)]


def log_n_floor(spec: ModelSpec) -> float:
    """Smallest log n drawn for a model: LOG_N_FLOOR, or H(support_lower).

    Only extended-weibull has an attainable range starting above the floor.
    Its support starts at x = e (delta = 1, beta >= 0.5), where
    H = e^beta; T(e) < H(e), and norming needs both b_exact (T(b) = log n)
    and b_asymptotic (H(b) = log n), so log n below H(e) is correctly
    refused with ``below_range``.  That refusal is kept out of the traffic.
    """
    if spec.name == "extended-weibull":
        return max(LOG_N_FLOOR, math.exp(spec.kwargs()["beta"]) * 1.001)
    return LOG_N_FLOOR


def log_n_ceiling(spec: ModelSpec) -> float:
    """Largest log n drawn for a model in the timed decks (see GAMMA_LOG_N_MAX)."""
    return GAMMA_LOG_N_MAX if spec.name == "gamma" else LOG_N_MAX


def _t_grid(rng: random.Random) -> Tuple[float, ...]:
    """Five points two decades apart from t in [10, 100]: above every catalog support."""
    start = 10.0 ** rng.uniform(1.0, 2.0)
    return tuple(start * 100.0**j for j in range(5))


def block_sweep(seed: int, entries: int = BLOCK_ENTRIES) -> Deck:
    """norming + penultimate_index per (model, log n); one condition_sweep per model."""
    rng = random.Random(f"block-sweep:{seed}")
    deck = Deck("block-sweep", seed)
    order = _bitrev_order(entries)
    param_order = _param_order(entries)
    slots: Dict[str, List[int]] = {}
    for name in MODELS:
        slots[name] = []
        for i in range(entries):
            spec = _draw_params(name, rng, param_order[i], entries)
            deck.models.append(spec)
            slots[name].append(len(deck.models) - 1)
    sweep_models = {}
    for name in MODELS:
        spec = _draw_params(name, rng)
        deck.models.append(spec)
        sweep_models[name] = (len(deck.models) - 1, _t_grid(rng))
    for i in range(entries):
        for name in MODELS:
            idx = slots[name][i]
            spec = deck.models[idx]
            ln = _log_uniform(log_n_floor(spec), log_n_ceiling(spec), order[i], entries, rng)
            deck.ops.append(Op("norming", idx, log_n=ln))
            deck.ops.append(Op("penultimate_index", idx, log_n=ln))
        if i == entries // 2:
            for name in MODELS:
                idx, grid = sweep_models[name]
                deck.ops.append(Op("condition_sweep", idx, t_grid=grid))
    deck.sample = _oracle_sample(deck, rng, per_model=4)
    return deck


def error_curves(seed: int, entries: int = ERROR_ENTRIES) -> Deck:
    """error_comparison per (model, log n, grid size), both gamma modes where theta != 1."""
    rng = random.Random(f"error-curves:{seed}")
    deck = Deck("error-curves", seed)
    ln_order = _bitrev_order(entries)
    param_order = _param_order(entries)
    # Grid sizes are fixed, log-spaced over [GRID_MIN, GRID_MAX], and meet the
    # log n strata in a fixed pairing: the largest grids, which set
    # op_tail_ms, then cost the same on every seed.
    sizes = [round(GRID_MIN * (GRID_MAX / GRID_MIN) ** ((s + 0.5) / entries))
             for s in range(entries)]
    grid_order = [entries - 1 - s for s in _bitrev_order(entries)]
    for i in range(entries):
        for name in MODELS:
            spec = _draw_params(name, rng, param_order[i], entries)
            deck.models.append(spec)
            idx = len(deck.models) - 1
            lo, hi = log_n_floor(spec), log_n_ceiling(spec)
            ln = _log_uniform(lo, hi, ln_order[i], entries, rng)
            grid = (GRID_WINDOW[0], GRID_WINDOW[1], sizes[grid_order[i]])
            deck.ops.append(Op("error_comparison", idx, log_n=ln, grid=grid, gamma_mode="exact"))
            if name in THETA_NOT_ONE:
                deck.ops.append(
                    Op("error_comparison", idx, log_n=ln, grid=grid, gamma_mode="asymptotic")
                )
    deck.sample = _oracle_sample(deck, rng, per_model=3)
    return deck


def cli_cold(seed: int) -> Deck:
    """One pass: the dense-grid case, `models`, then every (model, command) pair.

    The pairs come in rounds of one invocation per model, command
    (round + model index) mod 5, so any prefix of the pass holds every
    model and a near-even share of commands; a 20 s run at the seed
    commit covers the first two rounds.  The seed draws each invocation's
    parameters, log n list, format and gamma mode.
    """
    rng = random.Random(f"cli-cold:{seed}")
    deck = Deck("cli-cold", seed)
    deck.models.append(_draw_params("pure-weibull", rng))
    deck.ops.append(Op("errors", 0, grid=DENSE_GRID, log_n_list=CLI_DEFAULT_LOG_N, fmt="csv"))
    deck.ops.append(Op("models", -1, fmt=rng.choice(("csv", "json"))))
    rounds = len(CLI_COMMANDS)
    for k in range(rounds):
        for m, name in enumerate(MODELS):
            command = CLI_COMMANDS[(k + m) % rounds]
            spec = _draw_params(name, rng, k, rounds)
            deck.models.append(spec)
            count = rng.randint(1, 3)
            lo = log_n_floor(spec)
            hi = log_n_ceiling(spec)
            lns = tuple(_log_uniform(lo, hi, j, count, rng) for j in range(count))
            fmt = "json" if command == "report" else rng.choice(("csv", "json"))
            mode = "asymptotic" if (name in THETA_NOT_ONE and rng.random() < 0.5) else "exact"
            deck.ops.append(Op(
                command, len(deck.models) - 1, log_n_list=lns, fmt=fmt, gamma_mode=mode,
                t_grid=_t_grid(rng) if command in ("vonmises", "report") else None,
            ))
    deck.sample = list(range(len(deck.ops)))
    return deck


def gamma_reach(seed: int, count: int = GAMMA_REACH_OPS) -> Deck:
    """norming on gamma above the timed decks' ceiling, up to log n = 700.

    Not a workload: the traced run calls each op once and reports the share
    the library refuses; the oracle checks the ones it answers.  Shape and
    log n are stratified like the decks' draws.
    """
    rng = random.Random(f"gamma-reach:{seed}")
    deck = Deck("gamma-reach", seed)
    order = _bitrev_order(count)
    param_order = _param_order(count)
    for i in range(count):
        deck.models.append(_draw_params("gamma", rng, param_order[i], count))
        ln = _log_uniform(GAMMA_LOG_N_MAX, LOG_N_MAX, order[i], count, rng)
        deck.ops.append(Op("norming", i, log_n=ln))
    deck.sample = list(range(count))
    return deck


def _oracle_sample(deck: Deck, rng: random.Random, per_model: int) -> List[int]:
    """Op indices for the oracle: per model a few random ops plus its largest log n."""
    by_model: Dict[str, List[int]] = {}
    for i, op in enumerate(deck.ops):
        if op.log_n is None and op.t_grid is None:
            continue
        by_model.setdefault(deck.models[op.entry].name, []).append(i)
    chosen = set()
    for name, idxs in by_model.items():
        chosen.update(rng.sample(idxs, min(per_model, len(idxs))))
        with_ln = [i for i in idxs if deck.ops[i].log_n is not None]
        if with_ln:
            chosen.add(max(with_ln, key=lambda i: deck.ops[i].log_n))
    return sorted(chosen)


WORKLOADS = {
    "cli-cold": cli_cold,
    "block-sweep": block_sweep,
    "error-curves": error_curves,
}


def make_deck(workload: str, seed: int) -> Deck:
    return WORKLOADS[workload](seed)


def cli_argv(deck: Deck, op: Op) -> List[str]:
    """The weibtail command line for one cli-cold op."""
    if op.fn == "models":
        return ["models", "--format", op.fmt]
    spec = deck.models[op.entry]
    argv = [op.fn, "--model", spec.name] + spec.cli_flags()
    if op.fn != "vonmises":
        argv += ["--log-n", ",".join(repr(v) for v in op.log_n_list)]
    if op.grid is not None:
        argv += ["--grid", "{!r}:{!r}:{}".format(*op.grid)]
    if op.t_grid is not None:
        argv += ["--t-grid", ",".join(repr(v) for v in op.t_grid)]
    if op.gamma_mode != "exact":
        argv += ["--gamma-mode", op.gamma_mode]
    argv += ["--format", op.fmt]
    return argv
