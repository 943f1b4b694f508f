"""Monte Carlo study of the dispersion test: empirical size and power.

The data-generating process is an INAR(1) whose counting sequence is
BerG(pi, xi) (plain Bernoulli(pi) when xi = 0, the boundary case where the
two families coincide in law) with Poisson(1) innovations, tested against
the Bernoulli + Poisson null. Size cells set xi = 0; power cells take
xi > 0.

Each cell builds its model and null once and cuts its replications into
blocks of at most ``BLOCK``, each simulated path by path and tested by one
``run_test`` call on the stacked paths. The blocks of every cell of a grid
run through one ``map``: in this process for a single job, else on one
process pool for the whole grid. Reproducibility: every cell gets a seed
derived from the master seed and its position in the grid, and replication
k of a cell draws from the substream ``SeedSequence(cell_seed,
spawn_key=(k,))``. A block row has the bits of its series tested alone
(``replicate_once``), so results are identical across runs, block sizes
and worker counts.

Replications that die in estimation (singular matrices, possible only at
tiny sample sizes) count as failures and are excluded from the rejection
denominator, never silently dropped.
"""

import csv
import functools
import io
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import BerG, Bernoulli, BernoulliKappa, Poisson, PoissonKappa
from .dispersion_test import REJECT, SINGULAR_GRAM, NullSpec, run_test
from .errors import InputError, NumericalError, require_int, require_level
from .simulate import GinarModel, sample_path

__all__ = [
    "ExperimentGrid",
    "CellResult",
    "RejectionTable",
    "run_cell",
    "run_size_experiment",
    "run_power_experiment",
    "parse_grid_config",
    "read_grid_config",
    "format_size_table",
    "format_power_table",
]

INNOVATION_RATE = 1.0
# The INAR(1) fit needs n - 1 >= 3 regression rows.
_MIN_LENGTH = 4
# Replications per run_test call. Blocks of 8 keep most of the batching
# gain; with the contiguous test kernel, 16 and 32 ran within 5% of 8 per
# replication at n 500 and 2000 (2-vCPU Xeon), inside the run-to-run spread.
BLOCK = 8


@dataclass(frozen=True)
class ExperimentGrid:
    """Parameter grid plus replication settings for a size or power study."""

    pi_values: tuple
    xi_values: tuple
    n_values: tuple
    replications: int = 1000
    burn_in: int = 1000
    level: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        for name in ("pi_values", "xi_values"):
            values = getattr(self, name)
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
                raise InputError(f"{name!r} needs real numbers, got {values}")
            object.__setattr__(self, name, tuple(float(v) for v in values))
        if not all(isinstance(n, numbers.Integral) or isinstance(n, numbers.Real) and float(n).is_integer()
                   for n in self.n_values):
            raise InputError(f"'n_values' needs finite whole numbers, got {self.n_values}")
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        if not self.pi_values or not self.n_values:
            raise InputError("grid needs at least one pi value and one n value")
        for name in ("pi_values", "xi_values", "n_values"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise InputError(f"{name!r} repeats a value, got {values}")
        for pi in self.pi_values:
            if not 0.0 < pi < 1.0:
                raise InputError(f"'pi_values' must lie in (0,1), got {pi}")
        for xi in self.xi_values:
            if not xi >= 0.0:
                raise InputError(f"'xi_values' must be nonnegative, got {xi}")
        for pi in self.pi_values:
            for xi in self.xi_values:
                if pi + xi >= 1.0:
                    raise InputError(f"stationarity needs pi + xi < 1, got pi={pi}, xi={xi}")
        for n in self.n_values:
            require_int("series length", n, _MIN_LENGTH)
        require_int("replications", self.replications, 1)
        require_int("burn-in", self.burn_in, 0)
        require_level(self.level)
        require_int("master seed", self.master_seed, 0, 2**64)


@dataclass(frozen=True)
class CellResult:
    pi: float
    xi: float
    n: int
    rejections: int
    failures: int
    rate: float


@dataclass(frozen=True)
class RejectionTable:
    """Per-cell rejection counts; rate = rejections / (replications - failures)."""

    replications: int
    level: float
    rows: tuple

    def csv_text(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["pi", "xi", "n", "rejections", "failures", "rate"])
        for row in self.rows:
            writer.writerow(
                [f"{row.pi:g}", f"{row.xi:g}", row.n, row.rejections, row.failures, f"{row.rate:.6g}"]
            )
        return buf.getvalue()

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())


def _cell_model_and_null(pi, xi):
    # xi = 0 means a plain Bernoulli counting sequence (BerG requires xi > 0;
    # the laws coincide at the boundary).
    counting = Bernoulli(pi) if xi == 0.0 else BerG(pi, xi)
    model = GinarModel(counting=(counting,), innovation=Poisson(INNOVATION_RATE))
    null = NullSpec((BernoulliKappa(), PoissonKappa()))
    return model, null


def _substream(cell_seed, k):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(cell_seed, spawn_key=(k,))))


def replicate_once(model, null, n, burn_in, level, cell_seed, k):
    """Replication k of a cell: simulate ``model`` from the substream
    (cell_seed, k), test against ``null``; True/False/None (reject/keep/failed)."""
    series = sample_path(model, n, burn_in, _substream(cell_seed, k))
    try:
        return run_test(series, 1, null, level).reject
    except NumericalError:
        return None


def _replicate_block(model, null, n, burn_in, level, cell_seed, ks):
    """Replications ``ks`` of a cell, tested as one block; their outcome codes."""
    paths = np.stack([sample_path(model, n, burn_in, _substream(cell_seed, k)) for k in ks])
    return run_test(paths, 1, null, level).outcomes


def run_cell(pi, xi, n, replications, burn_in, level, cell_seed, jobs=None):
    """Run one grid cell; returns (rejections, failures).

    The one-cell case of a grid run: the cell's model and null are built
    once, and its blocks run through the built-in ``map`` for a single job,
    else a process pool's. Replication k uses the substream (cell_seed, k),
    so the result depends neither on ``jobs`` nor on the blocks, and
    ``jobs`` defaults to the CPUs this process may run on.
    """
    return _run_cells([(pi, xi, n, cell_seed)], replications, burn_in, level, jobs)[0]


def _run_cells(cells, replications, burn_in, level, jobs):
    """Run cells ``(pi, xi, n, cell_seed)`` through one ``map``; returns
    (rejections, failures) per cell, in order.

    Every cell's inputs are checked and its blocks built before the map
    starts. With more than one job, all blocks of all cells share one
    process pool, so no cell waits for the slowest block of the one before.
    """
    require_int("replications", replications, 1)
    require_int("burn-in", burn_in, 0)
    require_level(level)
    if jobs is None:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    else:
        require_int("jobs", jobs, 1)
    jobs = min(jobs, replications)
    # blocks of equal size, at most BLOCK, and as many for every worker
    count = min(replications, jobs * math.ceil(replications / (BLOCK * jobs)))
    blocks = [range(replications * i // count, replications * (i + 1) // count) for i in range(count)]
    replicates = []
    for pi, xi, n, cell_seed in cells:
        model, null = _cell_model_and_null(pi, xi)
        require_int("series length", n, _MIN_LENGTH)
        require_int("cell seed", cell_seed, 0)
        replicate = functools.partial(_replicate_block, model, null, n, burn_in, level, cell_seed)
        replicates += [replicate] * count
    tasks = blocks * len(cells)
    if jobs == 1:
        outcomes = list(map(_apply, replicates, tasks))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_apply, replicates, tasks, chunksize=math.ceil(count / jobs)))
    outcomes = np.concatenate(outcomes).reshape(len(cells), replications)
    rejections = np.count_nonzero(outcomes == REJECT, axis=1).tolist()
    failures = np.count_nonzero(outcomes >= SINGULAR_GRAM, axis=1).tolist()
    return list(zip(rejections, failures))


def _apply(replicate, block):
    return replicate(block)


def _derive_cell_seed(master_seed, cell_index):
    seq = np.random.SeedSequence(master_seed, spawn_key=(cell_index,))
    return int(seq.generate_state(1, np.uint64)[0])


def _run_grid(grid, cells, jobs):
    seeded = [(pi, xi, n, _derive_cell_seed(grid.master_seed, index)) for index, (pi, xi, n) in enumerate(cells)]
    counts = _run_cells(seeded, grid.replications, grid.burn_in, grid.level, jobs)
    rows = []
    for (pi, xi, n), (rejections, failures) in zip(cells, counts):
        kept = grid.replications - failures
        rate = rejections / kept if kept > 0 else float("nan")
        rows.append(CellResult(pi, xi, n, rejections, failures, rate))
    return RejectionTable(replications=grid.replications, level=grid.level, rows=tuple(rows))


def run_size_experiment(grid, jobs=None):
    """Rejection rates under the null: the pi grid with xi forced to 0."""
    cells = [(pi, 0.0, n) for pi in grid.pi_values for n in grid.n_values]
    return _run_grid(grid, cells, jobs)


def run_power_experiment(grid, jobs=None):
    """Rejection rates under BerG alternatives: the pi x (xi > 0) grid."""
    xi_values = [xi for xi in grid.xi_values if xi > 0.0]
    if not xi_values:
        raise InputError("power experiment needs at least one xi > 0 in the grid")
    cells = [(pi, xi, n) for pi in grid.pi_values for n in grid.n_values for xi in xi_values]
    return _run_grid(grid, cells, jobs)


_GRID_KEYS = {
    "pi_values",
    "xi_values",
    "n_values",
    "replications",
    "burn_in",
    "level",
    "seed",
}


def parse_grid_config(text):
    """Parse a plain-text grid config of ``key = value`` lines.

    List-valued keys take comma-separated numbers; ``#`` starts a comment.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, rhs = line.partition("=")
        key = key.strip().lower()
        if key not in _GRID_KEYS:
            raise InputError(f"line {lineno}: unknown key {key!r} (known: {sorted(_GRID_KEYS)})")
        if key in values:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        values[key] = (lineno, rhs.strip())

    def floats(key, default=None):
        if key not in values:
            if default is None:
                raise InputError(f"missing required key {key!r}")
            return default
        lineno, rhs = values[key]
        try:
            return tuple(float(tok) for tok in rhs.split(","))
        except ValueError:
            raise InputError(f"line {lineno}: bad number list for {key!r}: {rhs!r}") from None

    def scalar(key, conv, default):
        if key not in values:
            return default
        lineno, rhs = values[key]
        try:
            return conv(rhs)
        except ValueError:
            raise InputError(f"line {lineno}: bad value for {key!r}: {rhs!r}") from None

    return ExperimentGrid(
        pi_values=floats("pi_values"),
        xi_values=floats("xi_values", default=(0.0,)),
        n_values=floats("n_values"),
        replications=scalar("replications", int, 1000),
        burn_in=scalar("burn_in", int, 1000),
        level=scalar("level", float, 0.05),
        master_seed=scalar("seed", int, 0),
    )


def read_grid_config(path):
    with open(path) as fh:
        return parse_grid_config(fh.read())


# Format of each row field in the pretty tables.
_FIELD_FORMATS = {"pi": "g", "xi": "g", "n": ""}


def _format_rates(table, what, row_fields, column):
    """Rates of ``table`` as text: a line per value of ``row_fields``, a column per value of ``column``."""
    rates = {(tuple(getattr(row, f) for f in row_fields), getattr(row, column)): row.rate for row in table.rows}
    keys = sorted({key for key, _ in rates})
    values = sorted({value for _, value in rates})
    width = len(column) + 9  # that of a column label whose value takes up to 8 characters
    lines = [
        f"empirical {what} at nominal level {table.level:g} (R={table.replications})",
        "".join(f"{f:<8}" for f in row_fields) + "".join(f"{column}={v:<8{_FIELD_FORMATS[column]}}" for v in values),
    ]
    for key in keys:
        label = "".join(f"{v:<8{_FIELD_FORMATS[f]}}" for f, v in zip(row_fields, key))
        entries = (f"{rates[key, v]:<{width}.3f}" if (key, v) in rates else " " * width for v in values)
        lines.append(label + "".join(entries))
    return "\n".join(lines)


def format_size_table(table):
    """Pretty size table: pi rows against series-length columns."""
    return _format_rates(table, "size", ("pi",), "n")


def format_power_table(table):
    """Pretty power table: (pi, n) rows against xi columns."""
    return _format_rates(table, "power", ("pi", "n"), "xi")
