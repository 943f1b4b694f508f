"""Monte Carlo study of the dispersion test: empirical size and power.

The data-generating process is an INAR(1) whose counting sequence is
BerG(pi, xi) (plain Bernoulli(pi) when xi = 0, the boundary case where the
two families coincide in law) with Poisson(1) innovations, tested against
the Bernoulli + Poisson null. Size cells set xi = 0; power cells take
xi > 0.

Reproducibility: every cell gets a seed derived from the master seed and
its position in the grid, and replication k of a cell draws from the
substream ``SeedSequence(cell_seed, spawn_key=(k,))``. Results are
therefore identical across runs and across worker counts; replications can
be farmed out to processes in any order.

Replications that die in estimation (singular matrices, possible only at
tiny sample sizes) count as failures and are excluded from the rejection
denominator, never silently dropped.
"""

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import BerG, Bernoulli, BernoulliKappa, Poisson, PoissonKappa
from .dispersion_test import NullSpec, run_test
from .errors import InputError, NumericalError
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
        object.__setattr__(self, "pi_values", tuple(float(v) for v in self.pi_values))
        object.__setattr__(self, "xi_values", tuple(float(v) for v in self.xi_values))
        if any(isinstance(n, float) and not n.is_integer() for n in self.n_values):
            raise InputError(f"'n_values' needs finite whole numbers, got {self.n_values}")
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        if not self.pi_values or not self.n_values:
            raise InputError("grid needs at least one pi value and one n value")
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
            if n < 3:
                raise InputError(f"series length must be at least 3, got {n}")
        if self.replications < 1:
            raise InputError(f"replications must be positive, got {self.replications}")
        if self.burn_in < 0:
            raise InputError(f"burn-in must be nonnegative, got {self.burn_in}")
        if not 0.0 < self.level < 1.0:
            raise InputError(f"level must lie in (0,1), got {self.level}")
        if not 0 <= self.master_seed < 2**64:
            raise InputError(f"master seed must be a 64-bit unsigned integer, got {self.master_seed}")


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


def replicate_once(pi, xi, n, burn_in, level, cell_seed, k):
    """One replication: simulate, test, return True/False/None (reject/keep/failed)."""
    model, null = _cell_model_and_null(pi, xi)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cell_seed, spawn_key=(k,))))
    series = sample_path(model, n, burn_in, rng)
    try:
        result = run_test(series, 1, null, level)
    except NumericalError:
        return None
    return result.reject


def _run_chunk(args):
    pi, xi, n, burn_in, level, cell_seed, k_start, k_end = args
    rejections = failures = 0
    for k in range(k_start, k_end):
        outcome = replicate_once(pi, xi, n, burn_in, level, cell_seed, k)
        if outcome is None:
            failures += 1
        elif outcome:
            rejections += 1
    return rejections, failures


def run_cell(pi, xi, n, replications, burn_in, level, cell_seed, jobs=None):
    """Run one grid cell; returns (rejections, failures).

    Replication k uses the substream derived from (cell_seed, k), so the
    result does not depend on ``jobs`` or on execution order.
    """
    if pi + xi >= 1.0:
        raise InputError(f"stationarity needs pi + xi < 1, got pi={pi}, xi={xi}")
    jobs = jobs or os.cpu_count() or 1
    jobs = max(1, min(jobs, replications))
    if jobs == 1:
        return _run_chunk((pi, xi, n, burn_in, level, cell_seed, 0, replications))
    bounds = np.linspace(0, replications, jobs + 1).astype(int)
    chunks = [
        (pi, xi, n, burn_in, level, cell_seed, int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    rejections = failures = 0
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for rej, fail in pool.map(_run_chunk, chunks):
            rejections += rej
            failures += fail
    return rejections, failures


def _derive_cell_seed(master_seed, cell_index):
    seq = np.random.SeedSequence(master_seed, spawn_key=(cell_index,))
    return int(seq.generate_state(1, np.uint64)[0])


def _run_cells(grid, cells, jobs):
    rows = []
    for index, (pi, xi, n) in enumerate(cells):
        cell_seed = _derive_cell_seed(grid.master_seed, index)
        rejections, failures = run_cell(
            pi, xi, n, grid.replications, grid.burn_in, grid.level, cell_seed, jobs=jobs
        )
        kept = grid.replications - failures
        rate = rejections / kept if kept > 0 else float("nan")
        rows.append(CellResult(pi, xi, n, rejections, failures, rate))
    return RejectionTable(replications=grid.replications, level=grid.level, rows=tuple(rows))


def run_size_experiment(grid, jobs=None):
    """Rejection rates under the null: the pi grid with xi forced to 0."""
    cells = [(pi, 0.0, n) for pi in grid.pi_values for n in grid.n_values]
    return _run_cells(grid, cells, jobs)


def run_power_experiment(grid, jobs=None):
    """Rejection rates under BerG alternatives: the pi x (xi > 0) grid."""
    xi_values = [xi for xi in grid.xi_values if xi > 0.0]
    if not xi_values:
        raise InputError("power experiment needs at least one xi > 0 in the grid")
    cells = [(pi, xi, n) for pi in grid.pi_values for n in grid.n_values for xi in xi_values]
    return _run_cells(grid, cells, jobs)


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


def format_size_table(table):
    """Pretty size table: pi rows against series-length columns."""
    ns = sorted({row.n for row in table.rows})
    pis = sorted({row.pi for row in table.rows})
    cell = {(row.pi, row.n): row for row in table.rows}
    lines = [f"empirical size at nominal level {table.level:g} (R={table.replications})"]
    lines.append("pi      " + "".join(f"n={n:<8}" for n in ns))
    for pi in pis:
        entries = []
        for n in ns:
            row = cell.get((pi, n))
            entries.append(f"{row.rate:<10.3f}" if row else " " * 10)
        lines.append(f"{pi:<8g}" + "".join(entries))
    return "\n".join(lines)


def format_power_table(table):
    """Pretty power table: (pi, n) rows against xi columns."""
    xis = sorted({row.xi for row in table.rows})
    keys = sorted({(row.pi, row.n) for row in table.rows})
    cell = {(row.pi, row.xi, row.n): row for row in table.rows}
    lines = [f"empirical power at nominal level {table.level:g} (R={table.replications})"]
    lines.append("pi      n       " + "".join(f"xi={xi:<8g}" for xi in xis))
    for pi, n in keys:
        entries = []
        for xi in xis:
            row = cell.get((pi, xi, n))
            entries.append(f"{row.rate:<11.3f}" if row else " " * 11)
        lines.append(f"{pi:<8g}{n:<8}" + "".join(entries))
    return "\n".join(lines)
