"""The three benchmark workloads and their correctness checks.

Every workload calls the package through module attributes
(``montecarlo.run_cell``, ``cli.main``) so that the traced run sees the
wrapped functions. Inputs derive from the workload seed and the pass
index only; how many passes fit in a run does not change any pass.

- ``size_grid``: the paper's 21-cell INAR(1) size design through
  ``run_size_experiment`` at jobs = nproc (mc-size). Dominated by
  simulation, and pays one pool start per cell.
- ``power_cell``: one BerG alternative cell through ``run_cell`` at
  jobs=1 (mc-power's unit of work): the single-threaded baseline with no
  pool, so pool changes should not move it while sampler changes should.
- ``cli_session``: one caller running ``ginar.cli.main`` in-process in a
  closed loop: simulate to CSV, fit, test and test --subset over a bank of
  p=1 and p=2 series. The single-series path, with CSV I/O.
"""

import contextlib
import importlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ginar import cli, dispersion_test, montecarlo
from ginar.cls import fit_cls
from ginar.dispersion_test import parse_null, run_subvector_test, run_test
from ginar.distributions import BerG, Bernoulli, BernoulliKappa, Poisson, PoissonKappa, parse_distribution
from ginar.errors import GinarError

# The package exports a function named simulate, which hides the module.
sim = importlib.import_module("ginar.simulate")

BURN_IN = 1000
LEVEL = 0.05
JOBS = len(os.sched_getaffinity(0))  # nproc

SIZE_PI = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
SIZE_N = (500, 1000, 2000)
# Reference size table of acceptance criterion 1 (R=1000 per cell). The
# check pools it, so its own standard error is that of 21 000 draws.
SIZE_REFERENCE_TABLE = {
    (0.2, 500): 0.066, (0.2, 1000): 0.070, (0.2, 2000): 0.059,
    (0.3, 500): 0.070, (0.3, 1000): 0.062, (0.3, 2000): 0.050,
    (0.4, 500): 0.093, (0.4, 1000): 0.063, (0.4, 2000): 0.057,
    (0.5, 500): 0.087, (0.5, 1000): 0.065, (0.5, 2000): 0.056,
    (0.6, 500): 0.086, (0.6, 1000): 0.054, (0.6, 2000): 0.059,
    (0.7, 500): 0.076, (0.7, 1000): 0.070, (0.7, 2000): 0.070,
    (0.8, 500): 0.090, (0.8, 1000): 0.075, (0.8, 2000): 0.075,
}  # fmt: skip
SIZE_REFERENCE = statistics.fmean(SIZE_REFERENCE_TABLE.values())
SIZE_REFERENCE_DRAWS = 1000 * len(SIZE_REFERENCE_TABLE)

POWER_CELL = (0.2, 0.3, 500)  # (pi, xi, n)
# Acceptance criterion 2's reference rate for this cell (R=1000).
POWER_REFERENCE = 0.903
POWER_REFERENCE_DRAWS = 1000

# Width of the correctness bands in standard errors: a correct program fails
# a run with probability below 1e-4.
BAND_SE = 4.0

# (order, simulate specs, null, subset, n)
_P1 = (1, ("bernoulli(p=0.4)", "poisson(rate=1)"), "bernoulli,poisson", "1")
_P2 = (
    2,
    ("negbinomial(r=2,p=0.9)", "geometric(p=0.8)", "poisson(rate=1)"),
    "negbinomial(r=2),negbinomial(r=1),poisson",
    "1,2",
)
BANK = tuple(spec + (n,) for spec in (_P1, _P2) for n in (500, 2000))

# Tolerance of the CLI-versus-direct-call comparison.
MATCH_TOL = 1e-12


@dataclass(frozen=True)
class Scale:
    size_replications: int  # per cell and pass
    size_probes: int  # simulate/test latency samples per pass
    power_replications: int  # per pass
    power_probes: int
    setup_repeats: int


FULL = Scale(size_replications=40, size_probes=60, power_replications=25, power_probes=3, setup_repeats=7)
SMOKE = Scale(size_replications=2, size_probes=2, power_replications=4, power_probes=2, setup_repeats=1)


@dataclass
class Measurements:
    pass_walls: list = field(default_factory=list)
    items: int = 0  # replications (MC) or bank series (CLI) completed in passes
    test_ms: list = field(default_factory=list)
    simulate_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def derive_seed(seed, *key):
    """A 64-bit seed from the workload seed and a spawn key."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _binomial_band(m, what, successes, draws, reference, reference_draws):
    """Check successes/draws against a reference rate that was itself
    estimated from reference_draws; returns a one-line summary."""
    if draws == 0:
        m.problems.append(f"{what}: no replications completed")
        return f"{what}: no replications"
    rate = successes / draws
    var = reference * (1.0 - reference)
    band = BAND_SE * np.sqrt(var / draws + var / reference_draws)
    summary = f"{what}: pooled rejection rate {rate:.4f} vs {reference:.4f} +- {band:.4f} over {draws} replications"
    if abs(rate - reference) > band:
        m.problems.append(summary)
    return summary


def _ms(start):
    return (time.perf_counter() - start) * 1e3


class _MonteCarlo:
    """Shared parts of the two Monte Carlo workloads."""

    def __init__(self, seed, replications, probes):
        self.seed = seed
        self.replications = replications  # per cell and pass
        self.probes = probes  # simulate/test latency samples per pass
        self.rejections = 0
        self.kept = 0
        self.failures = 0

    def setup(self):
        self.cells = [(cell, self._model_and_null(*cell[:2])) for cell in self.probe_cells()]
        model, null = self.cells[0][1]
        series = sim.sample_path(model, 200, 100, np.random.default_rng(derive_seed(self.seed, 1, 0)))
        run_test(series, 1, null, LEVEL)

    @staticmethod
    def _model_and_null(pi, xi):
        counting = Bernoulli(pi) if xi == 0.0 else BerG(pi, xi)
        model = sim.GinarModel(counting=(counting,), innovation=Poisson(montecarlo.INNOVATION_RATE))
        return model, dispersion_test.NullSpec((BernoulliKappa(), PoissonKappa()))

    def run_pass(self, index, m, untraced):
        start = time.perf_counter()
        self._run_pass(index, m)
        m.pass_walls.append(time.perf_counter() - start)
        with untraced():
            self._probe(index, m)

    def _probe(self, index, m):
        """Time the two halves of a replication, sample_path then run_test,
        in-process on the workload's own cells. A few after every pass, so
        that the samples spread over the run as the passes do."""
        for k in range(index * self.probes, (index + 1) * self.probes):
            (_, _, n), (model, null) = self.cells[k % len(self.cells)]
            rng = np.random.default_rng(derive_seed(self.seed, 2, k))
            m.attempted += 1
            start = time.perf_counter()
            series = sim.sample_path(model, n, BURN_IN, rng)
            m.simulate_ms.append(_ms(start))
            start = time.perf_counter()
            try:
                dispersion_test.run_test(series, 1, null, LEVEL)
            except GinarError as exc:
                m.failed += 1
                m.problems.append(f"probe replication {k}: {exc!r}")
                continue
            m.test_ms.append(_ms(start))

    def _tally(self, m, rejections, failures, replications):
        self.rejections += rejections
        self.failures += failures
        self.kept += replications - failures
        m.items += replications
        m.attempted += replications
        m.failed += failures


class SizeGrid(_MonteCarlo):
    jobs = JOBS

    def probe_cells(self):
        return [(pi, 0.0, n) for pi in SIZE_PI for n in SIZE_N]

    def _run_pass(self, index, m):
        grid = montecarlo.ExperimentGrid(
            pi_values=SIZE_PI,
            xi_values=(0.0,),
            n_values=SIZE_N,
            replications=self.replications,
            burn_in=BURN_IN,
            level=LEVEL,
            master_seed=derive_seed(self.seed, 0, index),
        )
        table = montecarlo.run_size_experiment(grid, jobs=self.jobs)
        for row in table.rows:
            self._tally(m, row.rejections, row.failures, grid.replications)

    def check(self, m):
        if self.failures:
            m.problems.append(f"{self.failures} failed replications in the size grid")
        return _binomial_band(m, "size grid", self.rejections, self.kept, SIZE_REFERENCE, SIZE_REFERENCE_DRAWS)


class PowerCell(_MonteCarlo):
    jobs = 1

    def probe_cells(self):
        return [POWER_CELL]

    def _run_pass(self, index, m):
        pi, xi, n = POWER_CELL
        rejections, failures = montecarlo.run_cell(
            pi, xi, n, self.replications, BURN_IN, LEVEL, derive_seed(self.seed, 0, index), jobs=self.jobs
        )
        self._tally(m, rejections, failures, self.replications)

    def check(self, m):
        if self.failures:
            m.problems.append(f"{self.failures} failed replications in the power cell")
        return _binomial_band(m, "power cell", self.rejections, self.kept, POWER_REFERENCE, POWER_REFERENCE_DRAWS)


class CliSession:
    """Closed loop, one caller: each pass takes every bank series through
    simulate, fit, test and test --subset."""

    jobs = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.compared = 0

    def setup(self):
        self.bank = []
        for order, specs, null_text, subset, n in BANK:
            dists = tuple(parse_distribution(text) for text in specs)
            model = sim.GinarModel(counting=dists[:-1], innovation=dists[-1])
            self.bank.append((order, specs, null_text, subset, n, model, parse_null(null_text, p=order)))
        cli.build_parser()
        order, _, _, _, _, model, null = self.bank[0]
        series = sim.sample_path(model, 200, 100, np.random.default_rng(derive_seed(self.seed, 1, 0)))
        run_test(series, order, null, LEVEL)

    def _command(self, m, argv):
        """Run one command in-process; returns (ms, stdout) or None on failure."""
        m.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = _ms(start)
        if code != 0:
            m.failed += 1
            m.problems.append(f"ginar {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
            return None
        return elapsed, out.getvalue()

    def run_pass(self, index, m, untraced):
        start = time.perf_counter()
        checks = 0.0
        for b, (order, specs, null_text, subset, n, model, null) in enumerate(self.bank):
            seed = derive_seed(self.seed, 0, index, b)
            path = os.path.join(self.workdir, f"series{b}.csv")
            sim_argv = ["simulate"]
            for text in specs:
                sim_argv += ["--dist", text]
            sim_argv += ["--length", str(n), "--burn-in", str(BURN_IN), "--seed", str(seed), "--output", path]
            ran = self._command(m, sim_argv)
            if ran is None:
                continue
            m.simulate_ms.append(ran[0])
            ran_fit = self._command(m, ["fit", "--input", path, "--order", str(order), "--format", "json"])
            test_argv = ["test", "--input", path, "--order", str(order), "--null", null_text, "--format", "json"]
            ran_test = self._command(m, test_argv)
            ran_sub = self._command(m, test_argv + ["--subset", subset])
            for ran in (ran_test, ran_sub):
                if ran is not None:
                    m.test_ms.append(ran[0])
            check_start = time.perf_counter()
            with untraced():
                self._check(m, model, null, order, n, seed, path, subset, ran_fit, ran_test, ran_sub)
            checks += time.perf_counter() - check_start
            m.items += 1
        m.pass_walls.append(time.perf_counter() - start - checks)

    def _check(self, m, model, null, order, n, seed, path, subset, ran_fit, ran_test, ran_sub):
        """The CLI's outputs must equal direct calls on the same series."""
        where = f"series n={n} p={order} seed={seed}"
        series = sim.simulate(model, sim.SimConfig(n=n, burn_in=BURN_IN, seed=seed))
        if not np.array_equal(sim.read_series(path), series):
            m.problems.append(f"{where}: CSV written by simulate differs from simulate()")
        indices = tuple(int(tok) for tok in subset.split(","))
        expected = (
            (ran_fit, "mu_hat", fit_cls(series, order).mu_hat),
            (ran_test, "statistic", run_test(series, order, null, LEVEL).statistic),
            (ran_sub, "statistic", run_subvector_test(series, order, null, indices, LEVEL).statistic),
        )
        for ran, key, want in expected:
            if ran is None:
                continue
            got = np.asarray(json.loads(ran[1])[key], dtype=np.float64)
            self.compared += 1
            if not np.allclose(got, want, rtol=MATCH_TOL, atol=MATCH_TOL):
                m.problems.append(f"{where}: CLI {key} {got} differs from direct call {want}")

    def check(self, m):
        return f"{self.compared} CLI outputs compared with direct calls to {MATCH_TOL:g}"


def make(name, seed, scale, workdir):
    if name == "size_grid":
        return SizeGrid(seed, scale.size_replications, scale.size_probes)
    if name == "power_cell":
        return PowerCell(seed, scale.power_replications, scale.power_probes)
    if name == "cli_session":
        return CliSession(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

