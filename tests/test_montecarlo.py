import os

import numpy as np
import pytest

from ginar import montecarlo
from ginar.errors import InputError
from ginar.montecarlo import (
    CellResult,
    ExperimentGrid,
    RejectionTable,
    format_power_table,
    format_size_table,
    parse_grid_config,
    replicate_once,
    run_cell,
    run_power_experiment,
    run_size_experiment,
)

SMOKE_GRID = ExperimentGrid(
    pi_values=(0.3,),
    xi_values=(0.0,),
    n_values=(200,),
    replications=40,
    burn_in=100,
    level=0.05,
    master_seed=7,
)


class TestGridValidation:
    def test_stationarity_pairs(self):
        with pytest.raises(ValueError, match="pi \\+ xi < 1"):
            ExperimentGrid(pi_values=(0.8,), xi_values=(0.3,), n_values=(100,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pi_values": (), "xi_values": (0.0,), "n_values": (100,)},
            {"pi_values": (1.2,), "xi_values": (0.0,), "n_values": (100,)},
            {"pi_values": (0.3,), "xi_values": (-0.1,), "n_values": (100,)},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (2,)},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (100,), "replications": 0},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (100,), "level": 1.5},
            {"pi_values": (0.3,), "xi_values": (float("nan"),), "n_values": (100,)},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (float("inf"),)},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (500.7,)},
            # a repeated value would run the same cell twice under two seeds
            {"pi_values": (0.3, 0.3), "xi_values": (0.0,), "n_values": (100,)},
            {"pi_values": (0.3,), "xi_values": (0.1, 0.1), "n_values": (100,)},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (50, 50)},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (100,), "replications": 2.5},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (100,), "burn_in": 2.5},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (100,), "master_seed": 1.5},
            # n = 3 leaves two regression rows, one short of the INAR(1) fit
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (3,)},
            # only whole numbers are lengths: these two ran as n = 500
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (np.float32(500.5),)},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": ("500",)},
            {"pi_values": (0.3,), "xi_values": (0.0,), "n_values": (100,), "level": "0.05"},
            # pi and xi must be numbers too: these two ran as pi = 0.3 and xi = 0.1
            {"pi_values": ("0.3",), "xi_values": (0.0,), "n_values": (100,)},
            {"pi_values": (0.3,), "xi_values": ("0.1",), "n_values": (100,)},
            # nor bools: False ran as xi = 0, and True was refused only as pi = 1.0
            {"pi_values": (0.3,), "xi_values": (False,), "n_values": (100,)},
            {"pi_values": (True,), "xi_values": (0.0,), "n_values": (100,)},
        ],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(InputError):
            ExperimentGrid(**kwargs)


class TestRunCell:
    def test_deterministic(self):
        a = run_cell(0.3, 0.0, 200, 50, 100, 0.05, cell_seed=11, jobs=1)
        b = run_cell(0.3, 0.0, 200, 50, 100, 0.05, cell_seed=11, jobs=1)
        assert a == b

    def test_single_replication_repeatable(self):
        results = {run_cell(0.3, 0.0, 200, 1, 100, 0.05, cell_seed=13, jobs=1) for _ in range(3)}
        assert len(results) == 1
        (rej, fail) = results.pop()
        assert fail == 0 and rej in (0, 1)

    def test_worker_count_does_not_change_result(self):
        serial = run_cell(0.2, 0.1, 150, 30, 100, 0.05, cell_seed=17, jobs=1)
        parallel = run_cell(0.2, 0.1, 150, 30, 100, 0.05, cell_seed=17, jobs=2)
        assert serial == parallel

    def test_blocks_and_workers_do_not_change_result(self):
        # 130 replications run as 17 blocks of 7 or 8 at jobs 1 and as 18 at
        # jobs 2 and 3; each agrees with replicate_once, the oracle.
        # Series of 6 give rejections, keeps and failures alike.
        model, null = montecarlo._cell_model_and_null(0.3, 0.0)
        outcomes = [replicate_once(model, null, 6, 20, 0.05, 47, k) for k in range(130)]
        assert all(outcomes.count(kind) > 10 for kind in (True, False, None))
        expected = (outcomes.count(True), outcomes.count(None))
        for jobs in (1, 2, 3):
            assert run_cell(0.3, 0.0, 6, 130, 20, 0.05, cell_seed=47, jobs=jobs) == expected

    def test_tiny_series_counts_failures(self):
        # n=4 leaves three regression rows, the p+2 minimum, so most
        # replications hit a singular matrix; each is reported, not dropped
        model, null = montecarlo._cell_model_and_null(0.3, 0.0)
        outcomes = [replicate_once(model, null, 4, 10, 0.05, 19, k) for k in range(20)]
        assert outcomes.count(None) > 0
        assert run_cell(0.3, 0.0, 4, 20, 10, 0.05, cell_seed=19, jobs=1) == (
            outcomes.count(True),
            outcomes.count(None),
        )

    @pytest.mark.parametrize(
        "bad",
        [{"level": 1.5}, {"level": 0.0}, {"burn_in": -1}, {"burn_in": 2.5}, {"n": 3}, {"n": 2}, {"jobs": 1.5}],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_input_refused_before_pool_starts(self, monkeypatch, bad):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        args = dict(pi=0.3, xi=0.0, n=100, replications=4, burn_in=10, level=0.05, cell_seed=43, jobs=2)
        with pytest.raises(InputError):
            run_cell(**(args | bad))

    @pytest.mark.parametrize("has_affinity", [True, False])
    def test_default_jobs_counts_usable_cpus(self, monkeypatch, has_affinity):
        # one usable CPU runs the cell in this process, whatever os.cpu_count says
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        if has_affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        expected = run_cell(0.3, 0.0, 100, 2, 10, 0.05, cell_seed=37, jobs=1)
        assert run_cell(0.3, 0.0, 100, 2, 10, 0.05, cell_seed=37) == expected

    def test_nonstationary_cell_rejected(self):
        with pytest.raises(ValueError):
            run_cell(0.7, 0.4, 100, 5, 10, 0.05, cell_seed=23)

    def test_replicate_once_uses_bernoulli_at_xi_zero(self):
        # same substream, xi=0 vs tiny xi: paths coincide in law but the
        # xi=0 branch must run the plain Bernoulli model without error
        model, null = montecarlo._cell_model_and_null(0.3, 0.0)
        outcome = replicate_once(model, null, 100, 50, 0.05, cell_seed=29, k=0)
        assert outcome in (True, False)

    def test_cell_model_built_once(self, monkeypatch):
        build = montecarlo._cell_model_and_null
        builds = []

        def counted(pi, xi):
            builds.append((pi, xi))
            return build(pi, xi)

        monkeypatch.setattr(montecarlo, "_cell_model_and_null", counted)
        run_cell(0.3, 0.0, 100, 6, 10, 0.05, cell_seed=41, jobs=1)
        assert builds == [(0.3, 0.0)]


class TestExperiments:
    def test_single_cell_grid(self):
        table = run_size_experiment(SMOKE_GRID, jobs=1)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.pi == 0.3 and row.xi == 0.0 and row.n == 200
        assert 0.0 <= row.rate <= 1.0
        assert row.failures == 0

    def test_determinism_across_runs(self):
        t1 = run_size_experiment(SMOKE_GRID, jobs=1)
        t2 = run_size_experiment(SMOKE_GRID, jobs=2)
        assert t1 == t2

    def test_grid_table_independent_of_jobs(self):
        grid = ExperimentGrid(
            pi_values=(0.2, 0.6),
            xi_values=(0.0,),
            n_values=(60, 150),
            replications=24,
            burn_in=50,
            level=0.05,
            master_seed=29,
        )
        serial = run_size_experiment(grid, jobs=1).csv_text()
        assert run_size_experiment(grid, jobs=2).csv_text() == serial
        assert len(serial.splitlines()) == 5

    def test_smoke_grid_rates_in_range(self):
        grid = ExperimentGrid(
            pi_values=(0.2, 0.5),
            xi_values=(0.0,),
            n_values=(150, 300),
            replications=25,
            burn_in=100,
            master_seed=3,
        )
        table = run_size_experiment(grid, jobs=2)
        assert len(table.rows) == 4
        assert all(0.0 <= row.rate <= 1.0 for row in table.rows)

    def test_power_grid_uses_positive_xi_only(self):
        grid = ExperimentGrid(
            pi_values=(0.3,),
            xi_values=(0.0, 0.3),
            n_values=(300,),
            replications=30,
            burn_in=100,
            master_seed=5,
        )
        table = run_power_experiment(grid, jobs=1)
        assert [row.xi for row in table.rows] == [0.3]

    def test_power_requires_alternative(self):
        with pytest.raises(ValueError):
            run_power_experiment(SMOKE_GRID)

    def test_power_increases_with_xi(self):
        # power is monotone in xi at fixed (pi, n) up to Monte Carlo noise
        grid = ExperimentGrid(
            pi_values=(0.3,),
            xi_values=(0.05, 0.15, 0.3),
            n_values=(500,),
            replications=400,
            burn_in=500,
            master_seed=11,
        )
        table = run_power_experiment(grid)
        rates = [row.rate for row in sorted(table.rows, key=lambda r: r.xi)]
        for lower, higher in zip(rates, rates[1:]):
            assert higher >= lower - 0.04


@pytest.fixture
def pool_starts(monkeypatch):
    """The pools started through ``montecarlo.ProcessPoolExecutor``, counted."""
    starts = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(args or kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    return starts


POWER_GRID = ExperimentGrid(
    pi_values=(0.2, 0.5),
    xi_values=(0.1, 0.3),
    n_values=(40, 90),
    replications=12,
    burn_in=30,
    master_seed=31,
)


class TestDispatch:
    """All blocks of a grid go through one map: one pool at jobs > 1, none at jobs = 1."""

    @pytest.mark.parametrize("experiment", [run_size_experiment, run_power_experiment])
    def test_one_pool_per_grid(self, pool_starts, experiment):
        table = experiment(POWER_GRID, jobs=2)
        assert len(table.rows) == (4 if experiment is run_size_experiment else 8)
        assert len(pool_starts) == 1

    @pytest.mark.parametrize("experiment", [run_size_experiment, run_power_experiment])
    def test_single_job_starts_no_pool(self, pool_starts, experiment):
        experiment(POWER_GRID, jobs=1)
        assert pool_starts == []

    @pytest.mark.parametrize("experiment", [run_size_experiment, run_power_experiment])
    @pytest.mark.parametrize("jobs", [0, 1.5, -2, "2"])
    def test_bad_jobs_refused_before_pool_starts(self, pool_starts, experiment, jobs):
        with pytest.raises(InputError):
            experiment(POWER_GRID, jobs=jobs)
        assert pool_starts == []

    def test_power_table_independent_of_jobs(self, pool_starts):
        serial = run_power_experiment(POWER_GRID, jobs=1).csv_text()
        assert run_power_experiment(POWER_GRID, jobs=2).csv_text() == serial
        assert len(serial.splitlines()) == 9 and len(pool_starts) == 1

    def test_grid_cells_match_run_cell(self):
        # cell i of a grid is run_cell on the seed derived from (master seed, i)
        table = run_power_experiment(POWER_GRID, jobs=2)
        for index, row in enumerate(table.rows):
            seed = montecarlo._derive_cell_seed(POWER_GRID.master_seed, index)
            expected = run_cell(row.pi, row.xi, row.n, 12, 30, 0.05, cell_seed=seed, jobs=1)
            assert (row.rejections, row.failures) == expected


class TestConfigParsing:
    GOOD = """
    # size study grid
    pi_values = 0.2, 0.3
    xi_values = 0.0
    n_values = 500, 1000
    replications = 200
    burn_in = 500
    level = 0.05
    seed = 42
    """

    def test_parse_good_config(self):
        grid = parse_grid_config(self.GOOD)
        assert grid.pi_values == (0.2, 0.3)
        assert grid.n_values == (500, 1000)
        assert grid.replications == 200
        assert grid.master_seed == 42

    def test_defaults(self):
        grid = parse_grid_config("pi_values = 0.3\nn_values = 100\n")
        assert grid.xi_values == (0.0,)
        assert grid.replications == 1000
        assert grid.burn_in == 1000
        assert grid.level == 0.05
        assert grid.master_seed == 0

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("pi_values = 0.3", "missing required key 'n_values'"),
            ("pies = 0.3\nn_values = 100", "unknown key"),
            ("pi_values = a,b\nn_values = 100", "bad number list"),
            ("pi_values = 0.3\npi_values = 0.4\nn_values = 100", "duplicate"),
            ("pi_values 0.3\nn_values = 100", "expected key = value"),
            ("pi_values = 0.9\nxi_values = 0.3\nn_values = 100", "pi + xi < 1"),
            ("pi_values = 0.3\nn_values = inf", "'n_values'"),
            ("pi_values = 0.3\nn_values = 100, 1e400", "'n_values'"),
            ("pi_values = 0.3\nn_values = 500.7", "'n_values'"),
            ("pi_values = 0.3\nxi_values = nan\nn_values = 100", "'xi_values'"),
            ("pi_values = 0.3, 0.3\nn_values = 100", "'pi_values' repeats"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(InputError) as excinfo:
            parse_grid_config(text)
        assert fragment in str(excinfo.value)


@pytest.fixture(scope="module")
def table():
    grid = ExperimentGrid(
        pi_values=(0.3,),
        xi_values=(0.1, 0.2),
        n_values=(150,),
        replications=20,
        burn_in=100,
        master_seed=9,
    )
    return run_power_experiment(grid, jobs=1)


class TestTableOutput:
    def test_csv_layout(self, table, tmp_path):
        path = tmp_path / "table.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pi,xi,n,rejections,failures,rate"
        assert len(lines) == 1 + len(table.rows)
        first = lines[1].split(",")
        assert first[0] == "0.3" and first[2] == "150"

    def test_rate_accounting(self, table):
        for row in table.rows:
            kept = table.replications - row.failures
            assert row.rate == pytest.approx(row.rejections / kept)

    def test_pretty_tables_mention_cells(self, table):
        text = format_power_table(table)
        assert "xi=0.1" in text and "xi=0.2" in text
        size_text = format_size_table(table)
        assert "n=150" in size_text

    def test_pretty_tables_exact_text(self):
        # missing cells print as blanks; rows and columns sort by value
        size = RejectionTable(100, 0.05, (
            CellResult(0.3, 0.0, 50, 3, 0, 0.06),
            CellResult(0.3, 0.0, 1000, 51, 0, 0.051),
            CellResult(0.65, 0.0, 50, 7, 2, 7 / 98),
            CellResult(0.125, 0.0, 12345, 0, 100, 0.0),
        ))
        assert format_size_table(size) == (
            "empirical size at nominal level 0.05 (R=100)\n"
            "pi      n=50      n=1000    n=12345   \n"
            "0.125                       0.000     \n"
            "0.3     0.060     0.051               \n"
            "0.65    0.071                         "
        )
        power = RejectionTable(100, 0.1, (
            CellResult(0.3, 0.1, 50, 40, 0, 0.4),
            CellResult(0.3, 0.25, 50, 81, 1, 81 / 99),
            CellResult(0.2, 0.1, 1000, 100, 0, 1.0),
            CellResult(0.3, 0.1, 1000, 99, 0, 0.99),
        ))
        assert format_power_table(power) == (
            "empirical power at nominal level 0.1 (R=100)\n"
            "pi      n       xi=0.1     xi=0.25    \n"
            "0.2     1000    1.000                 \n"
            "0.3     50      0.400      0.818      \n"
            "0.3     1000    0.990                 "
        )
