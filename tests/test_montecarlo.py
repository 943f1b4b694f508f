import pytest

from ginar.errors import InputError
from ginar.montecarlo import (
    ExperimentGrid,
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

    def test_tiny_series_counts_failures(self):
        # n=3 leaves two regression rows, below the p+2 minimum, so every
        # replication fails and is reported rather than dropped
        rejections, failures = run_cell(0.3, 0.0, 3, 5, 10, 0.05, cell_seed=19, jobs=1)
        assert (rejections, failures) == (0, 5)

    def test_nonstationary_cell_rejected(self):
        with pytest.raises(ValueError):
            run_cell(0.7, 0.4, 100, 5, 10, 0.05, cell_seed=23)

    def test_replicate_once_uses_bernoulli_at_xi_zero(self):
        # same substream, xi=0 vs tiny xi: paths coincide in law but the
        # xi=0 branch must run the plain Bernoulli model without error
        outcome = replicate_once(0.3, 0.0, 100, 50, 0.05, cell_seed=29, k=0)
        assert outcome in (True, False)


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
