import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ginar.cli import main
from ginar.simulate import read_series


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def h0_csv(tmp_path):
    path = tmp_path / "h0.csv"
    code = run_cli(
        "simulate",
        "--dist", "bernoulli(p=0.3)",
        "--dist", "poisson(rate=1)",
        "--length", "2000",
        "--seed", "71",
        "--output", str(path),
    )
    assert code == 0
    return path


class TestSimulateCommand:
    def test_writes_reproducible_csv(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = run_cli(
                "simulate",
                "--dist", "bernoulli(p=0.3)",
                "--dist", "poisson(rate=1)",
                "--length", "500",
                "--seed", "5",
                "--output", str(out),
            )
            assert code == 0
        assert out1.read_text() == out2.read_text()
        series = read_series(out1)
        assert len(series) == 500
        assert np.all(series >= 0)

    def test_round_trip_preserves_counts(self, h0_csv):
        series = read_series(h0_csv)
        assert len(series) == 2000
        assert_array_equal(series, read_series(h0_csv))

    def test_refuses_nonstationary_means(self, tmp_path, capsys):
        code = run_cli(
            "simulate",
            "--dist", "bernoulli(p=0.6)",
            "--dist", "bernoulli(p=0.5)",
            "--dist", "poisson(rate=1)",
            "--length", "100",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "stationarity" in capsys.readouterr().err

    def test_refuses_berg_at_boundary(self, tmp_path, capsys):
        code = run_cli(
            "simulate",
            "--dist", "berg(pi=0.5,xi=0.6)",
            "--dist", "poisson(rate=1)",
            "--length", "100",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_refuses_stationary_mean_beyond_2_53(self, tmp_path, capsys):
        # geometric(p=1e-300) draws saturate numpy's int64 range
        code = run_cli(
            "simulate",
            "--dist", "bernoulli(p=0.3)",
            "--dist", "geometric(p=1e-300)",
            "--length", "100",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "2**53" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_order_mismatch(self, tmp_path):
        code = run_cli(
            "simulate",
            "--dist", "bernoulli(p=0.3)",
            "--dist", "poisson(rate=1)",
            "--order", "2",
            "--length", "100",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_bad_spec_string(self, tmp_path, capsys):
        code = run_cli(
            "simulate",
            "--dist", "weibull(k=1)",
            "--dist", "poisson(rate=1)",
            "--length", "100",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "weibull" in capsys.readouterr().err


class TestFitCommand:
    def test_text_report(self, h0_csv, capsys):
        assert run_cli("fit", "--input", str(h0_csv), "--order", "1") == 0
        out = capsys.readouterr().out
        assert "mu_hat" in out and "theta_hat" in out

    def test_json_report(self, h0_csv, capsys):
        assert run_cli("fit", "--input", str(h0_csv), "--order", "1", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_eff"] == 1999
        assert len(payload["mu_hat"]) == 2
        assert abs(payload["mu_hat"][0] - 0.3) < 0.1

    def test_deterministic_output(self, h0_csv, capsys):
        run_cli("fit", "--input", str(h0_csv), "--order", "1")
        first = capsys.readouterr().out
        run_cli("fit", "--input", str(h0_csv), "--order", "1")
        assert capsys.readouterr().out == first

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("fit", "--input", str(tmp_path / "nope.csv"), "--order", "1") == 2

    def test_malformed_value_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("count\n1\n2.5\n")
        assert run_cli("fit", "--input", str(path), "--order", "1") == 2
        assert "line 3" in capsys.readouterr().err

    def test_order_beyond_supported_exits_2(self, h0_csv, capsys):
        assert run_cli("fit", "--input", str(h0_csv), "--order", "64") == 2
        assert "order" in capsys.readouterr().err

    def test_constant_series_is_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("count\n" + "2\n" * 30)
        assert run_cli("fit", "--input", str(path), "--order", "1") == 3
        assert "singular" in capsys.readouterr().err


class TestTestCommand:
    def test_full_test_report(self, h0_csv, capsys):
        code = run_cli(
            "test", "--input", str(h0_csv), "--order", "1", "--null", "bernoulli,poisson"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "statistic" in out and "p_value" in out

    def test_count_beyond_int64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("count\n" + "1\n" * 10 + "100000000000000000000\n")
        code = run_cli("test", "--input", str(path), "--order", "1", "--null", "bernoulli,poisson")
        assert code == 2
        assert "line 12" in capsys.readouterr().err

    def test_non_finite_kappa_parameter_exits_2(self, h0_csv, capsys):
        code = run_cli(
            "test", "--input", str(h0_csv), "--order", "1",
            "--null", "negbinomial(r=inf),poisson", "--format", "json",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_overflowing_w_exits_3(self, h0_csv, capsys):
        # kappa'(mu) = 2 mu / r + 1 is about 1e300, so W_hat overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "test", "--input", str(h0_csv), "--order", "1",
                "--null", "negbinomial(r=1e-300),poisson",
            )
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_kappa_exits_3(self, h0_csv, capsys):
        # kappa(mu) = (mu + r) mu / r overflows for a subnormal r
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "test", "--input", str(h0_csv), "--order", "1",
                "--null", "negbinomial(r=5e-324),poisson",
            )
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_count_beyond_float64_precision_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("count\n" + "1\n2\n" * 10 + f"{2**53 + 1}\n")
        code = run_cli("test", "--input", str(path), "--order", "1", "--null", "bernoulli,poisson")
        assert code == 2
        assert str(2**53 + 1) in capsys.readouterr().err

    def test_internal_value_error_is_not_input(self, h0_csv, monkeypatch):
        # a plain ValueError inside a handler is a bug: it must not read as exit 2
        def broken_fit(series, p):
            raise ValueError("internal bug")

        monkeypatch.setattr("ginar.dispersion_test.fit_cls", broken_fit)
        with pytest.raises(ValueError, match="internal bug"):
            run_cli("test", "--input", str(h0_csv), "--order", "1", "--null", "bernoulli,poisson")

    def test_exit_zero_even_on_rejection(self, tmp_path, capsys):
        path = tmp_path / "alt.csv"
        run_cli(
            "simulate",
            "--dist", "berg(pi=0.2,xi=0.3)",
            "--dist", "poisson(rate=1)",
            "--length", "2000",
            "--seed", "77",
            "--output", str(path),
        )
        capsys.readouterr()  # drop the simulate confirmation line
        code = run_cli(
            "test", "--input", str(path), "--order", "1", "--null", "bernoulli,poisson",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reject"] is True

    def test_subset_flag(self, h0_csv, capsys):
        code = run_cli(
            "test", "--input", str(h0_csv), "--order", "1", "--null", "bernoulli,poisson",
            "--subset", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["df"] == 1
        assert payload["indices"] == [1]

    def test_bad_subset(self, h0_csv, capsys):
        code = run_cli(
            "test", "--input", str(h0_csv), "--order", "1", "--null", "bernoulli,poisson",
            "--subset", "1,junk",
        )
        assert code == 2

    def test_null_arity_mismatch(self, h0_csv):
        code = run_cli(
            "test", "--input", str(h0_csv), "--order", "1",
            "--null", "bernoulli,bernoulli,poisson",
        )
        assert code == 2

    def test_level_flag_changes_threshold(self, h0_csv, capsys):
        run_cli(
            "test", "--input", str(h0_csv), "--order", "1", "--null", "bernoulli,poisson",
            "--level", "0.5", "--format", "json",
        )
        loose = json.loads(capsys.readouterr().out)
        assert loose["level"] == 0.5


class TestMonteCarloCommands:
    def test_mc_size_runs_and_writes(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text(
            "pi_values = 0.3\nn_values = 150\nreplications = 20\nburn_in = 100\nseed = 3\n"
        )
        out = tmp_path / "table.csv"
        code = run_cli("mc-size", "--config", str(config), "--output", str(out), "--jobs", "1")
        assert code == 0
        assert "empirical size" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "pi,xi,n,rejections,failures,rate"
        assert len(lines) == 2

    def test_mc_power_runs(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text(
            "pi_values = 0.3\nxi_values = 0.3\nn_values = 150\n"
            "replications = 20\nburn_in = 100\nseed = 3\n"
        )
        code = run_cli("mc-power", "--config", str(config), "--jobs", "1")
        assert code == 0
        assert "empirical power" in capsys.readouterr().out

    def test_power_without_alternative_exits_2(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text("pi_values = 0.3\nxi_values = 0\nn_values = 150\n")
        assert run_cli("mc-power", "--config", str(config), "--jobs", "1") == 2
        assert "xi > 0" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text("bogus = 1\n")
        assert run_cli("mc-size", "--config", str(config)) == 2

    def test_length_beyond_array_limit_exits_2(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text("pi_values = 0.3\nn_values = 1e300\nreplications = 1\n")
        assert run_cli("mc-size", "--config", str(config), "--jobs", "1") == 2
        assert "largest array" in capsys.readouterr().err

    def test_infinite_length_exits_2(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text("pi_values = 0.3\nn_values = inf\n")
        assert run_cli("mc-size", "--config", str(config), "--jobs", "1") == 2
        assert "'n_values'" in capsys.readouterr().err


class TestArgumentErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("frobnicate")
        assert excinfo.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("fit", "--order", "1")
        assert excinfo.value.code == 2
