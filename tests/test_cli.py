import json
import re
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

    def test_order_flag_rejected(self, tmp_path):
        # the order is the number of --dist specs minus one; there is no flag for it
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                "simulate",
                "--dist", "bernoulli(p=0.3)",
                "--dist", "poisson(rate=1)",
                "--order", "1",
                "--length", "100",
                "--output", str(tmp_path / "x.csv"),
            )
        assert excinfo.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_single_spec_rejected(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--dist", "poisson(rate=1)", "--length", "100", "--output", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "at least two --dist specs" in capsys.readouterr().err

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

    def test_too_short_series_exits_2(self, tmp_path, capsys):
        # the fit needs 2p + 2 counts; ginar simulate --length 3 writes a file this short
        path = tmp_path / "short.csv"
        path.write_text("count\n1\n2\n0\n")
        assert run_cli("fit", "--input", str(path), "--order", "1") == 2
        assert "series length 3 too short for order 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        config = tmp_path / "grid.cfg"
        config.write_text("pi_values = 0.3\nn_values = 150\nreplications = 2\nburn_in = 10\n")
        assert run_cli("mc-size", "--config", str(config), "--jobs", jobs) == 2
        assert f"jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err

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


# Short series whose reports the golden bank below pins: "p1" and "p2" fit
# cleanly, "warn" carries fit and kappa warnings, "const" is singular.
GOLDEN_SERIES = {
    "p1": [1, 2, 1, 1, 2, 2, 2, 4, 5, 5, 1, 2, 1, 4, 3, 4, 3, 1, 1, 0, 1, 3, 6, 4, 6, 3, 3, 3, 2, 2, 0, 4, 2, 4, 5, 2, 2, 2, 2, 2],
    "p2": [2, 4, 2, 5, 1, 1, 4, 4, 3, 1, 1, 0, 0, 0, 0, 1, 0, 2, 2, 1, 2, 1, 1, 0, 1, 2, 1, 3, 2, 0, 1, 1, 1, 0, 1, 1, 1, 0, 2, 2],
    "warn": [1, 2, 0, 2, 1, 2, 0, 3, 2, 2, 2, 0, 0, 1, 1, 0, 1, 0, 0, 1],
    "const": [3] * 12,
}

GOLDEN = [
    pytest.param(
        "p1",
        ["fit", "--order", "1"],
        0,
        """\
conditional least squares fit
  n_eff: 39
  mu_hat: 0.370163  1.65676
  theta_hat: 0.175931  1.51111
  warnings: none
""",
        "",
        id="fit-text",
    ),
    pytest.param(
        "p1",
        ["fit", "--order", "1", "--format", "json"],
        0,
        """\
{
  "n_eff": 39,
  "mu_hat": [
    0.370162647223781,
    1.6567582725743106
  ],
  "theta_hat": [
    0.175930673777945,
    1.5111074172605425
  ],
  "warnings": []
}
""",
        "",
        id="fit-json",
    ),
    pytest.param(
        "p1",
        ["test", "--order", "1", "--null", "bernoulli,poisson"],
        0,
        """\
mean-variance relationship test
  statistic: 0.437109
  df: 2
  p_value: 0.80368
  reject: false
  level: 0.05
  indices: 1,2
  discrepancy: 0.0572116  0.145651
  warnings: none
""",
        "",
        id="test-text",
    ),
    pytest.param(
        "p1",
        ["test", "--order", "1", "--null", "bernoulli,poisson", "--format", "json"],
        0,
        """\
{
  "statistic": 0.4371090035323499,
  "df": 2,
  "p_value": 0.8036796762891956,
  "reject": false,
  "level": 0.05,
  "indices": [
    1,
    2
  ],
  "discrepancy": [
    0.05721158804611867,
    0.1456508553137681
  ],
  "warnings": []
}
""",
        "",
        id="test-json",
    ),
    pytest.param(
        "p1",
        ["test", "--order", "1", "--null", "poisson,poisson", "--subset", "1", "--level", "0.5"],
        0,
        """\
mean-variance relationship test
  statistic: 0.649722
  df: 1
  p_value: 0.420212
  reject: true
  level: 0.5
  indices: 1
  discrepancy: 0.194232
  warnings: none
""",
        "",
        id="subset-level",
    ),
    pytest.param(
        "p2",
        ["fit", "--order", "2"],
        0,
        """\
conditional least squares fit
  n_eff: 38
  mu_hat: 0.291796  0.13795  0.742722
  theta_hat: 0.115567  0.390049  0.516171
  warnings: none
""",
        "",
        id="p2-fit",
    ),
    pytest.param(
        "p2",
        ["test", "--order", "2", "--null", "bernoulli,bernoulli,poisson", "--subset", "1,3"],
        0,
        """\
mean-variance relationship test
  statistic: 1.24476
  df: 2
  p_value: 0.536667
  reject: false
  level: 0.05
  indices: 1,3
  discrepancy: 0.091084  0.22655
  warnings: none
""",
        "",
        id="p2-subset",
    ),
    pytest.param(
        "p2",
        ["test", "--order", "2", "--null", "bernoulli,bernoulli,poisson", "--format", "json"],
        0,
        """\
{
  "statistic": 1.2984362918461927,
  "df": 3,
  "p_value": 0.729504427749529,
  "reject": false,
  "level": 0.05,
  "indices": [
    1,
    2,
    3
  ],
  "discrepancy": [
    0.09108396439631125,
    -0.2711292819410454,
    0.22655013423921921
  ],
  "warnings": []
}
""",
        "",
        id="p2-json",
    ),
    pytest.param(
        "warn",
        ["fit", "--order", "1"],
        0,
        """\
conditional least squares fit
  n_eff: 19
  mu_hat: -0.00310559  1.0559
  theta_hat: -0.0513256  0.945985
  warnings:
    - estimated thinning means fall outside the stationarity region (mu_hat[:p] = [-0.003106])
    - variance estimate for lag 1 is negative (-0.0513256)
""",
        "",
        id="warnings-fit",
    ),
    pytest.param(
        "warn",
        ["test", "--order", "1", "--null", "bernoulli,poisson"],
        0,
        """\
mean-variance relationship test
  statistic: 0.482536
  df: 2
  p_value: 0.785631
  reject: false
  level: 0.05
  indices: 1,2
  discrepancy: 0.0482103  0.109916
  warnings:
    - estimated thinning means fall outside the stationarity region (mu_hat[:p] = [-0.003106])
    - variance estimate for lag 1 is negative (-0.0513256)
    - estimated mean -0.00310559 at position 1 is outside the admissible range (0, 1) of the bernoulli kappa family; formulas evaluated by smooth extension
""",
        "",
        id="warnings-test",
    ),
    pytest.param(
        "warn",
        ["test", "--order", "1", "--null", "bernoulli,poisson", "--format", "json"],
        0,
        """\
{
  "statistic": 0.48253648069862526,
  "df": 2,
  "p_value": 0.7856308602252371,
  "reject": false,
  "level": 0.05,
  "indices": [
    1,
    2
  ],
  "discrepancy": [
    0.04821032899534003,
    0.10991555565033795
  ],
  "warnings": [
    "estimated thinning means fall outside the stationarity region (mu_hat[:p] = [-0.003106])",
    "variance estimate for lag 1 is negative (-0.0513256)",
    "estimated mean -0.00310559 at position 1 is outside the admissible range (0, 1) of the bernoulli kappa family; formulas evaluated by smooth extension"
  ]
}
""",
        "",
        id="warnings-json",
    ),
    pytest.param(
        "const",
        ["test", "--order", "1", "--null", "bernoulli,poisson"],
        3,
        "",
        """\
numerical error: singular Gram matrix: regressor columns are linearly dependent; a constant series is the typical cause
""",
        id="exit-3",
    ),
]

_DECIMAL = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")


def to_12_digits(text):
    """The text with each decimal number rounded to 12 significant digits."""
    return _DECIMAL.sub(lambda m: f"{float(m.group()):.12g}", text)


@pytest.mark.parametrize("name,argv,code,out,err", GOLDEN)
def test_golden_reports(tmp_path, capsys, name, argv, code, out, err):
    # Exit code, stdout and stderr byte for byte, except that JSON prints
    # each float's every digit and the last ones may move with the BLAS
    # kernel: rounding to 12 digits leaves the text reports (6 digits) exact.
    path = tmp_path / f"{name}.csv"
    path.write_text("".join(f"{v}\n" for v in GOLDEN_SERIES[name]))
    assert run_cli(argv[0], "--input", str(path), *argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert to_12_digits(captured.out) == to_12_digits(out)
    if "--format" in argv:
        assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"
