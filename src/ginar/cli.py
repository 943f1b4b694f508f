"""Command line front end: simulate, fit, test, mc-size, mc-power.

``format_report`` prints the fit and test reports, text or JSON, from one
field list per result type in ``_REPORTS``: a new field is one name there.

Exit statuses: 0 success (including a statistical rejection, which is an
outcome, not a failure), 2 for an ``InputError`` (malformed or out-of-range
input) or an ``OSError`` (unreadable or unwritable file), 3 for a
``NumericalError``. Any other exception is a bug: it is not caught, so it
ends with a traceback and exit status 1.
"""

import argparse
import functools
import json
import sys

import numpy as np

from .cls import CLSFit, fit_cls
from .dispersion_test import TestResult, parse_null, run_subvector_test, run_test
from .distributions import parse_distribution
from .errors import InputError, NumericalError
from .montecarlo import (
    format_power_table,
    format_size_table,
    read_grid_config,
    run_power_experiment,
    run_size_experiment,
)
from .simulate import GinarModel, SimConfig, read_series, simulate, write_series

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_REPORTS = {
    CLSFit: ("conditional least squares fit", ("n_eff", "mu_hat", "theta_hat")),
    TestResult: (
        "mean-variance relationship test",
        ("statistic", "df", "p_value", "reject", "level", "indices", "discrepancy"),
    ),
}


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ginar",
        description="Generalized INAR(p) simulation, CLS estimation, and the "
        "mean-variance test for counting sequences and innovations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a GINAR(p) path to CSV")
    sim.add_argument(
        "--dist",
        action="append",
        required=True,
        metavar="SPEC",
        help="distribution spec, repeatable; lags 1..p first, innovation last "
        "(e.g. --dist 'bernoulli(p=0.3)' --dist 'poisson(rate=1)')",
    )
    sim.add_argument("--length", type=int, required=True, help="series length n")
    sim.add_argument("--burn-in", type=int, default=1000, help="burn-in steps (default 1000)")
    sim.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    sim.add_argument("--output", required=True, help="output CSV path")

    fit = sub.add_parser("fit", help="conditional least squares fit")
    fit.add_argument("--input", required=True, help="count series CSV")
    fit.add_argument("--order", type=int, required=True, help="order p")
    fit.add_argument("--format", choices=("text", "json"), default="text")

    test = sub.add_parser("test", help="mean-variance relationship test")
    test.add_argument("--input", required=True, help="count series CSV")
    test.add_argument("--order", type=int, required=True, help="order p")
    test.add_argument(
        "--null",
        required=True,
        help="comma-separated kappa families, lags then innovation "
        "(e.g. 'bernoulli,poisson' or 'negbinomial(r=2),poisson')",
    )
    test.add_argument("--level", type=float, default=0.05, help="significance level (default 0.05)")
    test.add_argument(
        "--subset",
        default=None,
        help="comma-separated 1-based component positions to test (default: all)",
    )
    test.add_argument("--format", choices=("text", "json"), default="text")

    for name, help_text in (
        ("mc-size", "empirical size study over the null grid"),
        ("mc-power", "empirical power study over the alternative grid"),
    ):
        mc = sub.add_parser(name, help=help_text)
        mc.add_argument("--config", required=True, help="plain-text grid config path")
        mc.add_argument("--output", default=None, help="write the rejection table CSV here")
        mc.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes, at least 1 (default: the CPUs this process may run on)",
        )

    return parser


def _parse_subset(text):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"bad subset {text!r}: expected comma-separated integers") from None


def _text(value):
    if isinstance(value, list):
        return ("," if all(isinstance(v, int) for v in value) else "  ").join(map(_text, value))
    return f"{value:.6g}" if isinstance(value, float) else json.dumps(value)  # ints; bools as true/false


def format_report(result, form="text"):
    """Report of one series' ``CLSFit`` or ``TestResult``: a title and one field a line (floats ``.6g``, int
    lists joined by ``,``, float lists by two spaces) or, for ``form="json"``, one JSON object; both end
    with the warnings. Any other ``form`` raises ``ValueError``."""
    if type(result) not in _REPORTS or np.ndim(getattr(result, "mu_hat", None)) > 1:
        raise TypeError("format_report takes one series' CLSFit or TestResult; a block result has no report")
    if form not in ("text", "json"):
        raise ValueError(f"report form must be 'text' or 'json', got {form!r}")
    title, names = _REPORTS[type(result)]
    fields = {name: np.asarray(getattr(result, name)).tolist() for name in names}
    fields["warnings"] = list(result.warnings)
    if form == "json":
        return json.dumps(fields, indent=2)
    lines = [title, *(f"  {name}: {_text(fields[name])}" for name in names)]
    warnings = [f"    - {w}" for w in fields["warnings"]]
    return "\n".join(lines + (["  warnings:", *warnings] if warnings else ["  warnings: none"]))


def _cmd_simulate(args):
    specs = [parse_distribution(text) for text in args.dist]
    if len(specs) < 2:
        raise InputError("simulate needs at least two --dist specs (p lags plus innovation)")
    model = GinarModel(counting=tuple(specs[:-1]), innovation=specs[-1])
    config = SimConfig(n=args.length, burn_in=args.burn_in, seed=args.seed)
    series = simulate(model, config)
    write_series(args.output, series)
    print(f"wrote {len(series)} counts to {args.output}")
    return EXIT_OK


def _cmd_fit(args):
    series = read_series(args.input)
    fit = fit_cls(series, args.order)
    print(format_report(fit, args.format))
    return EXIT_OK


def _cmd_test(args):
    series = read_series(args.input)
    null = parse_null(args.null, p=args.order)
    if args.subset is None:
        result = run_test(series, args.order, null, level=args.level)
    else:
        result = run_subvector_test(series, args.order, null, _parse_subset(args.subset), args.level)
    print(format_report(result, args.format))
    return EXIT_OK


def _cmd_mc(args, runner, formatter):
    grid = read_grid_config(args.config)
    table = runner(grid, jobs=args.jobs)
    print(formatter(table))
    if args.output:
        table.to_csv(args.output)
        print(f"wrote rejection table to {args.output}")
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "test": _cmd_test,
    "mc-size": lambda args: _cmd_mc(args, run_size_experiment, format_size_table),
    "mc-power": lambda args: _cmd_mc(args, run_power_experiment, format_power_table),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
