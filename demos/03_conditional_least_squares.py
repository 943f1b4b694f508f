#!/usr/bin/env python3
"""Conditional least squares estimation and its sandwich covariance.

Fits both CLS stages on simulated data, shows the estimates converging to
the true parameters as the series grows, and reads standard errors off the
assembled joint covariance of (mu_hat, theta_hat).
"""

import numpy as np

from ginar import (
    Bernoulli,
    GinarModel,
    Poisson,
    SimConfig,
    estimate_moment_matrices,
    fit_cls,
    simulate,
)
from ginar.cli import format_report

TRUTH = {"mu_1": 0.3, "mu_eps": 1.0, "sigma2_1": 0.21, "sigma2_eps": 1.0}


def main():
    model = GinarModel(counting=(Bernoulli(0.3),), innovation=Poisson(1.0))

    print("true parameters:", ", ".join(f"{k}={v}" for k, v in TRUTH.items()))
    print()
    print(f"{'n':>7}  {'mu_1':>7} {'mu_eps':>7} {'s2_1':>7} {'s2_eps':>7}")
    for n in (200, 2000, 20_000, 200_000):
        series = simulate(model, SimConfig(n=n, burn_in=1000, seed=5))
        fit = fit_cls(series, 1)
        mu, th = fit.mu_hat, fit.theta_hat
        print(f"{n:>7}  {mu[0]:>7.4f} {mu[1]:>7.4f} {th[0]:>7.4f} {th[1]:>7.4f}")

    print()
    series = simulate(model, SimConfig(n=5000, burn_in=1000, seed=6))
    fit = fit_cls(series, 1)
    print(format_report(fit))

    moments = estimate_moment_matrices(fit)
    se = np.sqrt(np.diag(moments.v) / fit.n_eff)
    print()
    print("asymptotic standard errors from the assembled covariance:")
    for label, est, s in zip(TRUTH, np.concatenate([fit.mu_hat, fit.theta_hat]), se):
        print(f"  {label:<10} {est:8.4f}  (se {s:.4f}, truth {TRUTH[label]})")

    print()
    print("the mean-stage blocks of the moment matrices:")
    print("  Jm (mean of Y Y'):")
    for row in moments.jm:
        print("   ", "  ".join(f"{x:8.4f}" for x in row))
    print("  v11 block of V (covariance scale of mu_hat):")
    for row in moments.v11:
        print("   ", "  ".join(f"{x:8.4f}" for x in row))


if __name__ == "__main__":
    main()
