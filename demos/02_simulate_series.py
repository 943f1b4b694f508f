#!/usr/bin/env python3
"""Simulating generalized INAR(p) paths.

Shows the thinning recursion in action: a first-order process with binomial
thinning, its stationary mean and lag-1 autocorrelation against theory, a
second-order variant, and the CSV round trip used by the command line
front end.
"""

import tempfile
from pathlib import Path

import numpy as np

from ginar import (
    BerG,
    Bernoulli,
    GinarModel,
    Poisson,
    SimConfig,
    check_stationarity,
    read_series,
    simulate,
    write_series,
)


def acf1(series):
    z = series.astype(float) - series.mean()
    return float(np.dot(z[1:], z[:-1]) / np.dot(z, z))


def main():
    rng = np.random.default_rng(7)

    print("one thinning step: Bernoulli(0.4).sample_sum(10, rng) sums ten coin flips")
    draws = [Bernoulli(0.4).sample_sum(10, rng) for _ in range(8)]
    print(f"  draws: {draws}  (Binomial(10, 0.4) in law, mean 4)")

    print()
    print("INAR(1), Bernoulli(0.3) thinning, Poisson(1) innovation, n=100000:")
    model = GinarModel(counting=(Bernoulli(0.3),), innovation=Poisson(1.0))
    series = simulate(model, SimConfig(n=100_000, burn_in=1000, seed=11))
    print(f"  sample mean   {series.mean():.4f}   theory mu_eps/(1-mu_1) = {1.0 / 0.7:.4f}")
    print(f"  sample lag-1  {acf1(series):.4f}   theory mu_1            = 0.3000")

    print()
    print("an overdispersed alternative: BerG(0.2, 0.3) thinning")
    alt = GinarModel(counting=(BerG(0.2, 0.3),), innovation=Poisson(1.0))
    alt_series = simulate(alt, SimConfig(n=100_000, burn_in=1000, seed=11))
    print(f"  sample mean {alt_series.mean():.4f}, sample variance {alt_series.var():.4f}")

    print()
    print("second order: lags (0.3, 0.2), stationary mean 1/(1-0.5) = 2")
    two = GinarModel(counting=(Bernoulli(0.3), Bernoulli(0.2)), innovation=Poisson(1.0))
    series2 = simulate(two, SimConfig(n=50_000, burn_in=1000, seed=13))
    print(f"  sample mean {series2.mean():.4f}")

    print()
    print("stationarity guard: means must be nonnegative and sum below one")
    for means in ([0.3], [0.5, 0.5], [0.6, 0.3]):
        print(f"  check_stationarity({means}) = {check_stationarity(means)}")

    print()
    print("determinism: identical (model, config) inputs give identical paths")
    again = simulate(model, SimConfig(n=100_000, burn_in=1000, seed=11))
    print(f"  bitwise equal: {np.array_equal(series, again)}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_series(path, series[:10])
        back = read_series(path)
        print()
        print(f"CSV round trip through {path.name}: {np.array_equal(back, series[:10])}")
        print("  file starts with:", ", ".join(path.read_text().split()[:4]))


if __name__ == "__main__":
    main()
