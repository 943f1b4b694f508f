"""Every check on a caller-supplied value raises ``InputError`` at the check."""

import pytest

from ginar.cls import build_regressors
from ginar.dispersion_test import NullSpec
from ginar.distributions import (
    BerG,
    Bernoulli,
    BernoulliKappa,
    Geometric,
    NegBinomial,
    NegBinomialKappa,
    Poisson,
    ZJExtended,
    parse_kappa,
)
from ginar.errors import GinarError, InputError
from ginar.montecarlo import ExperimentGrid, run_cell, run_power_experiment
from ginar.simulate import GinarModel, SimConfig

NULL_GRID = ExperimentGrid(pi_values=(0.3,), xi_values=(0.0,), n_values=(100,), replications=2)

INVALID = {
    "Bernoulli": lambda: Bernoulli(1.5),
    "Poisson": lambda: Poisson(-1.0),
    "NegBinomial": lambda: NegBinomial(0.0, 0.5),
    "Geometric": lambda: Geometric(0.0),
    "ZJExtended": lambda: ZJExtended(0.5, 1.0),
    "BerG": lambda: BerG(0.2, 0.0),
    # the Bernoulli and Poisson kappa families take no parameters
    "BernoulliKappa": lambda: parse_kappa("bernoulli(r=1)"),
    "PoissonKappa": lambda: parse_kappa("poisson(r=1)"),
    "NegBinomialKappa": lambda: NegBinomialKappa(0.0),
    "GinarModel": lambda: GinarModel(counting=(Bernoulli(0.6), Bernoulli(0.5)), innovation=Poisson(1.0)),
    "SimConfig": lambda: SimConfig(n=0),
    "NullSpec": lambda: NullSpec((BernoulliKappa(),)),
    "ExperimentGrid": lambda: ExperimentGrid(pi_values=(1.2,), xi_values=(0.0,), n_values=(100,)),
    "run_cell": lambda: run_cell(0.7, 0.4, 100, 5, 10, 0.05, cell_seed=23, jobs=1),
    "run_power_experiment": lambda: run_power_experiment(NULL_GRID, jobs=1),
    "build_regressors": lambda: build_regressors([1, -2, 3], 1),
}


@pytest.mark.parametrize("build", INVALID.values(), ids=INVALID.keys())
def test_invalid_value_raises_input_error(build):
    with pytest.raises(InputError):
        build()


def test_input_error_is_a_value_error():
    assert issubclass(InputError, GinarError)
    assert issubclass(InputError, ValueError)
