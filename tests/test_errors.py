"""Every check on a caller-supplied value raises ``InputError`` at the check."""

import numpy as np
import pytest

from ginar.cls import build_regressors, fit_cls
from ginar.dispersion_test import NullSpec, run_test
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
    "run_cell_jobs_0": lambda: run_cell(0.3, 0.0, 100, 2, 10, 0.05, cell_seed=31, jobs=0),
    "run_cell_jobs_-1": lambda: run_cell(0.3, 0.0, 100, 2, 10, 0.05, cell_seed=31, jobs=-1),
    "run_cell_replications_-5": lambda: run_cell(0.3, 0.0, 100, -5, 10, 0.05, cell_seed=1, jobs=1),
    "run_cell_replications_0": lambda: run_cell(0.3, 0.0, 100, 0, 10, 0.05, cell_seed=1, jobs=1),
    "run_cell_seed_-1": lambda: run_cell(0.3, 0.0, 100, 2, 10, 0.05, cell_seed=-1, jobs=1),
    "run_cell_seed_1.5": lambda: run_cell(0.3, 0.0, 100, 2, 10, 0.05, cell_seed=1.5, jobs=1),
    # the INAR(1) fit needs n - 1 >= 3 rows, so at n = 3 every replication would fail
    "run_cell_n_3": lambda: run_cell(0.3, 0.0, 3, 5, 10, 0.05, cell_seed=19, jobs=1),
    # a bool is not a count: True would pass as 1
    "run_cell_jobs_True": lambda: run_cell(0.3, 0.0, 100, 2, 10, 0.05, cell_seed=31, jobs=True),
    "SimConfig_n_True": lambda: SimConfig(n=True),
    "ExperimentGrid_replications_True": lambda: ExperimentGrid(
        pi_values=(0.3,), xi_values=(0.0,), n_values=(100,), replications=True
    ),
    "run_power_experiment": lambda: run_power_experiment(NULL_GRID, jobs=1),
    "build_regressors": lambda: build_regressors([1, -2, 3], 1),
    # a fractional or float order used to escape as TypeError
    "fit_cls_order_1.5": lambda: fit_cls(list(range(20)), 1.5),
    "run_test_order_1.0": lambda: run_test(list(range(20)), 1.0, NullSpec((BernoulliKappa(), BernoulliKappa()))),
    # bool, complex and string series are not counts: they were fitted as 0/1, fitted on their real part
    # after a ComplexWarning, or escaped as numpy's UFuncTypeError
    "build_regressors_bool": lambda: build_regressors(np.array([True, False, True, True, False]), 1),
    "build_regressors_complex": lambda: build_regressors(np.arange(5) + 0j, 1),
    "fit_cls_strings": lambda: fit_cls(["1", "2", "0", "3", "1"], 1),
    # a level given as a string escaped as TypeError
    "run_test_level_str": lambda: run_test(list(range(20)), 1, NullSpec((BernoulliKappa(), BernoulliKappa())), "0.05"),
    "run_cell_level_str": lambda: run_cell(0.3, 0.0, 100, 2, 10, "0.05", cell_seed=1, jobs=1),
}


@pytest.mark.parametrize("build", INVALID.values(), ids=INVALID.keys())
def test_invalid_value_raises_input_error(build):
    with pytest.raises(InputError):
        build()


def test_input_error_is_a_value_error():
    assert issubclass(InputError, GinarError)
    assert issubclass(InputError, ValueError)
