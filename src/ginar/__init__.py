"""Generalized INAR(p) count time series: simulation, CLS estimation, and a
chi-square test of hypothesized mean-variance relationships for counting
sequences and innovations."""

from .distributions import (
    BerG,
    Bernoulli,
    BernoulliKappa,
    CountDistribution,
    Geometric,
    KappaFamily,
    NegBinomial,
    NegBinomialKappa,
    Poisson,
    PoissonKappa,
    ZJExtended,
    parse_distribution,
    parse_kappa,
)
from .errors import (
    EstimationError,
    GinarError,
    InputError,
    NumericalError,
    SingularMatrixError,
    TestError,
)
from .numerics import chi_square_quantile, chi_square_survival, invert
from .simulate import (
    GinarModel,
    SimConfig,
    check_stationarity,
    read_series,
    sample_path,
    simulate,
    write_series,
)
from .cls import (
    CLSFit,
    MomentMatrices,
    assemble_V_cls,
    build_regressors,
    estimate_moment_matrices,
    fit_cls,
)
from .dispersion_test import (
    NullSpec,
    TestResult,
    assemble_W,
    build_K,
    parse_null,
    run_subvector_test,
    run_test,
)
from .montecarlo import (
    ExperimentGrid,
    RejectionTable,
    parse_grid_config,
    read_grid_config,
    run_cell,
    run_power_experiment,
    run_size_experiment,
)

__version__ = "0.2.0"
