"""schattenlab: singular-value log-gas densities of Schatten unit balls,
their exact moment identities, and the thin-shell / negative-correlation
statistics, all with verifiable numerics."""

__version__ = "0.1.0"

from .ensembles import (  # noqa: F401
    BETA,
    EnsembleParams,
    GasMapping,
    SchattenSpec,
    ensemble_of,
)
from .density import log_f, log_f_p  # noqa: F401
from .exact import closed_form_moment  # noqa: F401
from .gammafn import GammaRatio, gamma_gap, gamma_ratio  # noqa: F401
from .matrixlab import (  # noqa: F401
    EntryIdentityTerms,
    MatrixSample,
    entry_identity_terms,
    random_matrix,
)
from .moments import (  # noqa: F401
    MomentEstimate,
    OracleFailure,
    SigmaEstimate,
    VarMpEstimate,
    estimate_moment,
    quadrature_moment,
    quadrature_moments,
    sigma_pipeline,
    var_mp_pipeline,
)
from .samplers import (  # noqa: F401
    SampleBatch,
    SamplerUnavailable,
    exact_p2_sample,
    gas_sample,
    matrix_hit_and_run,
    mcmc_sample,
)
from .verify import CheckReport, SUITES, run_suite  # noqa: F401
