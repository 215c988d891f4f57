"""Learning DPP kernels from labeled diverse subsets.

Build L-ensemble kernels from quality and multiple-kernel similarity
features (:mod:`dpplearn.kernel`), fit them by maximum likelihood or
large-margin estimation (:mod:`dpplearn.learning`), extract subsets by
exhaustive MAP, exact sampling, or MBR decoding (:mod:`dpplearn.inference`),
and reproduce the synthetic benchmark experiments (:mod:`dpplearn.synth`,
:mod:`dpplearn.harness`).
"""

from .errors import (
    DataFormatError,
    DegenerateLabelError,
    NotPositiveSemidefiniteError,
    NumericalError,
    ParameterError,
)
from .kernel import (
    EnsembleKernel,
    GroundSetInstance,
    MarginalKernel,
    ModelParams,
    SimilarityConfig,
    as_subset,
    build_kernel,
    log_probability,
    marginal_kernel_from_L,
    subset_marginal,
    uniform_params,
)
from .losses import PrfScores, precision_recall_fscore
from .learning import (
    FiniteDifferenceReport,
    TrainConfig,
    TrainResult,
    chain_L_to_params,
    finite_difference_check,
    grad_loglik_wrt_L,
    grad_margin_wrt_L,
    instance_objective,
    softmax_margin_term,
    total_objective,
    train,
)
from .inference import (
    InferenceConfig,
    map_exhaustive,
    mbr_decode,
    predict_subset,
    sample_dpp,
    sample_dpp_stack,
)
from .synth import (
    SynthConfig,
    SynthDataset,
    TRUE_SIMILARITY,
    generate_dataset,
    true_params,
)

__version__ = "0.1.0"
