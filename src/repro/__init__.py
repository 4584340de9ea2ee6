"""AVCC — Adaptive Verifiable Coded Computing (IPDPS 2022 reproduction).

Top-level convenience re-exports. The subpackages are:

``repro.ff``           finite-field substrate (field, codecs' math)
``repro.coding``       MDS / Lagrange coded-computing codecs
``repro.verify``       Freivalds-style verifiable computing
``repro.runtime``      simulated (and threaded) master/worker cluster
``repro.core``         the AVCC master, baselines, dynamic coding
``repro.ml``           quantized distributed training applications
``repro.experiments``  regeneration of the paper's tables and figures
``repro.api``          the Session front door (config, registries, batching)
``repro.serve``        the multi-tenant serving gateway (traffic, deadlines)
"""

from repro.coding import LagrangeCode, MDSCode, SchemeParams
from repro.core import (
    AVCCMaster,
    CodedMatmulAVCCMaster,
    AdaptivePolicy,
    GramianAVCCMaster,
    InsufficientResultsError,
    LCCMaster,
    UncodedMaster,
)
from repro.ff import DEFAULT_PRIME, PrimeField
from repro.ml import (
    DistributedLinearRegressionTrainer,
    DistributedLogisticTrainer,
    LinRegConfig,
    LogisticConfig,
    Quantizer,
    make_gisette_like,
    make_linreg_dataset,
)
from repro.runtime import (
    ConstantAttack,
    RandomAttack,
    CostModel,
    Honest,
    IntermittentAttack,
    ReversedValueAttack,
    SilentFailure,
    SimCluster,
    SimWorker,
    TraceRecorder,
    make_profiles,
)
from repro.verify import FreivaldsVerifier, MatrixPolynomialVerifier, TwoStageVerifier

__version__ = "1.0.0"

__all__ = [
    "AVCCMaster",
    "AdaptivePolicy",
    "CodedMatmulAVCCMaster",
    "ConstantAttack",
    "CostModel",
    "DEFAULT_PRIME",
    "DistributedLinearRegressionTrainer",
    "DistributedLogisticTrainer",
    "FreivaldsVerifier",
    "GramianAVCCMaster",
    "Honest",
    "InsufficientResultsError",
    "IntermittentAttack",
    "LCCMaster",
    "LagrangeCode",
    "LinRegConfig",
    "LogisticConfig",
    "MDSCode",
    "MatrixPolynomialVerifier",
    "PrimeField",
    "Quantizer",
    "RandomAttack",
    "ReversedValueAttack",
    "SchemeParams",
    "SilentFailure",
    "SimCluster",
    "SimWorker",
    "TraceRecorder",
    "TwoStageVerifier",
    "UncodedMaster",
    "make_gisette_like",
    "make_linreg_dataset",
    "make_profiles",
    "__version__",
]
