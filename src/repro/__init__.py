"""AVCC — Adaptive Verifiable Coded Computing (IPDPS 2022 reproduction).

Top-level convenience re-exports. The subpackages are:

``repro.ff``           finite-field substrate (field, codecs' math)
``repro.coding``       the Lagrange coded-computing codec
``repro.verify``       Freivalds-style verifiable computing
``repro.runtime``      simulated and socket master/worker clusters
``repro.core``         the AVCC master, baselines, dynamic coding
``repro.ml``           quantized distributed training applications
``repro.experiments``  regeneration of the paper's tables and figures
``repro.api``          the Session front door (config, name tables, batching)
``repro.serve``        the multi-tenant serving gateway (traffic, deadlines)
"""

from repro.coding import LagrangeCode, SchemeParams
from repro.core import (
    AVCCMaster,
    AdaptivePolicy,
    InsufficientResultsError,
    LCCMaster,
    RoundRecord,
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
    make_profiles,
)
from repro.verify import FreivaldsVerifier

__version__ = "1.0.0"

__all__ = [
    "AVCCMaster",
    "AdaptivePolicy",
    "ConstantAttack",
    "CostModel",
    "DEFAULT_PRIME",
    "DistributedLinearRegressionTrainer",
    "DistributedLogisticTrainer",
    "FreivaldsVerifier",
    "Honest",
    "InsufficientResultsError",
    "IntermittentAttack",
    "LCCMaster",
    "LagrangeCode",
    "LinRegConfig",
    "LogisticConfig",
    "PrimeField",
    "Quantizer",
    "RandomAttack",
    "ReversedValueAttack",
    "RoundRecord",
    "SchemeParams",
    "SilentFailure",
    "SimCluster",
    "SimWorker",
    "UncodedMaster",
    "make_gisette_like",
    "make_linreg_dataset",
    "make_profiles",
    "__version__",
]
