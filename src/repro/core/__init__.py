"""The paper's contribution: AVCC and the baselines it is compared to.

All masters expose the same *coded matrix–vector service*:

* ``setup(x_field)`` — partition/pad/encode the dataset, ship shares,
  generate verification keys (where applicable);
* ``forward_round(w)`` — compute ``z = X·w`` distributedly;
* ``backward_round(e)`` — compute ``g = X^T·e`` distributedly;
* ``end_iteration()`` — bookkeeping + (AVCC only) dynamic re-coding.

The matvec implementations:

=============================  ==================================================
:class:`AVCCMaster`            verify-per-worker, decode from the fastest K
                               verified results, adapt the code at runtime
                               (Sec. IV)
``AVCCMaster(adaptive=False)`` Static VCC: AVCC minus dynamic coding (the
                               Fig. 5 ablation; registry name ``"static_vcc"``)
:class:`LCCMaster`             wait for ``N - S`` results, Reed–Solomon error
                               correction, ``2M`` worker overhead (Sec. II)
:class:`UncodedMaster`         no redundancy, ``K`` workers, waits for all,
                               ingests Byzantine results silently (Sec. V)
=============================  ==================================================

Every master is its ``setup``, a collect policy and
a decode step on the one round path of
:class:`~repro.core.base.MatvecMasterBase`, which plans, dispatches,
collects, refuses below the recovery threshold and finishes each round
(record, audit commitment, clock) the same way for all of them.
"""

from repro.core.avcc import AVCCMaster
from repro.core.dynamic import AdaptivePolicy, EncodingCache, RecodeDecision
from repro.core.lcc_master import LCCMaster
from repro.core.results import (
    AdaptationOutcome,
    InsufficientResultsError,
    RoundOutcome,
    RoundRecord,
)
from repro.core.uncoded import UncodedMaster

__all__ = [
    "AVCCMaster",
    "AdaptationOutcome",
    "AdaptivePolicy",
    "EncodingCache",
    "InsufficientResultsError",
    "LCCMaster",
    "RecodeDecision",
    "RoundOutcome",
    "RoundRecord",
    "UncodedMaster",
]
