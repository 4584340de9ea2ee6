"""Information-theoretic verifiable computing (Freivalds-style).

The orthogonal mechanism AVCC pairs with coded computing: the master
verifies *each worker's result independently*, in ``O(m + d)`` work per
check instead of the ``O(md/K)`` the worker spent (paper Sec. II-B and
Sec. IV step 3). A wrong result passes a single check with probability
at most ``1/q``; ``t`` independent probes push that to ``q^-t``.

:class:`FreivaldsVerifier` checks matrix–vector products (the paper's
logistic-regression rounds, Eqs. 6–9), one vector or a ``(d, B)``
batch of them per round.
"""

from repro.verify.freivalds import FreivaldsVerifier, MatvecKey, soundness_error

__all__ = [
    "FreivaldsVerifier",
    "MatvecKey",
    "soundness_error",
]
