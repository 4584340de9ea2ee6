"""Dynamic coding: the adaptation policy (Eqs. 16–19) and the offline
pre-encoded configuration cache.

The policy watches each iteration's observed failures and answers one
question: *can the current code still hide the observed stragglers, or
must the master shrink the code?* Formally (MDS mode, Eq. 16)::

    A_t = N_t - M_t - S_t - K_t - T_t

``A_t >= 0``: drop the detected Byzantine workers, keep ``K`` — their
shares were redundancy we can spare. ``A_t < 0``: the remaining fleet
cannot cover ``K_t`` any more; shrink to ``K_{t+1} = K_t + A_t``
(Eq. 17) and re-encode. Lagrange mode uses the degree-weighted slack of
Eq. 18 and shrinks by ``floor(A_t / deg f)`` (Eq. 19).

Re-encoding cost: the paper pre-generates encoded datasets and keys for
alternative configurations offline ("in the preprocessing phase before
the application starts", Sec. IV-B step 5), so the runtime cost of a
switch is *shipping the new shares*, which Fig. 5 shows as a one-time
~41 s bump. :class:`EncodingCache` reproduces exactly that split: CPU
work is done off the clock, transfer is charged on it.

What a switch costs here, in wall time (``train_logreg_tcp``'s
1800 x 2000 matrix at ``(12, 9)``, 2-vCPU box, twelve loopback daemons):
building one configuration is ~0.1 s — two share stacks of 36.6 MiB
each allocated once, the padded dataset written into their first ``K``
shares, arithmetic for the ``N - K`` parity shares only, one Freivalds
key per share — and peaks at 1.0x the bytes of the shares it returns;
installing it is ~0.1–0.16 s of sockets (the shares travel as 4-byte
residues). The cache keeps the configuration — code, keys, geometry —
but not its shares: the installer ships them and lets them go, and a
later install of the same ``(n, k)`` re-encodes them from the dataset,
bit for bit. A *cold* re-code — a worker released and restarted, the
roster passing through ``(11, 9)`` and back to ``(12, 9)``, neither in
the cache — is ~1 s end to end: two builds on pages never touched
before, on top of what a *warm* one pays, which finds both
configurations cached, skips code construction and key generation,
re-encodes and ships twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coding.lcc import LagrangeCode
from repro.core.base import encode_padded_rows
from repro.ff.field import PrimeField
from repro.verify.freivalds import FreivaldsVerifier, MatvecKey

__all__ = ["AdaptivePolicy", "RecodeDecision", "EncodedConfig", "EncodingCache"]


@dataclass(frozen=True)
class RecodeDecision:
    """Outcome of one policy evaluation."""

    new_n: int
    new_k: int
    slack: int          # A_t, the adaptation margin
    reencode: bool      # True when K changed (shares must be re-shipped)


class AdaptivePolicy:
    """Implements Eqs. (16)–(19).

    Parameters
    ----------
    mode:
        ``"mds"`` for the linear/MDS accounting (Eqs. 16–17) or
        ``"lagrange"`` for the degree-weighted one (Eqs. 18–19).
    deg_f:
        Polynomial degree (only used in ``"lagrange"`` mode).
    min_k:
        Lower bound on the code dimension; shrinking below it raises.
    """

    def __init__(self, mode: str = "mds", deg_f: int = 1, min_k: int = 1):
        if mode not in ("mds", "lagrange"):
            raise ValueError(f"unknown policy mode {mode!r}")
        if deg_f < 1 or min_k < 1:
            raise ValueError("deg_f and min_k must be >= 1")
        self.mode = mode
        self.deg_f = deg_f
        self.min_k = min_k

    def slack(self, n_t: int, k_t: int, m_t: int, s_t: int, t_t: int = 0) -> int:
        """The adaptation margin ``A_t`` (Eq. 16 or Eq. 18)."""
        if min(n_t, k_t) < 1 or min(m_t, s_t, t_t) < 0:
            raise ValueError("invalid observation")
        if self.mode == "mds":
            return n_t - m_t - s_t - k_t - t_t
        return n_t - m_t - s_t - (k_t + t_t - 1) * self.deg_f

    def decide(
        self, n_t: int, k_t: int, m_t: int, s_t: int, t_t: int = 0
    ) -> RecodeDecision:
        """Next-iteration scheme ``(N_{t+1}, K_{t+1})`` (Eq. 17 / 19)."""
        a_t = self.slack(n_t, k_t, m_t, s_t, t_t)
        new_n = n_t - m_t
        if a_t >= 0:
            return RecodeDecision(new_n=new_n, new_k=k_t, slack=a_t, reencode=False)
        if self.mode == "mds":
            new_k = k_t + a_t
        else:
            new_k = k_t + a_t // self.deg_f  # floor division (Eq. 19)
        if new_k < self.min_k:
            raise ValueError(
                f"observed failures (M_t={m_t}, S_t={s_t}) leave no feasible "
                f"code: K would shrink to {new_k} < {self.min_k}"
            )
        return RecodeDecision(new_n=new_n, new_k=new_k, slack=a_t, reencode=True)


@dataclass(frozen=True)
class EncodedConfig:
    """One pre-encoded deployment at a given ``(n, k)``: the code, the
    verification keys of both matrix families and their geometry — not
    the shares, which :meth:`EncodingCache.shares` hands out fresh for
    an installer to ship and drop."""

    n: int
    k: int
    t: int
    code: LagrangeCode
    fwd_keys: tuple[MatvecKey, ...]
    bwd_keys: tuple[MatvecKey, ...]
    m: int
    d: int
    m_pad: int
    d_pad: int
    #: the bit generator's state the privacy padding was first drawn
    #: from (``t > 0``), so that a re-encode draws the same padding;
    #: ``None`` when ``t = 0``
    padding_state: dict | None

    def share_elements_per_worker(self) -> int:
        """Field elements each worker stores (drives re-ship cost): one
        ``(m_pad/k, d)`` forward and one ``(d_pad/k, m_pad)`` backward
        share."""
        return (self.m_pad * self.d + self.d_pad * self.m_pad) // self.k


class EncodingCache:
    """Offline factory for :class:`EncodedConfig` objects, memoized by
    ``(n, k)``, and the one source of their shares.

    All CPU work here (partitioning, Lagrange encoding, Freivalds key
    generation) is considered preprocessing and never charged to the
    simulated clock — matching the paper's amortization argument
    (Sec. VI: "the cost of encoding and key generation are one-time
    costs").

    The cache keeps configurations, not shares. :meth:`shares` returns
    a configuration with its two share stacks: built together on first
    use — the same draws from ``rng`` in the same order, padding then
    keys — and re-encoded from the dataset on every later call for the
    same ``(n, k)``, the privacy padding replayed from the generator
    state the configuration saved, so the stacks are the first ones bit
    for bit. A re-encode draws nothing from ``rng`` and builds no keys.
    The caller ships the stacks and drops them; what stays is the
    dataset, the codes and the keys (at the paper's GISETTE scale,
    6000 x 5000 at ``(12, 9)``, ~640 MB of ``int64`` shares per
    configuration not held beside a 240 MB dataset).

    ``x_field`` is validated, not copied: reduced ``int64`` residues
    are kept by reference (anything else is reduced into a copy, floats
    raise), and every share — the first install's and each re-encode —
    is encoded from it. What the cache holds, :attr:`x`, is a
    ``writeable=False`` view, so nothing reached through the cache or
    the master that owns it can write into the dataset (NumPy raises
    ``ValueError``). The caller's own handle stays writable — a view
    cannot revoke that. An array mutated after ``setup`` re-encodes
    into shares that disagree with the keys made from the original
    ones: Freivalds rejects their results and the master refuses the
    round (``InsufficientResultsError``) instead of decoding wrong
    bytes. A caller that goes on writing hands over a copy, as
    ``Session.load`` does (its reducing copy is the session's own).

    The shares never alias the dataset: each family's
    ``(n, rows, cols)`` stack is allocated once per encode, the
    zero-padded dataset (or its transpose) is written into the first
    ``k`` shares and the code encodes around it
    (:func:`~repro.core.base.encode_padded_rows`).
    """

    def __init__(
        self,
        field: PrimeField,
        x_field: np.ndarray,
        t: int = 0,
        probes: int = 1,
        rng: np.random.Generator | None = None,
        build_keys: bool = True,
    ):
        x_field = field.ensure_reduced(x_field)
        if x_field.ndim != 2:
            raise ValueError(f"dataset must be a matrix, got shape {x_field.shape}")
        self.field = field
        self.x = x_field.view()
        self.x.flags.writeable = False
        self.t = int(t)
        self.probes = int(probes)
        self.rng = rng or np.random.default_rng(0)
        self.build_keys = build_keys
        self._configs: dict[tuple[int, int], EncodedConfig] = {}

    def get(self, n: int, k: int) -> EncodedConfig:
        """The configuration ``(n, k)``, built if it is not cached yet
        (its shares are let go at once)."""
        key = (int(n), int(k))
        if key not in self._configs:
            self._build(*key)
        return self._configs[key]

    def prebuild(self, configs) -> None:
        """Warm the cache for a list of ``(n, k)`` pairs."""
        for n, k in configs:
            self.get(n, k)

    def shares(self, n: int, k: int) -> tuple[EncodedConfig, np.ndarray, np.ndarray]:
        """The configuration ``(n, k)`` with its ``fwd`` and ``bwd``
        share stacks, which the caller owns: built with it on first
        use, re-encoded from :attr:`x` afterwards."""
        key = (int(n), int(k))
        cfg = self._configs.get(key)
        if cfg is None:
            return self._build(*key)
        rng = None
        if cfg.padding_state is not None:
            rng = np.random.Generator(type(self.rng.bit_generator)())
            rng.bit_generator.state = cfg.padding_state
        return (cfg, *self._encode(cfg.code, rng))

    def _encode(
        self, code: LagrangeCode, rng: np.random.Generator | None
    ) -> tuple[np.ndarray, np.ndarray]:
        m, d = self.x.shape
        fwd = encode_padded_rows(code, self.x, d, rng)
        bwd = encode_padded_rows(code, self.x.T, m + (-m) % code.k, rng)
        return fwd, bwd

    def _build(self, n: int, k: int) -> tuple[EncodedConfig, np.ndarray, np.ndarray]:
        m, d = self.x.shape
        m_pad, d_pad = m + (-m) % k, d + (-d) % k

        code = LagrangeCode(self.field, n=n, k=k, t=self.t)
        padding_state = self.rng.bit_generator.state if self.t else None
        fwd, bwd = self._encode(code, self.rng if self.t else None)

        if self.build_keys:
            verifier = FreivaldsVerifier(self.field, probes=self.probes)
            fwd_keys = tuple(verifier.keygen(fwd, self.rng))
            bwd_keys = tuple(verifier.keygen(bwd, self.rng))
        else:
            fwd_keys = ()
            bwd_keys = ()

        cfg = self._configs[(n, k)] = EncodedConfig(
            n=n,
            k=k,
            t=self.t,
            code=code,
            fwd_keys=fwd_keys,
            bwd_keys=bwd_keys,
            m=m,
            d=d,
            m_pad=m_pad,
            d_pad=d_pad,
            padding_state=padding_state,
        )
        return cfg, fwd, bwd
