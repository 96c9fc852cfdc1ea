"""Mutual-information analysis of sliced channels.

One spectral engine computes the per-slice MI of the canonical chain plan in
both modes, for a batch of channels at once: it takes zero-padded taps of
shape (..., L), one channel per leading index, and returns the root MI and
the per-level positive and negative MI as arrays; the parent of a level is
the root or the positive child of the level above. At every split
level it takes the parent's per-bin log-gain vector
``v = log2(1 + rho * |bins|^2)`` and credits the even bins to the positive
child and the odd bins to the negative child:

* ``exact-fold``: the parent of level k is the single N-point spectrum of the
  taps strided by 2^(k-1). This is the even/odd bin law of the generator
  fold, so MI is conserved at every split up to round-off;
* ``literal-triangular``: each half-size child is rebuilt from the raw tap
  sequence with strictly triangular blocks, so taps that no longer fit in a
  slice of size s are dropped. ``low + wrap`` is then the circulant of
  ``taps[:s]`` and ``low - wrap`` its skew-circulant, whose eigenvalues are
  the even and the odd bins of the 2s-point FFT of ``taps[:s]``. The modes
  coincide while the channel fits in the slice and reproduce non-uniform
  splitting once it does not.

``chain_mi`` is the batched entry point and :class:`ChainMi` the one result
type: the scenarios read per-slice MI, residuals and the conservation check
straight from its arrays. ``split_report`` is its case for one (L,) channel,
a ChainMi of batch shape (). Every row of a batch is bit-identical to the
same channel run on its own. No dense matrix is built on this path.
``mi_logdet`` (exact log-det on a dense matrix) and the generator fold of
``channel`` are the oracles the tests hold the engine to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    CirculantChannel,
    check_taps,
    circular_complement,
    lower_triangular_toeplitz,
    split_coupling,
)
from .sliceplan import check_plan
from .spectral import logdet2_psd

__all__ = [
    "SnrSpec",
    "ChainMi",
    "MODE_EXACT",
    "MODE_LITERAL",
    "mi_logdet",
    "mi_fast",
    "chain_mi",
    "split_report",
    "uniformity_ratio",
]

MODE_EXACT = "exact-fold"
MODE_LITERAL = "literal-triangular"
_MODES = (MODE_EXACT, MODE_LITERAL)

# Dense log-det evaluations stay at oracle scale.
_LOGDET_CAP = 512


@dataclass(frozen=True)
class SnrSpec:
    """Linear signal-to-noise ratio rho = P / sigma^2 under uniform power."""

    rho: float

    def __post_init__(self):
        if not np.isfinite(self.rho) or self.rho < 0:
            raise ValueError(f"rho must be finite and non-negative, got {self.rho}")

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrSpec":
        return cls(10.0 ** (snr_db / 10.0))


def _rho(snr) -> float:
    rho = float(snr.rho) if isinstance(snr, SnrSpec) else float(snr)
    if not np.isfinite(rho) or rho < 0:
        raise ValueError(f"rho must be finite and non-negative, got {rho}")
    return rho


def mi_logdet(channel, snr) -> float:
    """Exact mutual information in bits: log2 det(I + rho * H H^H).

    ``channel`` is a CirculantChannel or a dense square matrix; oracle scale
    only (size <= 512).
    """
    h = channel.dense() if isinstance(channel, CirculantChannel) else np.asarray(channel, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square channel matrix, got shape {h.shape}")
    n = h.shape[0]
    if n > _LOGDET_CAP:
        raise ValueError(f"dense log-det MI is capped at size {_LOGDET_CAP}, got {n}")
    rho = _rho(snr)
    gram = np.eye(n, dtype=np.complex128) + rho * (h @ h.conj().T)
    return logdet2_psd(gram)


def _log_gains(bins: np.ndarray, rho: float) -> np.ndarray:
    """Per-bin mutual information in bits, log2(1 + rho * |b|^2), of diagonal gains."""
    return np.log2(1.0 + rho * np.abs(bins) ** 2)


def mi_fast(generator, snr) -> float:
    """Per-bin mutual information of a circulant channel in bits.

    Sums log2(1 + rho * |G_b|^2) over the unnormalized frequency bins of the
    generator; exact for circulant channels because the bins are the channel
    eigenvalues.
    """
    g = np.asarray(generator, dtype=np.complex128)
    if g.ndim != 1:
        raise ValueError("generator must be one-dimensional")
    return float(np.sum(_log_gains(np.fft.fft(g), _rho(snr))))


def uniformity_ratio(taps, frame_size: int) -> float:
    """Off-diagonal coupling of one split relative to its diagonal Gram term.

    Near zero, the two branches of a split carry almost equal MI; the ratio
    grows with the channel length. Requires (L,) taps with L <= N/4, which
    :func:`channel.split_coupling` checks.
    """
    _, _, coupling = split_coupling(taps, frame_size)
    quarter = frame_size // 4
    low = lower_triangular_toeplitz(taps, quarter)
    wrap = circular_complement(taps, quarter)
    diag_norm = float(np.linalg.norm(low @ low.conj().T + wrap @ wrap.conj().T, 2))
    if diag_norm == 0.0:
        return 0.0
    return coupling / diag_norm


@dataclass(frozen=True)
class ChainMi:
    """Chain-plan MI of a batch of channels with batch shape B.

    ``total`` (B) is the root MI; ``positive`` and ``negative``
    (B + (depth,)) hold the children of the split of level k at index
    k - 1, and :attr:`parent` derives the slice it splits from them.
    """

    total: np.ndarray
    positive: np.ndarray
    negative: np.ndarray

    @property
    def parent(self) -> np.ndarray:
        """MI of the slice that level k splits, B + (depth,): the root for
        level 1, the positive child of level k - 1 below that."""
        return np.concatenate([self.total[..., np.newaxis], self.positive], axis=-1)[..., :-1]

    def residual(self) -> np.ndarray:
        """Conservation residual parent - (child+ + child-) of every level,
        B + (depth,)."""
        return self.parent - (self.positive + self.negative)

    def max_residual_rel(self) -> float:
        """Largest |:meth:`residual`| / parent over every channel and level
        (0 at depth 0); a level with a parent MI of 0 counts its absolute
        residual."""
        parent = self.parent
        res = self.positive + self.negative
        np.abs(np.subtract(parent, res, out=res), out=res)
        np.divide(res, parent, out=res, where=parent > 0)
        return float(res.max(initial=0.0))

    def slice_mi(self) -> np.ndarray:
        """MI of every slice of the chain plan, B + (depth + 1,), in frame
        order: the deepest positive slice, then the negative slices from the
        deepest level up."""
        if self.positive.shape[-1] == 0:
            return self.total[..., np.newaxis]
        return np.concatenate([self.positive[..., -1:], self.negative[..., ::-1]], axis=-1)


def _chain_levels(taps: np.ndarray, size: int, depth: int, rho: float, mode: str) -> ChainMi:
    """Root MI and the split of each level of the chain, from the taps' spectra.

    ``taps`` has shape (..., L) with L <= size. Level k splits the positive
    slice of the level above into two slices of size ``size >> k``; its
    positive slice is the parent of level k + 1.
    """
    spectrum = _log_gains(np.fft.fft(taps, size), rho)
    total = spectrum.sum(axis=-1)
    positive, negative = (np.empty(total.shape + (depth,)) for _ in range(2))
    for level in range(1, depth + 1):
        # Even bins go to the positive child and odd bins to the negative one.
        # Exact: the parent's bins are the frame spectrum's residue class 0
        # mod 2^(k-1). Literal: the even bins of the 2s-point FFT of taps[:s]
        # are the circulant's eigenvalues, the odd bins the skew-circulant's.
        if mode == MODE_EXACT:
            gains = spectrum[..., :: 1 << (level - 1)]
        else:
            half = size >> level
            gains = _log_gains(np.fft.fft(taps[..., :half], 2 * half), rho)
        positive[..., level - 1] = gains[..., 0::2].sum(axis=-1)
        negative[..., level - 1] = gains[..., 1::2].sum(axis=-1)
    return ChainMi(total, positive, negative)


def chain_mi(taps, frame_size: int, depth: int, snr, mode: str = MODE_EXACT) -> ChainMi:
    """Chain-plan MI of one channel per leading index of ``taps`` (..., L).

    Rows are zero-padded tap sequences, such as the (R, L) taps of
    ``channel.draw_taps``, checked by ``channel.check_taps``; padding does
    not change the result. Each row is bit-identical to a call on that row
    alone.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {_MODES}")
    check_plan(frame_size, depth)
    return _chain_levels(check_taps(taps, frame_size), frame_size, depth, _rho(snr), mode)


def split_report(taps, frame_size: int, depth: int, snr, mode: str = MODE_EXACT) -> ChainMi:
    """:func:`chain_mi` of one channel realization given as (L,) taps: a
    :class:`ChainMi` of batch shape ()."""
    return chain_mi(check_taps(taps, frame_size, ()), frame_size, depth, snr, mode)
