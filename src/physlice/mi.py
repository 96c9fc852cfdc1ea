"""Mutual-information analysis of sliced channels.

A channel is its taps, an SNR is its linear rho, noiseless is ``inf``: the
public functions take zero-padded taps and rho as a float. MI needs noise,
so they accept a finite rho >= 0 only, and they raise ValueError where
rho * |gain|^2 overflows a float.

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

The engine is one private kernel, ``_chain_levels_into``: it writes the root
and per-level MI into the arrays of a :class:`ChainMi` it is handed, whose
shape gives the depth, and builds every spectrum and log-gain vector in two
scratch buffers it is handed too, one complex and one float of the taps'
batch shape + (N,), whose last axis gives N. In literal mode, level 1 is the
root spectrum itself while the taps fit in N/2 samples, and levels 2 ..
depth take their 2s-point FFTs in blocks laid one after another in the
scratch, so one log-gain pass covers them all. Each N-point FFT is
``channel._spectrum_into`` in the complex scratch. The Monte Carlo scenarios
make those buffers (``_scratch``) once and have the kernel write each chunk
of runs into their kept arrays. ``chain_mi`` is the validated public entry
point: it checks its inputs, makes the result and scratch arrays for one
call and runs the kernel. :class:`ChainMi` is the one result type: the
scenarios read per-slice MI, residuals and the conservation check straight
from its arrays. ``split_report`` is its case for one (L,) channel, a
ChainMi of batch shape (). Every row of a batch is bit-identical to the same
channel run on its own. No dense matrix is built on this path; the tests
hold the engine to a dense log-det oracle and to the generator fold of
``channel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    _finite, _gram_norm, _spectrum_into, check_taps, circular_complement, lower_triangular_toeplitz, split_coupling
)
from .sliceplan import check_plan

__all__ = [
    "ChainMi",
    "MODE_EXACT",
    "MODE_LITERAL",
    "mi_fast",
    "chain_mi",
    "split_report",
    "uniformity_ratio",
]

MODE_EXACT = "exact-fold"
MODE_LITERAL = "literal-triangular"
_MODES = (MODE_EXACT, MODE_LITERAL)

# The dtypes of the engine's scratch, ``bins`` and ``gains`` of
# ``_chain_levels_into``, and their bytes per frame sample.
_SCRATCH_DTYPES = (np.complex128, np.float64)
_SCRATCH_SAMPLE_BYTES = sum(np.dtype(dtype).itemsize for dtype in _SCRATCH_DTYPES)


def _check_rho(rho) -> float:
    """The linear SNR ``rho`` as a float, checked finite and non-negative."""
    rho = float(rho)
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and non-negative, got {rho}")
    return rho


# For finite taps and rho, an MI is not finite only where rho * |gain|^2
# overflows; the scenarios' 3000 dB limit prevents it.
_MI_OVERFLOW = "rho * |gain|^2 overflows a float: the taps or rho are too large for a finite MI"


def _log_gains_into(bins: np.ndarray, rho: float, out: np.ndarray) -> np.ndarray:
    """Per-bin mutual information in bits, log2(1 + rho * |b|^2), of the
    diagonal gains ``bins``, built in place in the float array ``out`` of
    the same shape, which it returns."""
    np.abs(bins, out=out)
    np.square(out, out=out)
    np.multiply(out, rho, out=out)
    np.add(out, 1.0, out=out)
    return np.log2(out, out=out)


def mi_fast(generator, rho: float) -> float:
    """Per-bin mutual information of a circulant channel in bits.

    Sums log2(1 + rho * |G_b|^2) over the unnormalized frequency bins of the
    generator; exact for circulant channels because the bins are the channel
    eigenvalues.
    """
    g = np.asarray(generator, dtype=np.complex128)
    if g.ndim != 1 or not g.size:
        raise ValueError("generator must be a non-empty one-dimensional array")
    bins = np.fft.fft(g)
    with np.errstate(over="ignore", invalid="ignore"):
        mi = float(np.sum(_log_gains_into(bins, _check_rho(rho), np.empty(bins.shape))))
    return _finite(_MI_OVERFLOW, mi)


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
    diag_norm = _gram_norm((low, low), (wrap, wrap))
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
        level 1, the positive child of level k - 1 below that. It is filled
        into one new C-contiguous array, so the ufuncs that read it walk
        contiguous rows."""
        parent = np.empty(self.positive.shape)
        if parent.shape[-1]:
            parent[..., 0] = self.total
            parent[..., 1:] = self.positive[..., :-1]
        return parent

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


def _split_into(level_gains: np.ndarray, positive: np.ndarray, negative: np.ndarray) -> None:
    """Credit the even bins of a level's log-gains to its positive child and
    the odd bins to its negative child."""
    np.add.reduce(level_gains[..., 0::2], axis=-1, out=positive)
    np.add.reduce(level_gains[..., 1::2], axis=-1, out=negative)


def _scratch(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The ``bins`` and ``gains`` scratch of :func:`_chain_levels_into` for
    taps of batch shape ``shape[:-1]`` at ``shape[-1]`` frame samples."""
    return tuple(np.empty(shape, dtype) for dtype in _SCRATCH_DTYPES)


def _chain_levels_into(
    taps: np.ndarray, rho: float, mode: str, chain: ChainMi, bins: np.ndarray, gains: np.ndarray
) -> None:
    """Root MI and the split of each level of the chain into ``chain``.

    ``taps`` has shape B + (L,) with L <= size, and ``chain.positive`` and
    ``chain.negative`` B + (depth,). Level k splits the positive slice of the
    level above into two slices of size ``size >> k``; its positive slice is
    the parent of level k + 1. The root MI goes into ``chain.total`` (B) and
    the children of level k into ``positive[..., k-1]`` and
    ``negative[..., k-1]``. ``bins`` (complex) and ``gains`` (float), both
    C-contiguous B + (size,), are scratch: the spectra and their log-gains
    are made in them, so the call allocates no frame-sized array.
    Each ``size``-point FFT is ``channel._spectrum_into`` in ``bins``, which
    gives the bits of ``np.fft.fft(taps, size, axis=-1)``.

    Literal mode takes level 1 from the root's log-gains while the taps fit
    in ``size // 2`` samples (its FFT of ``taps[..., :size // 2]`` is then
    the root's own), and from its own FFT in the whole scratch otherwise.
    Levels 2 .. depth take their FFTs in C-contiguous B x 2s blocks laid one
    after another in the scratch, ``size - (size >> (depth - 1))`` samples
    per row in all, and one log-gain pass covers every block. These short
    FFTs keep numpy's own padding: padding them by hand measured no faster.
    """
    size, depth = bins.shape[-1], chain.positive.shape[-1]
    positive, negative = chain.positive, chain.negative
    spectrum = _log_gains_into(_spectrum_into(taps, bins), rho, gains)
    np.add.reduce(spectrum, axis=-1, out=chain.total)
    if mode == MODE_EXACT:
        # The parent of level k is the frame spectrum's residue class 0 mod 2^(k-1).
        for level in range(1, depth + 1):
            _split_into(spectrum[..., :: 1 << (level - 1)], positive[..., level - 1], negative[..., level - 1])
        return
    if depth == 0:
        return
    # Literal: the even bins of the 2s-point FFT of taps[:s] are the
    # circulant's eigenvalues, the odd bins the skew-circulant's. At level 1
    # that FFT is the root's unless the taps outgrow s = size / 2.
    if taps.shape[-1] > size // 2:
        _log_gains_into(_spectrum_into(taps[..., : size // 2], bins), rho, gains)
    _split_into(gains, positive[..., 0], negative[..., 0])
    # Level k >= 2 takes its FFT in its own contiguous B x 2s block, each
    # block right after the one above, so the ufuncs of one log-gain pass
    # walk every level in one loop.
    flat_bins, flat_gains = bins.reshape(-1), gains.reshape(-1)
    rows = flat_bins.size // size
    blocks = []
    end = 0
    for level in range(2, depth + 1):
        width = size >> (level - 1)
        start, end = end, end + rows * width
        shape = taps.shape[:-1] + (width,)
        np.fft.fft(taps[..., : width // 2], width, axis=-1, out=flat_bins[start:end].reshape(shape))
        blocks.append(flat_gains[start:end].reshape(shape))
    _log_gains_into(flat_bins[:end], rho, flat_gains[:end])
    for level, level_gains in enumerate(blocks, 2):
        _split_into(level_gains, positive[..., level - 1], negative[..., level - 1])


def chain_mi(taps, frame_size: int, depth: int, rho: float, mode: str = MODE_EXACT) -> ChainMi:
    """Chain-plan MI of one channel per leading index of ``taps`` (..., L).

    Rows are zero-padded tap sequences, such as the (R, L) taps of
    ``channel.draw_taps``, checked by ``channel.check_taps``; padding does
    not change the result. Each row is bit-identical to a call on that row
    alone.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {_MODES}")
    check_plan(frame_size, depth)
    taps = check_taps(taps, frame_size)
    rho = _check_rho(rho)
    batch = taps.shape[:-1]
    chain = ChainMi(np.empty(batch), np.empty(batch + (depth,)), np.empty(batch + (depth,)))
    bins, gains = _scratch(batch + (frame_size,))
    with np.errstate(over="ignore", invalid="ignore"):
        _chain_levels_into(taps, rho, mode, chain, bins, gains)
    _finite(_MI_OVERFLOW, chain.total, chain.positive, chain.negative)
    return chain


def split_report(taps, frame_size: int, depth: int, rho: float, mode: str = MODE_EXACT) -> ChainMi:
    """:func:`chain_mi` of one channel realization given as (L,) taps: a
    :class:`ChainMi` of batch shape ()."""
    return chain_mi(check_taps(taps, frame_size, ()), frame_size, depth, rho, mode)
