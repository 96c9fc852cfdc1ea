"""Mutual-information analysis of sliced channels.

One spectral engine computes the per-slice MI of the canonical chain plan in
both modes, for a batch of channels at once: it takes zero-padded taps of
shape (..., L), one channel per leading index, and returns the root MI and
the per-level parent, positive and negative MI as arrays. At every split
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

``chain_mi`` is the batched entry point; ``split_report`` and
``deep_split_report`` are its batch-of-one case, with per-slice records.
Every row of a batch is bit-identical to the same channel run on its own.
No dense matrix is built on this path. ``mi_logdet`` (exact log-det on a
dense matrix) and the generator fold of ``channel`` are the oracles the tests
hold the engine to.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (
    CirculantChannel,
    check_taps,
    circular_complement,
    lower_triangular_toeplitz,
    split_coupling,
)
from .sliceplan import check_plan, decode_cost
from .spectral import logdet2_psd

__all__ = [
    "SnrSpec",
    "SliceMi",
    "LevelSplit",
    "MiSplitReport",
    "ChainMi",
    "MODE_EXACT",
    "MODE_LITERAL",
    "mi_logdet",
    "mi_fast",
    "chain_mi",
    "split_report",
    "uniformity_ratio",
    "deep_split_report",
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


@dataclass(frozen=True)
class SliceMi:
    """Mutual information of one slice, plus the residual of the split that made it."""

    level: int
    path: str
    size: int
    mode: str
    mi_bits: float
    parent_residual: float


@dataclass(frozen=True)
class LevelSplit:
    """Parent/children MI of one split level."""

    level: int
    parent_mi: float
    positive_mi: float
    negative_mi: float

    @property
    def residual(self) -> float:
        return self.parent_mi - (self.positive_mi + self.negative_mi)


@dataclass
class MiSplitReport:
    """Per-slice MI report with conservation diagnostics."""

    frame_size: int
    depth: int
    mode: str
    rho: float
    total_mi_bits: float
    records: list[SliceMi]
    levels: list[LevelSplit]
    cost_row: tuple[str, ...] | None = None
    notes: tuple[str, ...] = ()

    def max_level_residual(self) -> float:
        """Largest |parent - (child+ + child-)| / parent over levels, the rule
        of :meth:`ChainMi.max_residual_rel`: 0 at depth 0, and a level with a
        parent MI of 0 counts its absolute residual."""
        worst = 0.0
        for lvl in self.levels:
            res = abs(lvl.residual)
            if lvl.parent_mi > 0:
                res /= lvl.parent_mi
            worst = max(worst, res)
        return worst

    def to_csv(self, destination) -> None:
        def _write(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["level", "path", "size", "mode", "mi_bits", "parent_residual"])
            for r in self.records:
                writer.writerow(
                    [r.level, r.path, r.size, r.mode, f"{r.mi_bits:.12g}", f"{r.parent_residual:.12g}"]
                )

        if hasattr(destination, "write"):
            _write(destination)
        else:
            with Path(destination).open("w", newline="") as fh:
                _write(fh)

    def summary_table(self) -> str:
        """Plain-text table, one row per slice (or per size for deep reports)."""
        lines = [
            f"frame_size={self.frame_size} depth={self.depth} mode={self.mode} "
            f"rho={self.rho:.6g} total_mi_bits={self.total_mi_bits:.6f}"
        ]
        if self.cost_row is not None:
            sizes = sorted({r.size for r in self.records}, reverse=True)
            header = ["size"] + [str(s) for s in sizes]
            rows: list[list[str]] = []
            for mode in _MODES:
                for branch, sign in (("mi+", "+"), ("mi-", "-")):
                    vals = []
                    for s in sizes:
                        rec = [r for r in self.records if r.size == s and r.mode == mode and r.path.endswith(sign)]
                        vals.append(f"{rec[0].mi_bits:.4g}" if rec else "")
                    rows.append([f"{branch} ({mode})"] + vals)
            rows.append(["decode_ops"] + list(self.cost_row))
            widths = [max(len(col[i]) for col in ([header] + rows)) for i in range(len(header))]
            for row in [header] + rows:
                lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        else:
            lines.append(f"{'path':>12} {'size':>6} {'mi_bits':>14} {'residual':>12}")
            for r in self.records:
                lines.append(f"{r.path:>12} {r.size:>6} {r.mi_bits:>14.6f} {r.parent_residual:>12.3e}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


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

    ``total`` (B) is the root MI; ``parent``, ``positive`` and ``negative``
    (B + (depth,)) hold the split of level k at index k - 1.
    """

    total: np.ndarray
    parent: np.ndarray
    positive: np.ndarray
    negative: np.ndarray

    def max_residual_rel(self) -> float:
        """Largest |parent - (child+ + child-)| / parent over every channel and
        level (0 at depth 0); a level with a parent MI of 0 counts its
        absolute residual."""
        res = np.abs(self.parent - (self.positive + self.negative))
        np.divide(res, self.parent, out=res, where=self.parent > 0)
        return float(res.max(initial=0.0))

    def slice_mi(self) -> np.ndarray:
        """MI of every slice of the chain plan, B + (depth + 1,), in frame
        order: the deepest positive slice, then the negative slices from the
        deepest level up."""
        if self.parent.shape[-1] == 0:
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
    parent, positive, negative = (np.empty(total.shape + (depth,)) for _ in range(3))
    above = total
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
        parent[..., level - 1] = above
        positive[..., level - 1] = above = gains[..., 0::2].sum(axis=-1)
        negative[..., level - 1] = gains[..., 1::2].sum(axis=-1)
    return ChainMi(total, parent, positive, negative)


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


def _level_splits(chain: ChainMi) -> list[LevelSplit]:
    """The levels of a batch-of-one :class:`ChainMi` as :class:`LevelSplit` records."""
    return [
        LevelSplit(level, parent, positive, negative)
        for level, (parent, positive, negative) in enumerate(
            zip(chain.parent.tolist(), chain.positive.tolist(), chain.negative.tolist()), start=1
        )
    ]


def _negative_path(level: int) -> str:
    return "+" * (level - 1) + "-"


def split_report(taps, frame_size: int, depth: int, snr, mode: str = MODE_EXACT) -> MiSplitReport:
    """Per-slice MI of the canonical chain plan for one channel realization,
    given as (L,) taps."""
    taps = check_taps(taps, frame_size, ())
    chain = chain_mi(taps, frame_size, depth, snr, mode)
    total = float(chain.total)
    levels = _level_splits(chain)
    smallest = frame_size >> depth
    if levels:
        final = SliceMi(depth, "+" * depth, smallest, mode, levels[-1].positive_mi, levels[-1].residual)
    else:
        final = SliceMi(0, "", frame_size, mode, total, 0.0)
    # Frame order: smallest slice first.
    records = [final] + [
        SliceMi(lvl.level, _negative_path(lvl.level), frame_size >> lvl.level, mode, lvl.negative_mi, lvl.residual)
        for lvl in reversed(levels)
    ]
    notes = ()
    if taps.size > smallest:
        notes = (
            f"channel ({taps.size} taps) outgrows the smallest slice "
            f"({smallest}); splitting is non-uniform at the deep levels",
        )
    return MiSplitReport(
        frame_size=frame_size,
        depth=depth,
        mode=mode,
        rho=_rho(snr),
        total_mi_bits=total,
        records=records,
        levels=levels,
        notes=notes,
    )


def deep_split_report(channel: CirculantChannel, snr) -> MiSplitReport:
    """Chain the split of one slice channel all the way down to size 1.

    Both children are reported at every level, in both modes, together with
    the per-size decode-cost row. Intended for a slice channel (for example
    the deepest positive slice of a plan) rather than a whole frame.
    """
    depth = channel.size.bit_length() - 1
    exact = chain_mi(channel.generator, channel.size, depth, snr, MODE_EXACT)
    levels = _level_splits(exact)
    literal = _level_splits(chain_mi(channel.generator, channel.size, depth, snr, MODE_LITERAL))
    records: list[SliceMi] = []
    for mode, mode_levels in ((MODE_EXACT, levels), (MODE_LITERAL, literal)):
        for lvl in mode_levels:
            size = channel.size >> lvl.level
            records.append(SliceMi(lvl.level, "+" * lvl.level, size, mode, lvl.positive_mi, lvl.residual))
            records.append(SliceMi(lvl.level, _negative_path(lvl.level), size, mode, lvl.negative_mi, lvl.residual))

    sizes = [channel.size >> level for level in range(1, depth + 1)]
    cost_row = tuple(
        "2/1" if size == 1 else str(decode_cost("-", size)) for size in sizes
    )
    notes = (
        "the two modes coincide while the taps fit in the block and diverge below; "
        "per-level sums in literal mode need not match the parent",
    )
    return MiSplitReport(
        frame_size=channel.size,
        depth=depth,
        mode="both",
        rho=_rho(snr),
        total_mi_bits=float(exact.total),
        records=records,
        levels=levels,
        cost_row=cost_row,
        notes=notes,
    )
