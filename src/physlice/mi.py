"""Mutual-information analysis of sliced channels.

One spectral engine computes the per-slice MI of the canonical chain plan in
both modes. At every split level it takes the parent's per-bin log-gain
vector ``v = log2(1 + rho * |bins|^2)`` and credits the even bins to the
positive child and the odd bins to the negative child:

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
    ChannelImpulseResponse,
    CirculantChannel,
    circular_complement,
    lower_triangular_toeplitz,
    split_coupling,
)
from .sliceplan import decode_cost
from .spectral import is_pow2, logdet2_psd

__all__ = [
    "SnrSpec",
    "SliceMi",
    "LevelSplit",
    "MiSplitReport",
    "MODE_EXACT",
    "MODE_LITERAL",
    "mi_logdet",
    "mi_fast",
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

    def max_level_residual(self, relative: bool = True) -> float:
        """Largest |parent - (child+ + child-)| over levels, optionally / parent."""
        worst = 0.0
        for lvl in self.levels:
            res = abs(lvl.residual)
            if relative and lvl.parent_mi > 0:
                res /= lvl.parent_mi
            worst = max(worst, res)
        return worst

    def to_csv(self, destination) -> None:
        def _write(fh):
            writer = csv.writer(fh)
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


def uniformity_ratio(cir: ChannelImpulseResponse, frame_size: int) -> float:
    """Off-diagonal coupling of one split relative to its diagonal Gram term.

    Near zero, the two branches of a split carry almost equal MI; the ratio
    grows with the channel length. Requires L <= N/4.
    """
    _, _, coupling = split_coupling(cir, frame_size)
    quarter = frame_size // 4
    low = lower_triangular_toeplitz(cir.taps, quarter)
    wrap = circular_complement(cir.taps, quarter)
    diag_norm = float(np.linalg.norm(low @ low.conj().T + wrap @ wrap.conj().T, 2))
    if diag_norm == 0.0:
        return 0.0
    return coupling / diag_norm


def _chain_levels(taps: np.ndarray, size: int, depth: int, rho: float, mode: str):
    """Root MI and the split of each level of the chain, from the taps' spectra.

    Level k splits the positive slice of the level above into two slices of
    size ``size >> k``; its positive slice is the parent of level k + 1.
    Returns ``(root_mi, levels)`` with one :class:`LevelSplit` per level.
    """
    spectrum = _log_gains(np.fft.fft(taps, size), rho)
    total = parent = float(np.sum(spectrum))
    levels: list[LevelSplit] = []
    for level in range(1, depth + 1):
        # Even bins go to the positive child and odd bins to the negative one.
        # Exact: the parent's bins are the frame spectrum's residue class 0
        # mod 2^(k-1). Literal: the even bins of the 2s-point FFT of taps[:s]
        # are the circulant's eigenvalues, the odd bins the skew-circulant's.
        if mode == MODE_EXACT:
            gains = spectrum[:: 1 << (level - 1)]
        else:
            half = size >> level
            gains = _log_gains(np.fft.fft(taps[:half], 2 * half), rho)
        positive = float(np.sum(gains[0::2]))
        levels.append(LevelSplit(level, parent, positive, float(np.sum(gains[1::2]))))
        parent = positive
    return total, levels


def _negative_path(level: int) -> str:
    return "+" * (level - 1) + "-"


def split_report(
    cir: ChannelImpulseResponse,
    frame_size: int,
    depth: int,
    snr,
    mode: str = MODE_EXACT,
) -> MiSplitReport:
    """Per-slice MI of the canonical chain plan for one channel realization."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {_MODES}")
    if not is_pow2(frame_size) or depth < 0 or (1 << depth) > frame_size:
        raise ValueError(f"invalid plan: frame size {frame_size}, depth {depth}")
    if cir.length > frame_size:
        raise ValueError(f"{cir.length} taps do not fit in a size-{frame_size} frame")
    rho = _rho(snr)
    total, levels = _chain_levels(cir.taps, frame_size, depth, rho, mode)
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
    if cir.length > smallest:
        notes = (
            f"channel ({cir.length} taps) outgrows the smallest slice "
            f"({smallest}); splitting is non-uniform at the deep levels",
        )
    return MiSplitReport(
        frame_size=frame_size,
        depth=depth,
        mode=mode,
        rho=rho,
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
    rho = _rho(snr)
    depth = channel.size.bit_length() - 1
    total, levels = _chain_levels(channel.generator, channel.size, depth, rho, MODE_EXACT)
    _, literal = _chain_levels(channel.generator, channel.size, depth, rho, MODE_LITERAL)
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
        rho=rho,
        total_mi_bits=total,
        records=records,
        levels=levels,
        cost_row=cost_row,
        notes=notes,
    )
