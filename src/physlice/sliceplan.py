"""Slice tree construction: sizes, polarity paths, frame layout, bins, latency.

A canonical chain plan always re-splits the positive branch, so ``depth``
splits of an N-sample frame produce depth+1 slices laid out smallest first:
the final all-positive slice of size N/2^depth, then the negative slices of
sizes N/2^depth, N/2^(depth-1), ..., N/2. Each slice owns a disjoint set of
original frequency bins (a residue class mod 2^|path|) and a decode cost in
FFT-operation units that determines its latency rank.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .spectral import is_pow2

__all__ = [
    "SliceDescriptor",
    "SlicePlan",
    "check_plan",
    "build_plan",
    "bins_for_slice",
    "decode_cost",
    "total_cost",
]


@dataclass(frozen=True)
class SliceDescriptor:
    """One slice of the frame.

    ``path`` is the '+'/'-' polarity string from the first split down to the
    slice's own branch; the final all-positive slice of a depth-K plan has
    path '+' * K ('' for the degenerate depth-0 plan). The slice carries the
    original bins {bin_residue + k * bin_stride}.
    """

    path: str
    size: int
    frame_offset: int
    bin_residue: int
    bin_stride: int
    decode_ops: int


@dataclass(frozen=True)
class SlicePlan:
    """Slice layout of one frame; immutable."""

    frame_size: int
    depth: int
    cp_length: int
    slices: tuple[SliceDescriptor, ...]
    non_uniform: bool = False
    # Smallest slice size still produced by a uniform split (channel shorter
    # than the child size); None when no channel length hint was given.
    uniform_floor: int | None = None

    @functools.cached_property
    def bin_order(self) -> np.ndarray:
        """Read-only (N,) permutation of 0 .. N-1: the original bins of the
        frame-order positions, each slice's :func:`bins_for_slice` at its offset."""
        order = np.concatenate([bins_for_slice(d, self.frame_size) for d in self.slices])
        order.setflags(write=False)
        return order

    @functools.cached_property
    def inverse_bin_order(self) -> np.ndarray:
        """Read-only (N,) inverse of :attr:`bin_order`: the frame-order
        position of each original bin, so ``np.take(frames, inverse_bin_order,
        axis=-1)`` lays frame-order symbols out on their bins."""
        inverse = np.argsort(self.bin_order)
        inverse.setflags(write=False)
        return inverse


def _integer(name: str, value) -> int:
    """``value`` as a Python int; TypeError naming ``name`` if it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def decode_cost(path: str, size: int) -> int:
    """Decode cost of one slice in FFT-operation units.

    A positive slice of size M is decoded with a plain M-point FFT,
    M*log2(M) operations; a negative slice pays 2M additional real
    operations for the mixer rotation ahead of its FFT. Size-1 leaves cost
    2 (negative) and 1 (positive) by convention.
    """
    size = _integer("slice size", size)
    if size < 1 or not is_pow2(size):
        raise ValueError(f"slice size must be a positive power of two, got {size}")
    negative = path.endswith("-")
    if size == 1:
        return 2 if negative else 1
    ops = size * (size.bit_length() - 1)
    if negative:
        ops += 2 * size
    return ops


def check_plan(frame_size: int, depth: int) -> None:
    """Reject a frame size that is not a power of two, or a depth that does
    not fit it (depth < 0 or 2^depth > frame_size)."""
    if not is_pow2(frame_size):
        raise ValueError(f"frame size must be a power of two, got {frame_size}")
    if depth < 0 or depth > int(frame_size).bit_length() - 1:
        raise ValueError(f"depth {depth} is invalid for frame size {frame_size}")


def build_plan(
    frame_size: int,
    depth: int,
    cp_length: int,
    channel_length: int | None = None,
) -> SlicePlan:
    """Build the canonical chain plan for a frame.

    The cyclic prefix is a copy of the frame's tail, so it may not be longer
    than the frame. ``channel_length`` is an optional hint of at least one
    tap: the cyclic prefix must cover it, and the plan is flagged
    non-uniform when the channel outgrows the smallest slice (the regime
    where the two branches of a split stop sharing the rate evenly). An
    argument that is not an integer raises TypeError, and numpy integers
    count as their Python ints. Plans are immutable, so the last 32 distinct
    argument sets are cached and their plans shared.
    """
    if channel_length is not None:
        channel_length = _integer("channel length", channel_length)
    return _build_plan(
        _integer("frame size", frame_size), _integer("depth", depth), _integer("cyclic prefix length", cp_length),
        channel_length,
    )


# The cache sits behind the plain function above so that tools which wrap a
# module's functions (the benchmark's call spans) still see build_plan, and
# so that it keys on the Python ints of the arguments.
@functools.lru_cache(maxsize=32)
def _build_plan(frame_size: int, depth: int, cp_length: int, channel_length: int | None) -> SlicePlan:
    check_plan(frame_size, depth)
    if channel_length is not None and channel_length < 1:
        raise ValueError(f"channel length must be at least 1, got {channel_length}")
    if cp_length < 0:
        raise ValueError("cyclic prefix length must be non-negative")
    if cp_length > frame_size:
        raise ValueError(f"cyclic prefix ({cp_length}) longer than the frame ({frame_size})")
    if channel_length is not None and cp_length < channel_length:
        raise ValueError(
            f"cyclic prefix ({cp_length}) shorter than the channel ({channel_length})"
        )

    paths = ["+" * depth] + ["+" * (k - 1) + "-" for k in range(depth, 0, -1)]
    slices = []
    offset = 0
    for path in paths:
        size = frame_size >> len(path)
        slices.append(
            SliceDescriptor(
                path=path,
                size=size,
                frame_offset=offset,
                bin_residue=sum(1 << i for i, branch in enumerate(path) if branch == "-"),
                bin_stride=1 << len(path),
                decode_ops=decode_cost(path, size),
            )
        )
        offset += size

    non_uniform = False
    uniform_floor = None
    if channel_length is not None:
        non_uniform = channel_length > frame_size >> depth
        uniform_floor = 1 << (channel_length - 1).bit_length()
    return SlicePlan(
        frame_size=frame_size,
        depth=depth,
        cp_length=cp_length,
        slices=tuple(slices),
        non_uniform=non_uniform,
        uniform_floor=uniform_floor,
    )


def bins_for_slice(descriptor: SliceDescriptor, frame_size: int):
    """Original bins carried by a slice, in slice-local order: bin b of the
    slice's own FFT is original bin ``bin_residue + b * bin_stride``."""
    return range(descriptor.bin_residue, frame_size, descriptor.bin_stride)


def total_cost(plan: SlicePlan) -> int:
    """Total decode operations over all slices of the plan."""
    return sum(s.decode_ops for s in plan.slices)

