"""The orthonormal split transform, applied one butterfly level at a time.

One split of ``M`` samples is the orthonormal matrix
``(1/sqrt(2)) [[I, W], [I, -W]]`` with a unit-modulus diagonal mixer ``W`` of
size M/2. Applied recursively to the top (positive) branch it carves one OFDM
symbol into slices; the mixer is what keeps the negative-branch channel
circulant and therefore FFT-decodable. The transforms here never build that
matrix; the tests hold them to its dense form.
"""

from __future__ import annotations

import functools

import numpy as np

from .sliceplan import _integer, check_plan
from .spectral import is_pow2

__all__ = [
    "butterfly_mixer",
    "forward_transform",
    "inverse_transform",
]

_SQRT2 = np.sqrt(2.0)


def butterfly_mixer(size: int) -> np.ndarray:
    """Diagonal of the half-size mixer used when splitting ``size`` samples.

    Entries are exp(j*2*pi*m/size) for m = 0 .. size/2 - 1, the twiddle
    factors of the first stage of a time-decimated inverse FFT. All entries
    have unit modulus, so the split stays orthonormal. For size 2 the mixer
    is the scalar 1.
    """
    size = _integer("split size", size)
    if not is_pow2(size) or size < 2:
        raise ValueError(f"split size must be a power of two >= 2, got {size}")
    return np.exp(2j * np.pi * np.arange(size // 2) / size)


@functools.cache
def _mixer(size: int) -> np.ndarray:
    """Read-only :func:`butterfly_mixer`, computed once per size."""
    w = butterfly_mixer(size)
    w.setflags(write=False)
    return w


def _as_frames(signal, depth: int) -> np.ndarray:
    """A complex copy of ``signal``, checked to hold frames that fit ``depth``."""
    s = np.array(signal, dtype=np.complex128)
    if s.ndim < 1:
        raise ValueError("signal must have at least one dimension")
    check_plan(s.shape[-1], depth)
    return s


def forward_transform(signal, depth: int) -> np.ndarray:
    """Apply the recursive transform, one butterfly level at a time.

    ``signal`` has shape (..., N): every leading index is an independent
    frame. Each frame of the result equals the dense recursive transform
    matrix times the frame to round-off, at O(N) complex operations per level, and is
    bit-identical to transforming that frame on its own.
    The levels run innermost first, in place on one copy: the level of size
    M maps the leading M samples [top, bottom] to [top ± W*bottom] / sqrt(2).
    """
    out = _as_frames(signal, depth)
    for level in reversed(range(depth)):
        half = out.shape[-1] >> (level + 1)
        top, bottom = out[..., :half], out[..., half : 2 * half]
        mixed = _mixer(2 * half) * bottom
        np.subtract(top, mixed, out=bottom)
        top += mixed
        out[..., : 2 * half] /= _SQRT2
    return out


def inverse_transform(signal, depth: int) -> np.ndarray:
    """Apply the adjoint of :func:`forward_transform` to (..., N) frames.

    The transform is orthonormal, so this is also its exact inverse:
    ``inverse_transform(forward_transform(s, d), d) == s`` to round-off.
    The levels run outermost first, in place on one copy: the level of size M
    maps [head, tail] to [head + tail, conj(W) (head - tail)] / sqrt(2).
    """
    out = _as_frames(signal, depth)
    for level in range(depth):
        half = out.shape[-1] >> (level + 1)
        head, tail = out[..., :half], out[..., half : 2 * half]
        diff = head - tail
        head += tail
        head /= _SQRT2
        np.multiply(np.conj(_mixer(2 * half)), diff, out=tail)
        tail /= _SQRT2
    return out
