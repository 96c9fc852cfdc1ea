"""The orthonormal split transform, dense and butterfly-structured.

One split of ``M`` samples is the orthonormal matrix
``(1/sqrt(2)) [[I, W], [I, -W]]`` with a unit-modulus diagonal mixer ``W`` of
size M/2. Applied recursively to the top (positive) branch it carves one OFDM
symbol into slices; the mixer is what keeps the negative-branch channel
circulant and therefore FFT-decodable.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import is_pow2

__all__ = [
    "butterfly_mixer",
    "split_matrix",
    "recursive_matrix",
    "forward_transform",
    "inverse_transform",
]

_SQRT2 = np.sqrt(2.0)

# Dense materializations are oracle-scale only.
_DENSE_CAP = 512


def butterfly_mixer(size: int) -> np.ndarray:
    """Diagonal of the half-size mixer used when splitting ``size`` samples.

    Entries are exp(j*2*pi*m/size) for m = 0 .. size/2 - 1, the twiddle
    factors of the first stage of a time-decimated inverse FFT. All entries
    have unit modulus, so the split stays orthonormal. For size 2 the mixer
    is the scalar 1.
    """
    if not is_pow2(size) or size < 2:
        raise ValueError(f"split size must be a power of two >= 2, got {size}")
    return np.exp(2j * np.pi * np.arange(size // 2) / size)


@functools.cache
def _mixer(size: int) -> np.ndarray:
    """Read-only :func:`butterfly_mixer`, computed once per size."""
    w = butterfly_mixer(size)
    w.setflags(write=False)
    return w


def split_matrix(size: int, mixer: np.ndarray | None = None) -> np.ndarray:
    """Dense one-step split of ``size`` samples: (1/sqrt(2)) [[I, W], [I, -W]].

    ``mixer`` may be a length size/2 diagonal (default: :func:`butterfly_mixer`)
    or a dense orthonormal size/2 matrix; pass ``np.ones(size // 2)`` for the
    plain W = I variant used by the direct decoder analysis.
    """
    if not is_pow2(size) or size < 2:
        raise ValueError(f"split size must be a power of two >= 2, got {size}")
    half = size // 2
    w = butterfly_mixer(size) if mixer is None else np.asarray(mixer, dtype=np.complex128)
    if w.ndim == 1:
        if w.size != half:
            raise ValueError(f"mixer diagonal has {w.size} entries, expected {half}")
        w = np.diag(w)
    elif w.shape != (half, half):
        raise ValueError(f"mixer matrix has shape {w.shape}, expected ({half}, {half})")
    eye = np.eye(half, dtype=np.complex128)
    return np.block([[eye, w], [eye, -w]]) / _SQRT2


def _check_plan(frame_size: int, depth: int) -> None:
    if not is_pow2(frame_size):
        raise ValueError(f"frame size must be a power of two, got {frame_size}")
    if depth < 0 or (1 << depth) > frame_size:
        raise ValueError(f"depth {depth} is invalid for frame size {frame_size}")


def recursive_matrix(frame_size: int, depth: int) -> np.ndarray:
    """Dense recursive transform: ``depth`` nested splits, identity at depth 0.

    Each level replaces the identity column of the one-step split with the
    next-level transform and contributes a 1/sqrt(2) factor, so the result is
    orthonormal at every depth. Oracle use only (frame_size <= 512).
    """
    _check_plan(frame_size, depth)
    if frame_size > _DENSE_CAP:
        raise ValueError(f"dense recursive transform is capped at size {_DENSE_CAP}")
    return _recursive_dense(frame_size, depth)


def _recursive_dense(n: int, depth: int) -> np.ndarray:
    if depth == 0:
        return np.eye(n, dtype=np.complex128)
    inner = _recursive_dense(n // 2, depth - 1)
    w = np.diag(butterfly_mixer(n))
    return np.block([[inner, w], [inner, -w]]) / _SQRT2


def _as_frames(signal, depth: int) -> np.ndarray:
    s = np.asarray(signal, dtype=np.complex128)
    if s.ndim < 1:
        raise ValueError("signal must have at least one dimension")
    _check_plan(s.shape[-1], depth)
    return s


def forward_transform(signal, depth: int) -> np.ndarray:
    """Apply the recursive transform with a butterfly recursion.

    ``signal`` has shape (..., N): every leading index is an independent
    frame. Each frame of the result equals ``recursive_matrix(N, depth) @
    frame`` to round-off, at O(N) complex operations per level, and is
    bit-identical to transforming that frame on its own.
    """
    s = _as_frames(signal, depth)
    return _forward(s, depth) if depth else s.copy()


def _forward(s: np.ndarray, depth: int) -> np.ndarray:
    if depth == 0:
        return s
    n = s.shape[-1]
    half = n // 2
    top = _forward(s[..., :half], depth - 1)
    mixed = _mixer(n) * s[..., half:]
    out = np.empty(s.shape, dtype=np.complex128)
    np.add(top, mixed, out=out[..., :half])
    np.subtract(top, mixed, out=out[..., half:])
    out /= _SQRT2
    return out


def inverse_transform(signal, depth: int) -> np.ndarray:
    """Apply the adjoint of :func:`forward_transform` to (..., N) frames.

    The transform is orthonormal, so this is also its exact inverse:
    ``inverse_transform(forward_transform(s, d), d) == s`` to round-off.
    """
    y = _as_frames(signal, depth)
    return _inverse(y, depth) if depth else y.copy()


def _inverse(y: np.ndarray, depth: int) -> np.ndarray:
    if depth == 0:
        return y
    n = y.shape[-1]
    half = n // 2
    head, tail = y[..., :half], y[..., half:]
    out = np.empty(y.shape, dtype=np.complex128)
    out[..., :half] = _inverse((head + tail) / _SQRT2, depth - 1)
    np.multiply(np.conj(_mixer(n)), head - tail, out=out[..., half:])
    out[..., half:] /= _SQRT2
    return out
