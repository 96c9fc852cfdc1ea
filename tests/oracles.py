"""Earlier link and transform designs, kept as bitwise references.

The split transform was once a recursion that built a new array per level,
and the link once carried a frame as a tuple of per-slice arrays: copied out
of the QPSK frame, concatenated for the transform, split again after the
adjoint, with one erasure array per slice. The package now works on one
frame-order array with in-place level loops, in the same per-element
operation order, so it must stay bitwise equal to these.
"""

import numpy as np

from physlice.transform import butterfly_mixer
from physlice.txrx import EQUALIZER_ERASURE_THRESHOLD

SQRT2 = np.sqrt(2.0)


def recursive_forward(signal, depth):
    """The split transform as a recursion on the top half: (top ± W·bottom) / √2."""
    s = np.asarray(signal, dtype=np.complex128)
    return _forward(s, depth) if depth else s.copy()


def _forward(s, depth):
    if depth == 0:
        return s
    n = s.shape[-1]
    half = n // 2
    top = _forward(s[..., :half], depth - 1)
    mixed = butterfly_mixer(n) * s[..., half:]
    out = np.empty(s.shape, dtype=np.complex128)
    np.add(top, mixed, out=out[..., :half])
    np.subtract(top, mixed, out=out[..., half:])
    out /= SQRT2
    return out


def recursive_inverse(signal, depth):
    """The adjoint as a recursion on (head + tail) / √2, with conj(W)(head − tail) / √2 below."""
    y = np.asarray(signal, dtype=np.complex128)
    return _inverse(y, depth) if depth else y.copy()


def _inverse(y, depth):
    if depth == 0:
        return y
    n = y.shape[-1]
    half = n // 2
    head, tail = y[..., :half], y[..., half:]
    out = np.empty(y.shape, dtype=np.complex128)
    out[..., :half] = _inverse((head + tail) / SQRT2, depth - 1)
    np.multiply(np.conj(butterfly_mixer(n)), head - tail, out=out[..., half:])
    out[..., half:] /= SQRT2
    return out


def slice_tuple(frames, plan):
    """A frame-order array as one copied (..., size) array per slice."""
    return tuple(frames[..., d.frame_offset : d.frame_offset + d.size].copy() for d in plan.slices)


def tuple_transmit(symbols, plan):
    """Frame bodies from per-slice symbols: unitary IDFT per slice,
    concatenated, then the recursive transform."""
    spread = [np.fft.ifft(x, axis=-1) * np.sqrt(x.shape[-1]) for x in symbols]
    return recursive_forward(np.concatenate(spread, axis=-1), plan.depth)


def tuple_receive(y, plan, gains):
    """Per-slice estimates and erasures of frames ``y`` through channels of
    frequency response ``gains``: recursive adjoint, unitary DFT per slice,
    one-tap zero forcing, erased bins set to 0. A bin is erased when its
    gain is at most the threshold times the frame's RMS gain."""
    magnitude = np.abs(gains)
    erased = magnitude <= EQUALIZER_ERASURE_THRESHOLD * np.sqrt(np.mean(magnitude**2, axis=-1, keepdims=True))
    safe = np.where(erased, 1.0, gains)
    z = recursive_inverse(y, plan.depth)
    estimates, erasures = [], []
    for desc in plan.slices:
        bins = slice(desc.bin_residue, None, desc.bin_stride)
        chunk = z[..., desc.frame_offset : desc.frame_offset + desc.size]
        estimate = np.fft.fft(chunk, axis=-1) / np.sqrt(desc.size) / safe[..., bins]
        slice_erased = np.broadcast_to(erased[..., bins], estimate.shape).copy()
        estimate[slice_erased] = 0.0
        estimates.append(estimate)
        erasures.append(slice_erased)
    return tuple(estimates), tuple(erasures)
