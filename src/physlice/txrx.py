"""End-to-end baseband link over the split transform.

Every link function carries a leading batch axis: an array of shape
(R, N) holds one frame per row, and a single frame of shape (N,) runs
through the same code. Inputs are validated once per call, at the public
function, never per slice.

A frame stays one frame-order array from the bits to the estimates: a
:class:`SlicePayload` holds it with its plan, and slices are views of it.

transmit:  per-slice unitary IDFT into one buffer, recursive transform,
           cyclic prefix.
propagate: the receiver keeps the N samples after the CP. The CP covers the
           channel (cp_length >= L is enforced), so those samples are the
           circular convolution of the body with the taps, computed here by
           FFT; then optional complex AWGN. The tests keep the linear
           convolution of (CP || body) as the oracle.
receive:   adjoint transform, per-slice unitary DFT written back in place,
           one-tap zero-forcing equalization against the true channel
           response (genie-aided; no pilot estimation).

A channel is its taps: one (L,) array shared by a batch, or one row per
frame, such as the (R, L) taps of ``channel.draw_taps``.

Also here: the direct fixed-point decoder for the unmixed negative branch and
the order-recursive inverse of a lower-triangular Toeplitz matrix it builds on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import check_taps, circular_complement, lower_triangular_toeplitz
from .sliceplan import SlicePlan
from .spectral import _dft, _idft
from .transform import forward_transform, inverse_transform

__all__ = [
    "SlicePayload",
    "OfdmFrame",
    "modulate",
    "demodulate",
    "transmit",
    "propagate",
    "receive",
    "iterative_decode",
    "triangular_toeplitz_inverse",
    "EQUALIZER_ERASURE_THRESHOLD",
]

# Bins whose |gain| is at most this fraction of the frame's RMS gain are
# flagged as erasures instead of divided by. The RMS over the N bins of the
# unnormalized channel FFT is ||taps||_2 (Parseval), so the rule does not
# depend on the channel's scale, and a zero channel erases every bin.
EQUALIZER_ERASURE_THRESHOLD = 1e-12

# Gray-mapped QPSK, unit average power; symbol index is (real_bit << 1) | imag_bit
# with bit 1 selecting the negative half-plane.
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)


def _hard_index(symbols: np.ndarray) -> np.ndarray:
    """QPSK hard decision: index of the point in each symbol's own quadrant."""
    return 2 * (symbols.real < 0) + (symbols.imag < 0)


@dataclass
class SlicePayload:
    """Frequency-domain symbols of (..., N) frames in frame order, with the
    plan that lays out the slices: slice k is ``frames[..., off:off + size]``
    at its descriptor's ``frame_offset``. ``erasures`` is a bool array of the
    same shape that marks bins the equalizer refused to divide (channel gain
    below threshold); None on the transmit side.
    """

    frames: np.ndarray
    plan: SlicePlan
    erasures: np.ndarray | None = None

    @property
    def symbols(self) -> tuple[np.ndarray, ...]:
        """Read-only views of ``frames``, one (..., size) array per slice."""
        views = tuple(self.frames[..., d.frame_offset : d.frame_offset + d.size] for d in self.plan.slices)
        for view in views:
            view.flags.writeable = False
        return views


@dataclass
class OfdmFrame:
    """Time-domain frames: transformed bodies (..., N) plus cyclic prefixes
    (..., cp_length), each a copy of its body's tail."""

    body: np.ndarray
    cyclic_prefix: np.ndarray
    plan: SlicePlan

    def __post_init__(self):
        n = self.plan.frame_size
        if self.body.shape[-1:] != (n,):
            raise ValueError(f"body has shape {self.body.shape}, plan expects {n} samples per frame")
        cp = self.plan.cp_length
        if self.cyclic_prefix.shape != self.body.shape[:-1] + (cp,) or not np.array_equal(
            self.cyclic_prefix, self.body[..., n - cp :]
        ):
            raise ValueError("cyclic prefix must be a copy of the last cp_length body samples")


def modulate(bits, plan: SlicePlan) -> SlicePayload:
    """Map bit streams of shape (..., 2 * N) onto QPSK frames of shape
    (..., N), frame order, one frame per leading index."""
    bits = np.asarray(bits, dtype=np.int64)
    expected = 2 * plan.frame_size
    if bits.shape[-1:] != (expected,):
        raise ValueError(f"expected {expected} bits for this plan, got shape {bits.shape}")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    return SlicePayload(frames=_QPSK[2 * bits[..., 0::2] + bits[..., 1::2]], plan=plan)


def demodulate(payload: SlicePayload) -> np.ndarray:
    """Hard-decision bits, shape (..., 2 * N), from QPSK estimates in frame order."""
    index = _hard_index(payload.frames)
    bits = (index[..., None] >> np.array([1, 0])) & 1
    return bits.reshape(index.shape[:-1] + (-1,))


def nearest_symbols(estimates) -> np.ndarray:
    """Snap estimates of any shape to the closest QPSK point.

    The closest point lies in the estimate's own quadrant, so this is the
    hard decision of :func:`demodulate` mapped back to its symbol.
    """
    return _QPSK[_hard_index(np.asarray(estimates))]


def transmit(payload: SlicePayload, plan: SlicePlan) -> OfdmFrame:
    """Per-slice unitary IDFT, recursive transform, cyclic prefix."""
    if payload.plan.slices != plan.slices:
        raise ValueError("payload is laid out for a different slice plan")
    frames = np.asarray(payload.frames, dtype=np.complex128)
    if frames.shape[-1:] != (plan.frame_size,):
        raise ValueError(f"expected {plan.frame_size} symbols per frame, got shape {frames.shape}")
    if not np.all(np.isfinite(frames)):
        raise ValueError("payload contains non-finite symbols")
    spread = np.empty(frames.shape, dtype=np.complex128)
    for desc in plan.slices:
        stretch = slice(desc.frame_offset, desc.frame_offset + desc.size)
        spread[..., stretch] = _idft(frames[..., stretch])
    body = forward_transform(spread, plan.depth)
    cp = body[..., plan.frame_size - plan.cp_length :].copy()
    return OfdmFrame(body=body, cyclic_prefix=cp, plan=plan)


def _noise_rho(snr) -> float | None:
    if snr is None:
        return None
    rho = float(getattr(snr, "rho", snr))
    if rho == np.inf:
        return None
    if not rho > 0:
        raise ValueError(f"snr must be positive, got {rho}")
    return rho


def _standard_normals(rng, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of shape (2,) + shape: real parts, then imaginary parts."""
    if isinstance(rng, Sequence) and rng and all(isinstance(g, np.random.Generator) for g in rng):
        if len(shape) != 2 or len(rng) != shape[0]:
            raise ValueError(f"expected one generator per frame of batch shape {shape[:-1]}, got {len(rng)}")
        draws = np.empty((2,) + shape)
        for row, g in enumerate(rng):
            draws[:, row] = g.standard_normal((2, shape[-1]))
        return draws
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return rng.standard_normal((2,) + shape)


def propagate(frame: OfdmFrame, taps, snr=None, rng=None) -> np.ndarray:
    """Send frames through the channel and return the N post-CP samples of each.

    ``taps`` is one (L,) channel for every frame, or one per frame, (R, L)
    for an (R, N) batch. With the CP covering the channel, the post-CP
    samples of the linear convolution of (CP || body) with the taps are the
    circular convolution of the body, computed here by FFT. ``snr`` is the
    linear rho (or an object with a ``rho`` attribute); None or +infinity
    bypasses noise addition exactly. ``rng`` is one noise stream for all frames (a Generator
    or a seed), or, for an (R, N) batch, a sequence of R Generators: each
    then draws its frame's N real noise parts, then its N imaginary parts.
    """
    plan = frame.plan
    n = plan.frame_size
    taps = check_taps(taps, n, frame.body.shape[:-1])
    if plan.cp_length < taps.shape[-1]:
        raise ValueError(
            f"cyclic prefix ({plan.cp_length}) shorter than the channel ({taps.shape[-1]})"
        )
    return _propagate(frame.body, np.fft.fft(taps, n, axis=-1), _noise_rho(snr), rng)


def _propagate(body: np.ndarray, gains: np.ndarray, rho: float | None, rng) -> np.ndarray:
    """:func:`propagate` of frame bodies through channels of frequency
    response ``gains`` (the N-point FFT of the taps), unchecked."""
    received = np.fft.ifft(np.fft.fft(body, axis=-1) * gains, axis=-1)
    if rho is None:
        return received
    # Unit average signal power is guaranteed by the unitary chain and
    # unit-power constellations, so the noise variance is 1/rho.
    scale = np.sqrt(1.0 / (2.0 * rho))
    draws = _standard_normals(rng, received.shape)
    received.real += scale * draws[0]
    received.imag += scale * draws[1]
    return received


def receive(y, plan: SlicePlan, taps) -> SlicePayload:
    """Adjoint transform, per-slice unitary DFT, one-tap zero-forcing equalizer.

    ``y`` holds frames of shape (..., N), and ``taps`` one (L,) channel for
    every frame or one per frame, y.shape[:-1] + (L,). The equalizer divides
    slice bin b by the true channel response at the original bin the slice
    carries there, ``gains[..., bin_residue::bin_stride]`` (genie-aided).
    Bins whose gain magnitude is at most ``EQUALIZER_ERASURE_THRESHOLD``
    times the frame's RMS gain, ||taps||_2, are flagged as erasures and
    returned as zeros.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.shape[-1:] != (plan.frame_size,):
        raise ValueError(f"expected {plan.frame_size} samples per frame, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("received samples contain non-finite entries")
    gains = np.fft.fft(check_taps(taps, plan.frame_size, y.shape[:-1]), plan.frame_size, axis=-1)
    return _receive(y, plan, gains)


def _receive(y: np.ndarray, plan: SlicePlan, gains: np.ndarray) -> SlicePayload:
    """:func:`receive` of complex frames ``y`` through channels of frequency
    response ``gains`` (the N-point FFT of the taps), unchecked."""
    magnitude = np.abs(gains)
    rms = np.sqrt(np.mean(magnitude**2, axis=-1, keepdims=True))
    erased = magnitude <= EQUALIZER_ERASURE_THRESHOLD * rms
    safe = np.where(erased, 1.0, gains)
    estimate = inverse_transform(y, plan.depth)
    erasures = np.empty(estimate.shape, dtype=bool)
    for desc in plan.slices:
        stretch = slice(desc.frame_offset, desc.frame_offset + desc.size)
        bins = slice(desc.bin_residue, None, desc.bin_stride)
        np.divide(_dft(estimate[..., stretch]), safe[..., bins], out=estimate[..., stretch])
        erasures[..., stretch] = erased[..., bins]
    estimate[erasures] = 0.0
    return SlicePayload(frames=estimate, plan=plan, erasures=erasures)


def iterative_decode(z3, z4, taps, max_iters: int = 100, tol: float = 1e-10):
    """Fixed-point decoder for the unmixed (W = I) negative branch.

    Solves [[H, -Hc], [Hc, H]] [s3; s4] = [z3; z4] by iterating
    s3 <- inv(H) z3 + C s4 and s4 <- inv(H) z4 - C s3 with C = inv(H) Hc,
    where H is the quarter-size lower-triangular Toeplitz block of the (L,)
    channel ``taps`` and Hc its wraparound complement. inv(H) is built once,
    by :func:`triangular_toeplitz_inverse`. Converges when the spectral
    radius of C is below one; a growing update is flagged and never reported
    as converged.

    Returns (s3, s4, iterations, converged).
    """
    z3 = np.asarray(z3, dtype=np.complex128)
    z4 = np.asarray(z4, dtype=np.complex128)
    if z3.shape != z4.shape or z3.ndim != 1:
        raise ValueError("z3 and z4 must be one-dimensional vectors of equal length")
    q = z3.size
    taps = check_taps(taps, q, ())
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    inv_h = triangular_toeplitz_inverse(lower_triangular_toeplitz(taps, q))
    u3 = inv_h @ z3
    u4 = inv_h @ z4
    c = inv_h @ circular_complement(taps, q)

    s3, s4 = u3, u4
    converged = False
    iterations = 0
    first_delta = None
    for iterations in range(1, max_iters + 1):
        n3 = u3 + c @ s4
        n4 = u4 - c @ s3
        delta = max(float(np.max(np.abs(n3 - s3))), float(np.max(np.abs(n4 - s4))))
        s3, s4 = n3, n4
        if delta < tol:
            converged = True
            break
        if not np.isfinite(delta):
            break
        if first_delta is None:
            first_delta = delta
        elif delta > 100.0 * first_delta:
            # Unambiguous growth: the update is diverging geometrically.
            # (A contracting iteration may wobble, so only clear growth
            # stops early; hitting max_iters above tol is also not converged.)
            break
    return s3, s4, iterations, converged


def triangular_toeplitz_inverse(matrix) -> np.ndarray:
    """Inverse of a lower-triangular Toeplitz matrix by order-recursive bordering.

    Growing the order by one appends the last row
    [-(1/h0) * h^T @ inv_prev, 1/h0], where h^T is the new bottom row of the
    matrix without its diagonal entry. The inverse is itself lower-triangular
    Toeplitz, so that row is its first column reversed, and only the first
    entry of ``h^T @ inv_prev`` is new: the recursion keeps the first column
    alone, c_{k-1} = -(1/h0) * sum_j h_{k-1-j} c_j, in O(n^2) work and O(n)
    memory. Exact up to round-off; validated so that result @ matrix == I,
    and rejected when it overflows (h0 tiny next to the other taps).
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    n = a.shape[0]
    col = a[:, 0]
    if col[0] == 0:
        raise ValueError("zero diagonal entry; matrix is singular")
    if not np.allclose(a, lower_triangular_toeplitz(col, n), atol=1e-12 * max(1.0, float(np.max(np.abs(a))))):
        raise ValueError("matrix is not lower-triangular Toeplitz")
    first = np.zeros(n, dtype=np.complex128)
    with np.errstate(all="ignore"):
        inv_h0 = 1.0 / col[0]
        first[0] = inv_h0
        for k in range(2, n + 1):
            first[k - 1] = -(col[k - 1 : 0 : -1] @ first[: k - 1]) * inv_h0
    if not np.all(np.isfinite(first)):
        raise ValueError(f"inverse overflows: h0 = {col[0]:.3g} is too small relative to the other taps")
    return lower_triangular_toeplitz(first, n)
