"""End-to-end baseband link over the split transform.

Every link function carries a leading batch axis: an array of shape
(R, n) holds one frame (or one slice) per row, and a single frame of shape
(n,) runs through the same code. Inputs are validated once per call, at the
public function, never per slice.

transmit:  per-slice unitary IDFT, recursive transform, cyclic prefix.
propagate: the receiver keeps the N samples after the CP. The CP covers the
           channel (cp_length >= L is enforced), so those samples are the
           circular convolution of the body with the taps, computed here by
           FFT; then optional complex AWGN. The tests keep the linear
           convolution of (CP || body) as the oracle.
receive:   adjoint transform, per-slice unitary DFT, one-tap zero-forcing
           equalization against the true channel response (genie-aided; no
           pilot estimation).

A batch shares one channel or takes a sequence of channels, one per row.

Also here: the direct fixed-point decoder for the unmixed negative branch and
the order-recursive inverse of a lower-triangular Toeplitz matrix it builds on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .channel import (
    ChannelImpulseResponse,
    circular_complement,
    lower_triangular_toeplitz,
)
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

# Bins with |gain| below this are flagged as erasures instead of divided by.
EQUALIZER_ERASURE_THRESHOLD = 1e-12

# Gray-mapped QPSK, unit average power; symbol index is (real_bit << 1) | imag_bit
# with bit 1 selecting the negative half-plane.
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)

_SCHEMES = {"qpsk": (_QPSK, 2)}


def _scheme(scheme: str) -> tuple[np.ndarray, int]:
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _SCHEMES[scheme]


def _hard_index(symbols: np.ndarray) -> np.ndarray:
    """QPSK hard decision: index of the point in each symbol's own quadrant."""
    return 2 * (symbols.real < 0) + (symbols.imag < 0)


@dataclass
class SlicePayload:
    """Per-slice frequency-domain symbols, in frame order.

    Slice k is an array of shape (..., size_k); all slices share the leading
    (batch) shape. ``erasures`` has the same shapes and marks bins the
    equalizer refused to divide (channel gain below threshold); None on the
    transmit side.
    """

    symbols: tuple[np.ndarray, ...]
    erasures: tuple[np.ndarray, ...] | None = None

    def concat(self) -> np.ndarray:
        return np.concatenate(self.symbols, axis=-1)

    @property
    def total_symbols(self) -> int:
        """Symbols per frame."""
        return sum(int(x.shape[-1]) for x in self.symbols)


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


def _check_payload(payload: SlicePayload, plan: SlicePlan) -> list[np.ndarray]:
    if len(payload.symbols) != len(plan.slices):
        raise ValueError(
            f"payload has {len(payload.symbols)} slices, plan has {len(plan.slices)}"
        )
    symbols = [np.asarray(vec, dtype=np.complex128) for vec in payload.symbols]
    lead = symbols[0].shape[:-1]
    for vec, desc in zip(symbols, plan.slices):
        if vec.shape[-1:] != (desc.size,):
            raise ValueError(
                f"slice {desc.path!r} expects {desc.size} symbols, got shape {vec.shape}"
            )
        if vec.shape[:-1] != lead:
            raise ValueError(f"slices have different batch shapes: {vec.shape[:-1]} and {lead}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"slice {desc.path!r} contains non-finite symbols")
    return symbols


def modulate(bits, plan: SlicePlan, scheme: str = "qpsk") -> SlicePayload:
    """Map bit streams of shape (..., bits_per_symbol * N) onto per-slice
    constellation symbols (frame order), one frame per leading index."""
    points, bits_per_symbol = _scheme(scheme)
    bits = np.asarray(bits, dtype=np.int64)
    expected = bits_per_symbol * plan.frame_size
    if bits.shape[-1:] != (expected,):
        raise ValueError(f"expected {expected} bits for this plan, got shape {bits.shape}")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    grouped = bits.reshape(bits.shape[:-1] + (-1, bits_per_symbol))
    symbols = points[grouped @ (1 << np.arange(bits_per_symbol - 1, -1, -1))]
    out = []
    offset = 0
    for desc in plan.slices:
        out.append(symbols[..., offset : offset + desc.size].copy())
        offset += desc.size
    return SlicePayload(symbols=tuple(out))


def demodulate(payload: SlicePayload, scheme: str = "qpsk") -> np.ndarray:
    """Hard-decision bits, shape (..., bits_per_symbol * N), from per-slice estimates."""
    _, bits_per_symbol = _scheme(scheme)
    index = _hard_index(payload.concat())
    bits = (index[..., None] >> np.arange(bits_per_symbol - 1, -1, -1)) & 1
    return bits.reshape(index.shape[:-1] + (-1,))


def nearest_symbols(estimates, scheme: str = "qpsk") -> np.ndarray:
    """Snap estimates of any shape to the closest constellation point.

    For QPSK the closest point lies in the estimate's own quadrant, so this
    is the hard decision of :func:`demodulate` mapped back to its symbol.
    """
    points, _ = _scheme(scheme)
    return points[_hard_index(np.asarray(estimates))]


def transmit(payload: SlicePayload, plan: SlicePlan) -> OfdmFrame:
    """Per-slice unitary IDFT, recursive transform, cyclic prefix."""
    symbols = _check_payload(payload, plan)
    body = forward_transform(np.concatenate([_idft(x) for x in symbols], axis=-1), plan.depth)
    cp = body[..., plan.frame_size - plan.cp_length :].copy()
    return OfdmFrame(body=body, cyclic_prefix=cp, plan=plan)


def _stacked_taps(cir, batch: tuple[int, ...], n_bins: int) -> np.ndarray:
    """Taps of one channel, shape (L,), or of one channel per frame, (R, L)
    zero-padded to the longest; L must fit in ``n_bins``."""
    if isinstance(cir, ChannelImpulseResponse):
        taps = cir.taps
    else:
        cirs = list(cir)
        if len(batch) != 1 or len(cirs) != batch[0]:
            raise ValueError(f"expected one channel per frame of batch shape {batch}, got {len(cirs)}")
        taps = np.zeros((len(cirs), max(c.length for c in cirs)), dtype=np.complex128)
        for row, c in zip(taps, cirs):
            row[: c.length] = c.taps
    if taps.shape[-1] > n_bins:
        raise ValueError(f"{taps.shape[-1]} taps do not fit in {n_bins} bins")
    return taps


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


def propagate(
    frame: OfdmFrame,
    cir: ChannelImpulseResponse | Sequence[ChannelImpulseResponse],
    snr=None,
    rng=None,
) -> np.ndarray:
    """Send frames through the channel and return the N post-CP samples of each.

    With the CP covering the channel, the post-CP samples of the linear
    convolution of (CP || body) with the taps are the circular convolution
    of the body, computed here by FFT. ``snr`` is the linear rho (or an
    object with a ``rho`` attribute); None or +infinity bypasses noise
    addition exactly. ``rng`` is one noise stream for all frames (a Generator
    or a seed), or, for an (R, N) batch, a sequence of R Generators: each
    then draws its frame's N real noise parts, then its N imaginary parts.
    """
    plan = frame.plan
    n = plan.frame_size
    taps = _stacked_taps(cir, frame.body.shape[:-1], n)
    if plan.cp_length < taps.shape[-1]:
        raise ValueError(
            f"cyclic prefix ({plan.cp_length}) shorter than the channel ({taps.shape[-1]})"
        )
    received = np.fft.ifft(np.fft.fft(frame.body, axis=-1) * np.fft.fft(taps, n, axis=-1), axis=-1)
    rho = _noise_rho(snr)
    if rho is None:
        return received
    # Unit average signal power is guaranteed by the unitary chain and
    # unit-power constellations, so the noise variance is 1/rho.
    scale = np.sqrt(1.0 / (2.0 * rho))
    draws = _standard_normals(rng, received.shape)
    received.real += scale * draws[0]
    received.imag += scale * draws[1]
    return received


def receive(
    y,
    plan: SlicePlan,
    cir: ChannelImpulseResponse | Sequence[ChannelImpulseResponse],
) -> SlicePayload:
    """Adjoint transform, per-slice unitary DFT, one-tap zero-forcing equalizer.

    ``y`` holds frames of shape (..., N). The equalizer divides slice bin b
    by the true channel response at the original bin the slice carries
    there, ``gains[..., bin_residue::bin_stride]`` (genie-aided). Bins whose
    gain magnitude falls below ``EQUALIZER_ERASURE_THRESHOLD`` are flagged as
    erasures and returned as zeros.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.shape[-1:] != (plan.frame_size,):
        raise ValueError(f"expected {plan.frame_size} samples per frame, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("received samples contain non-finite entries")
    gains = np.fft.fft(_stacked_taps(cir, y.shape[:-1], plan.frame_size), plan.frame_size, axis=-1)
    erased = np.abs(gains) < EQUALIZER_ERASURE_THRESHOLD
    safe = np.where(erased, 1.0, gains)
    z = inverse_transform(y, plan.depth)
    estimates = []
    erasures = []
    for desc in plan.slices:
        bins = slice(desc.bin_residue, None, desc.bin_stride)
        estimate = _dft(z[..., desc.frame_offset : desc.frame_offset + desc.size]) / safe[..., bins]
        slice_erased = np.broadcast_to(erased[..., bins], estimate.shape).copy()
        estimate[slice_erased] = 0.0
        estimates.append(estimate)
        erasures.append(slice_erased)
    return SlicePayload(symbols=tuple(estimates), erasures=tuple(erasures))


def iterative_decode(
    z3,
    z4,
    cir: ChannelImpulseResponse,
    max_iters: int = 100,
    tol: float = 1e-10,
):
    """Fixed-point decoder for the unmixed (W = I) negative branch.

    Solves [[H, -Hc], [Hc, H]] [s3; s4] = [z3; z4] by iterating
    s3 <- inv(H) z3 + C s4 and s4 <- inv(H) z4 - C s3 with C = inv(H) Hc,
    where H is the quarter-size lower-triangular Toeplitz channel block and
    Hc its wraparound complement. Converges when the spectral radius of C is
    below one; a growing update is flagged and never reported as converged.

    Returns (s3, s4, iterations, converged).
    """
    z3 = np.asarray(z3, dtype=np.complex128)
    z4 = np.asarray(z4, dtype=np.complex128)
    if z3.shape != z4.shape or z3.ndim != 1:
        raise ValueError("z3 and z4 must be one-dimensional vectors of equal length")
    q = z3.size
    if cir.length > q:
        raise ValueError(f"channel length {cir.length} exceeds the block size {q}")
    if cir.taps[0] == 0:
        raise ValueError("h_0 = 0 makes the triangular system singular")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    h = lower_triangular_toeplitz(cir.taps, q)
    hc = circular_complement(cir.taps, q)
    u3 = solve_triangular(h, z3, lower=True)
    u4 = solve_triangular(h, z4, lower=True)
    c = solve_triangular(h, hc, lower=True)

    s3, s4 = u3.copy(), u4.copy()
    converged = False
    iterations = 0
    first_delta = None
    for iterations in range(1, max_iters + 1):
        n3 = u3 + c @ s4
        n4 = u4 - c @ s3
        delta = max(
            float(np.max(np.abs(n3 - s3))) if q else 0.0,
            float(np.max(np.abs(n4 - s4))) if q else 0.0,
        )
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
    memory. Exact up to round-off; validated so that result @ matrix == I.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    col = a[:, 0]
    if col[0] == 0:
        raise ValueError("zero diagonal entry; matrix is singular")
    if not np.allclose(a, lower_triangular_toeplitz(col, n), atol=1e-12 * max(1.0, float(np.max(np.abs(a))))):
        raise ValueError("matrix is not lower-triangular Toeplitz")
    inv_h0 = 1.0 / col[0]
    first = np.zeros(n, dtype=np.complex128)
    first[0] = inv_h0
    for k in range(2, n + 1):
        first[k - 1] = -(col[k - 1 : 0 : -1] @ first[: k - 1]) * inv_h0
    return lower_triangular_toeplitz(first, n)
