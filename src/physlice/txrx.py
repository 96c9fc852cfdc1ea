"""End-to-end baseband link: the split transform as one FFT pair.

Every link function carries a leading batch axis: an array of shape
(R, N) holds one frame per row, and a single frame of shape (N,) runs
through the same code. Inputs are validated once per call, at the public
function, never per slice.

A frame stays one frame-order array from the bits to the estimates: a
:class:`SlicePayload` holds it with its plan, and slices are views of it.

transmit:  slices onto their bins through the plan's ``inverse_bin_order``,
           one unitary N-point IDFT, cyclic prefix.
propagate: the receiver keeps the N samples after the CP. The CP covers the
           channel (cp_length >= L is enforced), so those samples are the
           circular convolution of the body with the taps, computed here by
           FFT; then optional complex AWGN. The tests keep the linear
           convolution of (CP || body) as the oracle.
receive:   one unitary N-point DFT, one-tap zero-forcing equalization against
           the true channel response (genie-aided; no pilot estimation),
           gathered back into frame order through ``bin_order``.

Each stage is a private kernel (``_transmit_into``, ``_propagate_into``,
``_receive_into``) that writes every FFT and element-wise result into
arrays its caller passes in. The public functions allocate those arrays
and call the kernels; the loopback scenario allocates one set per scenario
and runs every chunk of frames through it, so a chunk allocates no frame-
sized array.

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


def _hard_index(symbols: np.ndarray, index: np.ndarray | None = None, negative: np.ndarray | None = None):
    """QPSK hard decision: index of the point in each symbol's own quadrant.

    Written into the integer array ``index`` with the bool array ``negative``
    as scratch, both of the symbols' shape; allocated when None.
    """
    if index is None:
        index = np.empty(symbols.shape, dtype=np.int64)
        negative = np.empty(symbols.shape, dtype=bool)
    np.less(symbols.real, 0, out=negative)
    np.copyto(index, negative)
    index <<= 1
    np.less(symbols.imag, 0, out=negative)
    index |= negative
    return index


def _qpsk_index(words: np.ndarray, index: np.ndarray) -> np.ndarray:
    """QPSK indices from raw 64-bit generator words, into ``index``;
    ``words`` is overwritten.

    Word i of ``rng.bit_generator.random_raw(N)`` holds in its bit 31 the
    bit 2i and in its bit 63 the bit 2i+1 of ``rng.integers(0, 2, 2 * N)``,
    and both calls leave the stream at the same place, so the indices are
    bitwise those of :func:`modulate` on those bits.
    """
    np.right_shift(words, 63, out=index)
    words >>= 30
    words &= 2
    index |= words
    return index


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
    """Slices onto their bins, one unitary IDFT, cyclic prefix: to round-off,
    a unitary IDFT per slice followed by ``forward_transform``."""
    if payload.plan.slices != plan.slices:
        raise ValueError("payload is laid out for a different slice plan")
    frames = np.asarray(payload.frames, dtype=np.complex128)
    if frames.shape[-1:] != (plan.frame_size,):
        raise ValueError(f"expected {plan.frame_size} symbols per frame, got shape {frames.shape}")
    if not np.all(np.isfinite(frames)):
        raise ValueError("payload contains non-finite symbols")
    body = np.empty(frames.shape, dtype=np.complex128)
    _transmit_into(frames, plan.inverse_bin_order, np.empty_like(body), body)
    cp = body[..., plan.frame_size - plan.cp_length :].copy()
    return OfdmFrame(body=body, cyclic_prefix=cp, plan=plan)


def _transmit_into(frames: np.ndarray, inverse_order: np.ndarray, spectrum: np.ndarray, body: np.ndarray) -> None:
    """Frame bodies of :func:`transmit` into ``body``: the frame-order
    symbols ``frames`` laid out on their bins through ``inverse_order`` (the
    plan's ``inverse_bin_order``) in ``spectrum``, then one unitary IDFT.

    ``body`` may be ``spectrum``: the IDFT then runs in place, and numpy 2's
    FFT gives the bits of the out-of-place one. ``frames`` shares no memory
    with either: ``np.take`` would buffer a copy of its overlapping output."""
    # A permutation never leaves the index range, so "clip" clips nothing; it
    # lets take write into ``spectrum`` without a buffered copy.
    np.take(frames, inverse_order, axis=-1, out=spectrum, mode="clip")
    np.fft.ifft(spectrum, axis=-1, out=body)
    body *= np.sqrt(body.shape[-1])


def _noise_rho(snr) -> float | None:
    if snr is None:
        return None
    rho = float(getattr(snr, "rho", snr))
    if rho == np.inf:
        return None
    if not rho > 0:
        raise ValueError(f"snr must be positive, got {rho}")
    return rho


def _standard_normals(rng, shape: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals for the noise of frames of ``shape`` (..., N), as an
    array of shape shape[:-1] + (2, N): each frame's N real parts, then its N
    imaginary parts.

    ``rng`` is one stream for all frames (a Generator or a seed), which draws
    every frame's real parts first; or, for an (R, N) batch, a sequence of R
    Generators, each of which fills its frame's row of ``out`` (allocated
    when None) with its real, then its imaginary parts. An empty sequence
    is a sequence of no Generators, not a seed: it fits only an empty batch.
    """
    if isinstance(rng, Sequence) and all(isinstance(g, np.random.Generator) for g in rng):
        if len(shape) != 2 or len(rng) != shape[0]:
            raise ValueError(f"expected one generator per frame of batch shape {shape[:-1]}, got {len(rng)}")
        draws = np.empty((shape[0], 2, shape[1])) if out is None else out
        for row, g in zip(draws, rng):
            g.standard_normal(out=row)
        return draws
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return np.moveaxis(rng.standard_normal((2,) + shape), 0, -2)


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
    body = frame.body
    taps = check_taps(taps, n, body.shape[:-1])
    if plan.cp_length < taps.shape[-1]:
        raise ValueError(
            f"cyclic prefix ({plan.cp_length}) shorter than the channel ({taps.shape[-1]})"
        )
    rho = _noise_rho(snr)
    noise = None if rho is None else _standard_normals(rng, body.shape)
    received = np.empty(body.shape, dtype=np.complex128)
    _propagate_into(body, np.fft.fft(taps, n, axis=-1), rho, noise, np.empty_like(received), received)
    return received


def _propagate_into(
    body: np.ndarray,
    gains: np.ndarray,
    rho: float | None,
    noise: np.ndarray | None,
    spectrum: np.ndarray,
    received: np.ndarray,
) -> None:
    """:func:`propagate` of frame bodies through channels of frequency
    response ``gains`` (the N-point FFT of the taps), unchecked, into
    ``received``. ``noise`` holds the standard normals of
    :func:`_standard_normals` and is scaled in place; it is unused when
    ``rho`` is None. ``spectrum`` is scratch.

    ``received``, ``spectrum`` and ``body`` may be one array: both FFTs then
    run in place, with the out-of-place bits. ``gains`` and ``noise`` share
    no memory with them."""
    np.fft.fft(body, axis=-1, out=spectrum)
    spectrum *= gains
    np.fft.ifft(spectrum, axis=-1, out=received)
    if rho is None:
        return
    # Unit average signal power is guaranteed by the unitary chain and
    # unit-power constellations, so the noise variance is 1/rho.
    noise *= np.sqrt(1.0 / (2.0 * rho))
    np.add(received.real, noise[..., 0, :], out=received.real)
    np.add(received.imag, noise[..., 1, :], out=received.imag)


def receive(y, plan: SlicePlan, taps) -> SlicePayload:
    """One unitary DFT, one-tap zero-forcing equalizer, bins back in frame
    order: to round-off, ``inverse_transform`` then a unitary DFT per slice.

    ``y`` holds frames of shape (..., N), and ``taps`` one (L,) channel for
    every frame or one per frame, y.shape[:-1] + (L,). The equalizer divides
    each bin by the true channel response there (genie-aided).
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
    response ``gains`` (the N-point FFT of the taps), unchecked; neither
    input is changed."""
    gains = np.array(gains, dtype=np.complex128)
    magnitude, squares = np.empty((2,) + gains.shape)
    estimate = np.empty(y.shape, dtype=np.complex128)
    erasures = np.empty(y.shape, dtype=bool)
    _receive_into(
        y, gains, plan.bin_order, np.empty_like(estimate), magnitude, squares, np.empty(gains.shape, dtype=bool),
        estimate, erasures,
    )
    return SlicePayload(frames=estimate, plan=plan, erasures=erasures)


def _receive_into(
    y: np.ndarray,
    gains: np.ndarray,
    order: np.ndarray,
    spectrum: np.ndarray,
    magnitude: np.ndarray,
    squares: np.ndarray,
    erased: np.ndarray,
    estimate: np.ndarray,
    erasures: np.ndarray,
) -> None:
    """:func:`receive` of complex frames ``y`` through channels of frequency
    response ``gains``, unchecked: the frame-order estimates into
    ``estimate`` and their erasure mask into ``erasures``. ``gains`` is
    overwritten with the divisor (1 at the erased bins). ``magnitude``,
    ``squares`` and ``erased`` (of the gains' shape) and ``spectrum`` (of the
    frames' shape) are scratch. The erasure pass runs only when some bin is
    erased.

    ``spectrum`` may be ``y``: the DFT then runs in place, with the
    out-of-place bits. ``estimate`` may be ``y``, or ``gains`` when the
    gains have the frames' shape: the estimates are gathered from
    ``spectrum`` after the division. ``spectrum`` and ``estimate`` are two
    arrays, and the float and bool scratch arrays share no memory with any
    other argument or with each other.

    The orthonormal DFT multiplies each bin by 1/sqrt(N) inside the FFT.
    numpy divides a complex array by a real scalar c as
    ``(re + im * 0) * (1 / c)``, so :func:`receive` gives what an
    unnormalized DFT followed by ``/= sqrt(N)`` gives in every nonzero
    component, and can differ from it only in the sign of a component that
    is exactly zero. No loopback output sees that sign: the EVM uses
    |estimate - sent| and the hard decision tests ``< 0``."""
    np.abs(gains, out=magnitude)
    # np.mean's own pairwise sum and divide, without its wrapper.
    rms = np.sqrt(np.add.reduce(np.square(magnitude, out=squares), axis=-1, keepdims=True) / magnitude.shape[-1])
    np.less_equal(magnitude, EQUALIZER_ERASURE_THRESHOLD * rms, out=erased)
    any_erased = erased.any()
    if any_erased:
        np.copyto(gains, 1.0, where=erased)
    np.fft.fft(y, axis=-1, out=spectrum, norm="ortho")
    spectrum /= gains
    np.take(spectrum, order, axis=-1, out=estimate, mode="clip")
    if any_erased:
        np.take(np.broadcast_to(erased, spectrum.shape), order, axis=-1, out=erasures, mode="clip")
        np.copyto(estimate, 0.0, where=erasures)
    else:
        erasures[...] = False


def iterative_decode(z3, z4, taps, max_iters: int = 100, tol: float = 1e-10):
    """Fixed-point decoder for the unmixed (W = I) negative branch.

    Solves [[H, -Hc], [Hc, H]] [s3; s4] = [z3; z4] by iterating
    s3 <- inv(H) z3 + C s4 and s4 <- inv(H) z4 - C s3 with C = inv(H) Hc,
    where H is the quarter-size lower-triangular Toeplitz block of the (L,)
    channel ``taps`` and Hc its wraparound complement. inv(H) is built once,
    by :func:`triangular_toeplitz_inverse`. Converges when the spectral
    radius of C is below one; a growing or overflowing update is flagged and
    never reported as converged.

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
    # A finite inverse can still make the iteration overflow (h0 tiny next to
    # the other taps): the first non-finite update stops it, unconverged.
    with np.errstate(over="ignore", invalid="ignore"):
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
            delta = float(np.maximum(np.max(np.abs(n3 - s3)), np.max(np.abs(n4 - s4))))
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
