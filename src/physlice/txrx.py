"""End-to-end baseband link: the split transform as one FFT pair.

Every link function carries a leading batch axis: an array of shape
(R, N) holds one frame per row, and a single frame of shape (N,) runs
through the same code. Inputs are validated once per call, at the public
function, never per slice.

A frame stays one frame-order array from the bits to the estimates: a
:class:`SlicePayload` holds it with its plan, and slices are views of it.

transmit:  slices onto their bins through the plan's ``inverse_bin_order``,
           one unitary N-point IDFT, cyclic prefix (a view of the body's tail).
propagate: the receiver keeps the N samples after the CP. The CP covers the
           channel (cp_length >= L is enforced), so those samples are the
           circular convolution of the body with the taps, computed here by
           FFT; then optional complex AWGN, drawn from one stream per
           frame. The tests keep the linear convolution of (CP || body) as
           the oracle.
receive:   one unitary N-point DFT, one-tap zero-forcing equalization against
           the true channel response (genie-aided; no pilot estimation),
           gathered back into frame order through ``bin_order``.

The channel and the receiver are private kernels (``_propagate_into``,
``_receive_into``) that run their FFTs in place in the frames array they
produce and write every other result into arrays their caller passes in; the
receiver returns its erasure mask, which only :func:`receive` reads. The
public functions allocate those arrays, change no input and call the
kernels; the loopback scenario runs every chunk of frames through one set of
chunk buffers, ``_LinkBuffers``, whose docstring says what each buffer holds
and which aliases the kernels allow.

A channel is its taps, an SNR is its linear rho, noiseless is ``inf``: the
taps are one (L,) array shared by a batch, or one row per frame, such as the
(R, L) taps of ``channel.draw_taps``, and ``propagate`` takes rho as a float,
by default ``math.inf``, which adds no noise. Noise streams go one per frame,
as channel streams do: an (N,) frame takes one Generator or seed, an (R, N)
batch a sequence of R Generators.

Also here: the direct fixed-point decoder for the unmixed negative branch and
the order-recursive inverse of a lower-triangular Toeplitz matrix it builds on.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import _finite, _normals_into, _spectrum_into, check_taps, circular_complement, lower_triangular_toeplitz
from .sliceplan import SlicePlan, _integer

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

# The smallest positive normal float64, 2**-1022.
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)

# Bins whose |gain| is at most this fraction of the frame's RMS gain,
# ||taps||_2 by Parseval, are flagged as erasures instead of divided by. The
# receiver scales each frame's gains by a power of two first, so the rule does
# not depend on the channel's scale; a zero channel erases every bin.
EQUALIZER_ERASURE_THRESHOLD = 1e-12

# Gray-mapped QPSK, unit average power; symbol index is (real_bit << 1) | imag_bit
# with bit 1 selecting the negative half-plane.
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)


def _hard_index(symbols: np.ndarray) -> np.ndarray:
    """QPSK hard decision: index of the point in each symbol's own quadrant."""
    index = np.less(symbols.real, 0).astype(np.int64)
    index <<= 1
    index |= np.less(symbols.imag, 0)
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
    """Time-domain frames: transformed bodies (..., N) laid out by ``plan``.
    The cyclic prefix is not stored: it is the tail of each body."""

    body: np.ndarray
    plan: SlicePlan

    def __post_init__(self):
        if self.body.shape[-1:] != (self.plan.frame_size,):
            raise ValueError(f"body has shape {self.body.shape}, plan expects {self.plan.frame_size} samples per frame")

    @property
    def cyclic_prefix(self) -> np.ndarray:
        """Read-only view of the last ``cp_length`` samples of each body, (..., cp_length)."""
        prefix = self.body[..., self.plan.frame_size - self.plan.cp_length :]
        prefix.flags.writeable = False
        return prefix


def modulate(bits, plan: SlicePlan) -> SlicePayload:
    """Map bit streams of shape (..., 2 * N) onto QPSK frames of shape
    (..., N), frame order, one frame per leading index."""
    bits = np.asarray(bits)
    expected = 2 * plan.frame_size
    if bits.shape[-1:] != (expected,):
        raise ValueError(f"expected {expected} bits for this plan, got shape {bits.shape}")
    # Checked before the cast, which would truncate 0.5 and 1.7 and parse '1'.
    if bits.dtype.kind not in "biuf" or np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    bits = bits.astype(np.int64)
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
    body = np.take(frames, plan.inverse_bin_order, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        _unitary_idft(body)
    return OfdmFrame(body=_finite("the frame bodies overflow a float: the symbols are too large", body), plan=plan)


def _unitary_idft(bins: np.ndarray) -> None:
    """Frames of symbols on their bins into their frame bodies, in place:
    one unitary N-point IDFT per frame."""
    np.fft.ifft(bins, axis=-1, out=bins)
    bins *= np.sqrt(bins.shape[-1])


def _noise_rho(snr) -> float:
    """The linear SNR ``snr`` as a float, checked positive; ``inf`` adds no noise."""
    rho = float(snr)
    if not rho > 0:
        raise ValueError(f"snr must be positive, got {rho}")
    return rho


def propagate(frame: OfdmFrame, taps, snr: float = math.inf, rng=None) -> np.ndarray:
    """Send frames through the channel and return the N post-CP samples of each.

    ``taps`` is one (L,) channel for every frame, or one per frame, (R, L)
    for an (R, N) batch. With the CP covering the channel, the post-CP
    samples of the linear convolution of (CP || body) with the taps are the
    circular convolution of the body, computed here by FFT. ``snr`` is the
    linear rho; ``math.inf`` bypasses noise addition exactly. The noise
    takes one stream per frame: an (N,) frame one Generator or seed (a list
    of ints such as ``[seed, run]`` is one seed), an (R, N) batch a sequence
    of R Generators. Each draws ``standard_normal((2, N))``: its frame's N
    real noise parts, then its N imaginary parts.
    """
    plan = frame.plan
    n = plan.frame_size
    body = frame.body
    batch = body.shape[:-1]
    taps = check_taps(taps, n, batch)
    if plan.cp_length < taps.shape[-1]:
        raise ValueError(f"cyclic prefix ({plan.cp_length}) shorter than the channel ({taps.shape[-1]})")
    rho = _noise_rho(snr)
    noise = None
    if rho != math.inf:
        if 1.0 / (2.0 * rho) == math.inf:
            raise ValueError(f"snr {rho} is too small: the noise scale 1 / (2 * snr) overflows a float")
        streams = isinstance(rng, Sequence) and all(isinstance(g, np.random.Generator) for g in rng)
        if not batch and not streams:
            rng = [np.random.default_rng(rng)]
        elif len(batch) != 1 or not streams or len(rng) != batch[0]:
            got = len(rng) if streams else "one stream"
            raise ValueError(f"expected one generator per frame of batch shape {batch}, got {got}")
        noise = _normals_into(rng, np.empty((len(rng), 2, n))).reshape(batch + (2, n))
    received = np.empty(body.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        _propagate_into(body, np.fft.fft(taps, n, axis=-1), rho, noise, received)
    return _finite("the received frames overflow a float: the frames or taps are too large", received)


def _propagate_into(
    body: np.ndarray, gains: np.ndarray, rho: float, noise: np.ndarray | None, received: np.ndarray
) -> None:
    """:func:`propagate` of frame bodies through channels of frequency
    response ``gains`` (the N-point FFT of the taps), unchecked, into
    ``received``, whose spectrum it takes in place. ``noise`` holds each
    frame's standard normals, (..., 2, N), and is scaled in place; it is
    unused when ``rho`` is ``inf``. ``_LinkBuffers`` gives the aliases it
    allows."""
    np.fft.fft(body, axis=-1, out=received)
    received *= gains
    np.fft.ifft(received, axis=-1, out=received)
    if rho == math.inf:
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
    taps = check_taps(taps, plan.frame_size, y.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        gains = np.fft.fft(taps, plan.frame_size, axis=-1)
        payload = _receive(y, plan, gains)
    _finite("the equalized frames overflow a float: the samples or taps are too large", payload.frames, gains)
    return payload


def _receive(y: np.ndarray, plan: SlicePlan, gains: np.ndarray) -> SlicePayload:
    """:func:`receive` of complex frames ``y`` through channels of frequency
    response ``gains`` (the N-point FFT of the taps), unchecked; neither
    input is changed: the kernel runs on copies of both. The kernel returns
    its erasure mask in bin order, or None when its proof clears every bin;
    this function alone turns that into the frame-order ``erasures``."""
    y, gains = np.array(y), np.array(gains, dtype=np.complex128)
    magnitude, squares = np.empty((2,) + gains.shape)
    estimate = np.empty(y.shape, dtype=np.complex128)
    erased = _receive_into(y, gains, plan.bin_order, magnitude, squares, estimate)
    if erased is None:
        erasures = np.zeros(y.shape, dtype=bool)
    else:
        erasures = np.take(np.broadcast_to(erased, y.shape), plan.bin_order, axis=-1)
    return SlicePayload(frames=estimate, plan=plan, erasures=erasures)


def _receive_into(
    y: np.ndarray,
    gains: np.ndarray,
    order: np.ndarray,
    magnitude: np.ndarray,
    squares: np.ndarray,
    estimate: np.ndarray,
) -> np.ndarray | None:
    """:func:`receive` of complex frames ``y`` through channels of frequency
    response ``gains``, unchecked: the frame-order estimates into
    ``estimate``, whose erased bins are zeros. ``y`` is overwritten with
    its equalized spectrum and ``gains`` with the divisor. ``magnitude``
    and ``squares`` (of the gains' shape) are scratch. ``_LinkBuffers``
    gives the aliases it allows. Returns None from a call that divides by
    the gains as they are (below), and otherwise the scaled branch's
    erasure mask, of the gains' shape and in bin order: :func:`_receive`
    alone gathers it into frame order, and the loopback link never reads it.

    A hypot-free proof clears most calls of the exact erasure rule. With lo
    and hi the smallest and largest max(|re|, |im|) over all bins of the
    gains, and T = ``EQUALIZER_ERASURE_THRESHOLD``, lo > 2·T·hi implies
    |g| > T·rms for every bin of every frame: |g| is at least its larger
    part, and a frame's computed rms is at most √2·hi up to round-off, which
    the factor 2 covers. A cleared call whose lo is a normal float divides
    by the gains as they are and allocates nothing.

    Every other call takes one scaled branch, which makes temporaries of the
    gains' shape: no loopback chunk of the scenarios reaches it, so the link
    keeps no buffer for it. The branch scales each frame's gains by the
    power of two that brings the frame's largest part into [1/2, 1)
    (``np.frexp``; a zero frame stays zero), takes the exact rule on them
    (|g|, the rms from ``np.mean`` of |g|^2, and the comparison), sets the
    erased divisors to 1 and the erased bins of the spectrum to 0, scales
    the spectrum by the same power of two and divides. numpy divides by a
    complex g through 1 / d, where |d| is between g's larger part and twice
    that (Smith's method: R. L. Smith, Commun. ACM 5(8), 1962). In the
    normal range a power of two leaves |g| and every step of that division
    exact: the rule does not depend on the channel's scale, no square
    overflows, and the quotients are bitwise those of the plain division.
    Below the smallest normal float d loses bits, and 1 / d overflows below
    about 2**-1024 although the quotient is finite; scaled, such gains
    divide as the same frame scaled into the normal range does. A scaled
    spectrum overflows only where its quotient is within a factor √2 of
    overflowing: the scaled gains are below √2 in magnitude.

    The orthonormal DFT multiplies each bin by 1/sqrt(N) inside the FFT.
    numpy divides a complex array by a real scalar c as
    ``(re + im * 0) * (1 / c)``, so :func:`receive` gives what an
    unnormalized DFT followed by ``/= sqrt(N)`` gives in every nonzero
    component, and can differ from it only in the sign of a component that
    is exactly zero. No loopback output sees that sign: the EVM uses
    |estimate - sent| and the hard decision tests ``< 0``."""
    np.abs(gains.real, out=magnitude)
    np.maximum(magnitude, np.abs(gains.imag, out=squares), out=magnitude)
    lo, hi = magnitude.min(), magnitude.max()
    np.fft.fft(y, axis=-1, out=y, norm="ortho")
    erased = None
    if not (2 * EQUALIZER_ERASURE_THRESHOLD * hi < lo and lo >= _SMALLEST_NORMAL):
        shift = -np.frexp(magnitude.max(axis=-1, keepdims=True))[1]
        np.ldexp(gains.view(np.float64), shift, out=gains.view(np.float64))
        scaled = np.abs(gains)
        erased = scaled <= EQUALIZER_ERASURE_THRESHOLD * np.sqrt(np.mean(np.square(scaled), axis=-1, keepdims=True))
        np.copyto(gains, 1.0, where=erased)
        np.copyto(y, 0.0, where=erased)
        np.ldexp(y.view(np.float64), shift, out=y.view(np.float64))
    y /= gains
    np.take(y, order, axis=-1, out=estimate, mode="clip")
    return erased


class _LinkBuffers:
    """The loopback link of one plan and SNR, on chunk buffers for chunks of
    up to ``rows`` frames of the plan's N samples, and the chunk of frames
    they run: the one statement of what the link binds, what each buffer
    holds and which aliases the link kernels allow.

    Bound once: ``plan``; ``rho``, the SNR resolved by :func:`_noise_rho` as
    in :func:`propagate`, ``inf`` for a noiseless link (no noise draw; the
    errors are still counted); ``stretches`` and ``offsets``, each slice's
    frame-order stretch and the array of where each starts; and ``sizes``,
    the (slices, 1) column of each slice's size.
    Every QPSK point has |q|^2 = 1.0 exactly, so a slice's mean symbol power
    is 1.0 and the EVM divides by the size alone.

    The five buffers live in ``buffers``, four arrays, one per dtype:
    complex (2, rows, N) ``signal`` and ``gains``, float (rows, 2, N)
    ``noise``, uint64 (rows, N) ``index`` and bool (rows, N) ``wrong``;
    ``sample_bytes`` (57) per frame sample. ``wrong`` has one role, the
    symbol-error mask of :meth:`measure`; every other buffer serves several
    steps, so a chunk whose gains the receiver's proof clears makes one
    frame-sized array only: ``np.add.reduceat`` casts ``wrong`` to an intp
    copy (8 bytes per sample) for the error counts. The receiver's scaled
    branch, which no scenario chunk reaches, makes its own temporaries:

    1. ``words``, the first half of ``noise``, has three roles. As uint64
       it takes the raw bit words, which :func:`_qpsk_index` turns into
       ``index``, kept to the end. As intp it takes those indices gathered
       onto their bins through the plan's ``inverse_bin_order``; ``signal``
       takes their symbols and turns them into the frame bodies in place.
       As bool it holds ``signs``, the two (rows, N, 2) arrays of sign
       flags of the hard decisions in :meth:`measure`.
    2. ``gains`` takes the channel spectrum and ``noise`` the noise draws.
    3. The channel and the receiver run every FFT in place in ``signal``,
       use the halves ``floats`` of ``noise`` as float scratch and gather
       the estimates into ``gains``. The link keeps no erasure mask: an
       erased bin's estimate is zero, and the hard decision reads it so.
    4. :meth:`measure` rebuilds the sent symbols into ``signal``, writes
       the sign flags of their parts and of the estimates' parts into
       ``signs``, whose mismatches go into ``wrong`` as the symbol errors,
       and squares the errors into ``floats[1]``.

    Every view of ``words`` is C-contiguous, and so is each array of
    ``signs``: ``np.take`` into a strided view buffered a frame-sized copy,
    and sign flags written into ``[..., :2]`` and ``[..., 2:4]`` of a
    (rows, N, 8) view took the hard decisions from about 3 to about 50 us
    per frame at N = 2048 (2-core x86-64, numpy 2.4).

    Every kernel runs its FFTs in place, in the frames array it produces
    (numpy 2's FFT in place gives the bits of the out-of-place one), and
    allows these aliases and no other. ``np.take`` writes into no array
    that shares memory with its input (it would buffer a copy of its
    output): here, ``index`` and ``words``. ``_propagate_into``:
    ``received`` may be ``body``. ``_receive_into`` overwrites ``y`` with
    its spectrum; ``estimate`` may be ``gains`` (of the frames' shape),
    since it is gathered after the division, but not ``y``, or ``np.take``
    buffers a copy.
    """

    sample_bytes = 2 * 16 + 2 * 8 + 8 + 1

    def __init__(self, plan: SlicePlan, snr, rows: int):
        self.plan = plan
        self.rho = _noise_rho(snr)
        self.stretches = [slice(desc.frame_offset, desc.frame_offset + desc.size) for desc in plan.slices]
        self.offsets = np.array([desc.frame_offset for desc in plan.slices], np.intp)
        self.sizes = np.array([[float(desc.size)] for desc in plan.slices])
        # One allocation per dtype: one per buffer made glibc trim the heap they
        # were freed to (160 page faults per 60-run call at N = 2048), one for
        # all of them raised a run's peak memory by 0.3 MB.
        n = plan.frame_size
        frames = np.empty((2, rows, n), np.complex128)
        self._bind(frames, np.empty((rows, 2, n)), np.empty((rows, n), np.uint64), np.empty((rows, n), np.bool_))

    def _bind(self, frames: np.ndarray, noise: np.ndarray, index: np.ndarray, wrong: np.ndarray) -> None:
        self.buffers = frames, noise, index, wrong
        (self.signal, self.gains), self.noise, self.index, self.wrong = self.buffers
        self.floats = tuple(noise.reshape((2,) + self.signal.shape))
        self.words = self.floats[0].view(np.uint64)
        # take reads intp indices; the view of the values 0..3 spares a cast copy.
        self.indices = index.view(np.intp)
        # Two (rows, N, 2) bool arrays, one flag per real and imaginary part.
        flags = self.words.reshape(-1).view(np.bool_)[: 4 * self.signal.size]
        self.signs = flags.reshape((2, *self.signal.shape, 2))

    def cut(self, rows: int) -> _LinkBuffers:
        """The link of a chunk of ``rows`` frames, on the first rows of these buffers."""
        part = copy.copy(self)
        frames, noise, index, wrong = self.buffers
        part._bind(frames[:, :rows], noise[:rows], index[:rows], wrong[:rows])
        return part

    def run(self, rngs, taps: np.ndarray, evm: np.ndarray, errors: np.ndarray) -> None:
        """One frame per Generator of ``rngs`` through the link, in the first
        rows: each run draws its bits, then its noise (unless ``rho`` is
        ``inf``), from its own stream; row i of ``taps`` is run i's channel."""
        r = len(rngs)
        if r < len(self.signal):
            return self.cut(r).run(rngs, taps, evm, errors)
        n = self.signal.shape[-1]
        for raw, rng in zip(self.words, rngs):
            raw[...] = rng.bit_generator.random_raw(n)
        _qpsk_index(self.words, self.index)
        bins = np.take(self.indices, self.plan.inverse_bin_order, axis=-1, out=self.words.view(np.intp), mode="clip")
        _QPSK.take(bins, out=self.signal, mode="clip")
        _unitary_idft(self.signal)
        _spectrum_into(taps, self.gains)
        if self.rho != math.inf:
            _normals_into(rngs, self.noise)
        self.measure(evm, errors)

    def measure(self, evm: np.ndarray, errors: np.ndarray) -> None:
        """The frame bodies in ``signal`` through the channel ``gains``, the
        ``noise`` and the receiver, and each slice's EVM and symbol errors
        against ``index`` into its row of the (slices, r) arrays ``evm`` and
        ``errors``, at every SNR."""
        signal, estimate = self.signal, self.gains
        _propagate_into(signal, estimate, self.rho, self.noise, signal)
        _receive_into(signal, estimate, self.plan.bin_order, *self.floats, estimate)
        sent = _QPSK.take(self.indices, out=signal, mode="clip")
        # A symbol is wrong when the < 0 test of _hard_index reads another flag
        # on either part of its estimate than on the sent symbol's: when the
        # pairs of flags, one uint16 each, differ.
        for frames, negative in zip((sent, estimate), self.signs):
            np.less(frames.view(np.float64).reshape(negative.shape), 0, out=negative)
        wrong = np.not_equal(*self.signs.view(np.uint16)[..., 0], out=self.wrong)
        # Every slice's error count comes from one reduction over the chunk: the
        # slices tile the frame in order, so each count sums the stretch from its
        # offset to the next, exactly as an integer sum per slice does. It casts
        # all of wrong to intp first, the chunk's one frame-sized temporary.
        np.add.reduceat(wrong, self.offsets, axis=-1, dtype=np.intp, out=errors.T)
        # Each EVM keeps its own pairwise sum, the one np.mean takes: a float
        # reduceat sums in another order and changes the bits.
        error_power = self.floats[1]
        np.square(np.abs(np.subtract(estimate, sent, out=signal), out=error_power), out=error_power)
        for i, stretch in enumerate(self.stretches):
            np.add.reduce(error_power[:, stretch], axis=-1, out=evm[i])
        evm /= self.sizes
        np.sqrt(evm, out=evm)


def iterative_decode(z3, z4, taps, max_iters: int = 100, tol: float = 1e-10):
    """Fixed-point decoder for the unmixed (W = I) negative branch.

    Solves [[H, -Hc], [Hc, H]] [s3; s4] = [z3; z4] by iterating
    s3 <- inv(H) z3 + C s4 and s4 <- inv(H) z4 - C s3 with C = inv(H) Hc,
    where H is the quarter-size lower-triangular Toeplitz block of the (L,)
    channel ``taps`` and Hc its wraparound complement. inv(H) is built once,
    by :func:`triangular_toeplitz_inverse`. Converges when the spectral
    radius of C is below one; a growing or overflowing update is flagged and
    never reported as converged.

    ``max_iters`` is an integer of at least 1 and ``tol`` a finite positive
    bound on the largest change of one iteration. Returns (s3, s4,
    iterations, converged).
    """
    z3 = np.asarray(z3, dtype=np.complex128)
    z4 = np.asarray(z4, dtype=np.complex128)
    if z3.shape != z4.shape or z3.ndim != 1:
        raise ValueError("z3 and z4 must be one-dimensional vectors of equal length")
    q = z3.size
    taps = check_taps(taps, q, ())
    max_iters = _integer("max_iters", max_iters)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")

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
