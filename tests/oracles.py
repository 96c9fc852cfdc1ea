"""Earlier link and transform designs, kept as references.

The split transform was once a recursion that built a new array per level.
The package's in-place level loops keep its per-element operation order, so
they stay bitwise equal to it.

The link once carried a frame as a tuple of per-slice arrays: copied out of
the QPSK frame, given a unitary IDFT each, concatenated for the transform,
split again after the adjoint and given a unitary DFT each, with one erasure
array per slice. The package's link is now one N-point FFT pair through the
plan's ``bin_order``, the same map, so it agrees with this chain to
round-off, and its erasures match exactly.

The receiver once scaled its DFT after the fact (an unnormalized FFT, then
``/= sqrt(N)``, then ``/= gains``) and always ran its erasure pass, and the
loopback runner once took each slice's EVM as a ratio of two ``np.mean``
calls and its symbol errors with ``np.count_nonzero``. The package's
orthonormal FFT and per-slice sums give the same estimates in every nonzero
component, and bitwise the same EVM and counts.

The MI engine once allocated its spectra, its log-gains and its result
arrays on every call. The package's kernel builds the same values with the
same operations in buffers it is handed, so it stays bitwise equal to it.

The scenarios once wrote their CSV rows with one ``str.format`` call per
run (per point of a cdf curve, per report record), from ``{}`` and
``{:.12g}`` templates. The package fills ``%s`` and ``%.12g`` templates of
many rows with one ``%`` call; each pair of fields calls the same
conversion, so the text is the same byte for byte.
"""

from itertools import count

import numpy as np

from physlice.mi import MODE_EXACT
from physlice.transform import butterfly_mixer
from physlice.txrx import EQUALIZER_ERASURE_THRESHOLD, _hard_index

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


def scaled_receive(y, plan, gains):
    """Frame-order estimates and erasures of frames ``y`` through channels
    of frequency response ``gains``: an unnormalized DFT, then ``/= sqrt(N)``,
    then ``/= gains`` with 1 at the erased bins, gathered through the plan's
    ``bin_order``; erased bins set to 0."""
    magnitude = np.abs(gains)
    rms = np.sqrt(np.mean(np.square(magnitude), axis=-1, keepdims=True))
    erased = magnitude <= EQUALIZER_ERASURE_THRESHOLD * rms
    spectrum = np.fft.fft(y, axis=-1)
    spectrum /= np.sqrt(spectrum.shape[-1])
    spectrum /= np.where(erased, 1.0, gains)
    estimate = spectrum[..., plan.bin_order]
    erasures = np.broadcast_to(erased, spectrum.shape)[..., plan.bin_order]
    estimate[erasures] = 0.0
    return estimate, erasures


def loopback_statistics(estimate, sent, index, plan):
    """Per-slice EVM and symbol errors, (slices, R) each, of (R, N)
    frame-order estimates of the QPSK symbols ``sent`` of indices ``index``:
    the square root of the ratio of the slice's ``np.mean`` of
    |estimate - sent|^2 to its ``np.mean`` of |sent|^2, and the
    ``np.count_nonzero`` of the slice's hard decisions that miss ``index``."""
    error_power = np.square(np.abs(estimate - sent))
    power = np.square(np.abs(sent))
    wrong = _hard_index(estimate) != index
    evm = np.empty((len(plan.slices), len(estimate)))
    errors = np.empty(evm.shape, dtype=np.int64)
    for i, desc in enumerate(plan.slices):
        stretch = slice(desc.frame_offset, desc.frame_offset + desc.size)
        evm[i] = np.sqrt(np.mean(error_power[:, stretch], axis=-1) / np.mean(power[:, stretch], axis=-1))
        errors[i] = np.count_nonzero(wrong[:, stretch], axis=-1)
    return evm, errors


def log_gains(bins, rho):
    """Per-bin mutual information in bits, log2(1 + rho * |b|^2), of diagonal gains."""
    return np.log2(1.0 + rho * np.abs(bins) ** 2)


def chain_levels(taps, size, depth, rho, mode):
    """The chain engine on fresh arrays: root MI (B), and the positive and
    negative MI (B + (depth,)) of every level, from the taps' spectra."""
    spectrum = log_gains(np.fft.fft(taps, size), rho)
    total = spectrum.sum(axis=-1)
    positive, negative = (np.empty(total.shape + (depth,)) for _ in range(2))
    for level in range(1, depth + 1):
        if mode == MODE_EXACT:
            gains = spectrum[..., :: 1 << (level - 1)]
        else:
            half = size >> level
            gains = log_gains(np.fft.fft(taps[..., :half], 2 * half), rho)
        positive[..., level - 1] = gains[..., 0::2].sum(axis=-1)
        negative[..., level - 1] = gains[..., 1::2].sum(axis=-1)
    return total, positive, negative


def mi_rows(plan, start, mi):
    """Rows of an MI runs CSV for the runs ``start``, ``start + 1``, ... of
    the (R, slices) slice MI ``mi``: one ``str.format`` per run."""
    template = "".join(
        f"{{0}},{s.path},{s.size},{{{i}:.12g}},{s.decode_ops}\n" for i, s in enumerate(plan.slices, 1)
    )
    return "".join(template.format(run_id, *row) for run_id, row in enumerate(mi.tolist(), start))


def link_rows(plan, start, evm, errors):
    """Rows of the loopback runs CSV for the runs ``start``, ``start + 1``,
    ... of the (slices, R) EVM and symbol errors: one ``str.format`` per
    run, the EVM of slice i in field 1 + i, its errors in 1 + slices + i."""
    num_slices = len(plan.slices)
    template = "".join(
        f"{{0}},{desc.path},{{{1 + i}:.12g}},{{{1 + num_slices + i}}}\n" for i, desc in enumerate(plan.slices)
    )
    cells = zip(count(start), evm.T.tolist(), errors.T.tolist())
    return "".join(template.format(run_id, *run_evm, *run_errors) for run_id, run_evm, run_errors in cells)


def cdf_text(curves):
    """A cdf CSV of ``{name: EmpiricalCdf}``: the header, then one
    ``str.format`` per point, curve after curve."""
    rows = (
        f"{name},{{:.12g}},{{:.12g}}\n".format(x, p)
        for name, cdf in curves.items()
        for x, p in zip(cdf.values.tolist(), cdf.probs.tolist())
    )
    return "curve,x,cdf\n" + "".join(rows)


def report_text(records):
    """A fig4 or table1 report CSV: the header, then one ``str.format`` per
    (level, path, size, mode, mi_bits, parent_residual) record."""
    return "level,path,size,mode,mi_bits,parent_residual\n" + "".join(
        "{},{},{},{},{:.12g},{:.12g}\n".format(*record) for record in records
    )
