"""Dense-matrix oracles, and earlier link and transform designs, kept as references.

The package never builds a channel or transform matrix. The tests hold it
to dense forms kept here at oracle scale: ``dense`` (the circulant matrix
of a generator, such as the taps zero-padded by ``pad``),
``extract_blocks`` (its half blocks),
``split_matrix`` and ``recursive_matrix`` (the split transform as a
matrix), and ``mi_logdet`` (MI as a Cholesky log-det). The size caps keep
them from being called at frame scale.

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

from physlice.channel import _lagged_circulant
from physlice.mi import MODE_EXACT
from physlice.sliceplan import check_plan
from physlice.spectral import is_pow2, logdet2_psd
from physlice.transform import butterfly_mixer
from physlice.txrx import EQUALIZER_ERASURE_THRESHOLD, _hard_index

SQRT2 = np.sqrt(2.0)

# Dense log-det evaluations stay at oracle scale.
_LOGDET_CAP = 512

# Dense materializations are oracle-scale only.
_DENSE_CAP = 512


def random_taps(rng, length):
    """``length`` complex taps with standard normal real and imaginary parts."""
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def pad(taps, size):
    """The generator of the size-``size`` circulant of (L,) taps, L <= size: the taps zero-padded."""
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim != 1 or taps.size > size:
        raise ValueError(f"expected at most {size} taps of shape (L,), got {taps.shape}")
    generator = np.zeros(size, dtype=np.complex128)
    generator[: taps.size] = taps
    return generator


def dense(generator):
    """Dense circulant matrix of a 1-D generator (oracle scale): entry (i, j) = g[(i - j) mod size]."""
    g = np.asarray(generator, dtype=np.complex128)
    if g.ndim != 1:
        raise ValueError(f"expected one generator of shape (n,), got {g.shape}")
    return _lagged_circulant(g, g.size)[1]


def extract_blocks(generator):
    """Top-left and top-right half blocks (A, B) with dense(g) == [[A, B], [B, A]]."""
    matrix = dense(generator)
    if len(matrix) % 2:
        raise ValueError("block extraction needs an even size")
    half = len(matrix) // 2
    return matrix[:half, :half].copy(), matrix[:half, half:].copy()


def mi_logdet(channel, rho):
    """Exact mutual information in bits: log2 det(I + rho * H H^H).

    ``channel`` is a 1-D circulant generator or a dense square matrix;
    oracle scale only (size <= 512).
    """
    h = dense(channel) if np.ndim(channel) == 1 else np.asarray(channel, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square channel matrix, got shape {h.shape}")
    n = h.shape[0]
    if n > _LOGDET_CAP:
        raise ValueError(f"dense log-det MI is capped at size {_LOGDET_CAP}, got {n}")
    gram = np.eye(n, dtype=np.complex128) + rho * (h @ h.conj().T)
    return logdet2_psd(gram)


def split_matrix(size, mixer=None):
    """Dense one-step split of ``size`` samples: (1/sqrt(2)) [[I, W], [I, -W]].

    ``mixer`` is the length size/2 diagonal of W (default:
    ``butterfly_mixer``); pass ``np.ones(size // 2)`` for the plain W = I
    variant used by the direct decoder analysis.
    """
    if not is_pow2(size) or size < 2:
        raise ValueError(f"split size must be a power of two >= 2, got {size}")
    half = size // 2
    w = butterfly_mixer(size) if mixer is None else np.asarray(mixer, dtype=np.complex128)
    if w.shape != (half,):
        raise ValueError(f"mixer diagonal has {w.size} entries, expected {half}")
    eye = np.eye(half, dtype=np.complex128)
    w = np.diag(w)
    return np.block([[eye, w], [eye, -w]]) / SQRT2


def recursive_matrix(frame_size, depth):
    """Dense recursive transform: ``depth`` nested splits, identity at depth 0.

    Each level replaces the identity column of the one-step split with the
    next-level transform and contributes a 1/sqrt(2) factor, so the result is
    orthonormal at every depth. Oracle use only (frame_size <= 512).
    """
    check_plan(frame_size, depth)
    if frame_size > _DENSE_CAP:
        raise ValueError(f"dense recursive transform is capped at size {_DENSE_CAP}")
    return _recursive_dense(frame_size, depth)


def _recursive_dense(n, depth):
    if depth == 0:
        return np.eye(n, dtype=np.complex128)
    inner = _recursive_dense(n // 2, depth - 1)
    w = np.diag(butterfly_mixer(n))
    return np.block([[inner, w], [inner, -w]]) / SQRT2


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


def erased_bins(gains):
    """The bins the equalizer erases, of the gains' shape: those whose
    |gain| is at most the threshold times the frame's RMS gain, both taken
    on the frame's |gains| scaled by the power of two that brings the
    largest into [1/2, 1), so that no square overflows."""
    magnitude = np.abs(gains)
    magnitude = np.ldexp(magnitude, -np.frexp(magnitude.max(axis=-1, keepdims=True))[1])
    return magnitude <= EQUALIZER_ERASURE_THRESHOLD * np.sqrt(np.mean(np.square(magnitude), axis=-1, keepdims=True))


def tuple_receive(y, plan, gains):
    """Per-slice estimates and erasures of frames ``y`` through channels of
    frequency response ``gains``: recursive adjoint, unitary DFT per slice,
    one-tap zero forcing, erased bins (:func:`erased_bins`) set to 0."""
    erased = erased_bins(gains)
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
    then ``/= gains`` with 1 at the erased bins (:func:`erased_bins`),
    gathered through the plan's ``bin_order``; erased bins set to 0."""
    erased = erased_bins(gains)
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
    """A cdf CSV of ``{name: samples}``: the header, then one
    ``str.format`` per point, curve after curve: the k-th of the n sorted
    samples (``np.sort``) at cdf k / n."""
    rows = (
        f"{name},{{:.12g}},{{:.12g}}\n".format(x, k / len(xs))
        for name, samples in curves.items()
        for xs in [np.sort(samples).tolist()]
        for k, x in enumerate(xs, 1)
    )
    return "curve,x,cdf\n" + "".join(rows)


def cdf_quantile(samples, p):
    """The p-quantile, p in (0, 1], of the step empirical cdf of ``samples``
    that the cdf files plot: the smallest sample whose cdf k / n is at
    least p, found by ``searchsorted`` of p in the (n,) column of k / n."""
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    probs = np.arange(1, values.size + 1, dtype=float) / values.size
    return float(values[np.searchsorted(probs, p)])


def report_text(records):
    """A fig4 or table1 report CSV: the header, then one ``str.format`` per
    (level, path, size, mode, mi_bits, parent_residual) record."""
    return "level,path,size,mode,mi_bits,parent_residual\n" + "".join(
        "{},{},{},{},{:.12g},{:.12g}\n".format(*record) for record in records
    )
