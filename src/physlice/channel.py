"""Tapped-delay-line channel models and circulant channel algebra.

A channel profile (delays in ns, mean tap powers in dB) is sampled into a
discrete impulse response on the OFDM sampling grid. :func:`draw_taps` draws
a batch of realizations at once, one per random stream, straight into one
zero-padded (R, L) array; the profile's grid (tap indices, Rayleigh
scales and the columns the draws add into) is computed once per (profile,
sampling period) and cached.
:func:`sample_cir` is its batch-of-one case, an (L,) array.

A channel is its taps, an SNR is its linear rho, noiseless is ``inf``:
throughout the package a channel is a complex (L,) array of taps, or batch +
(L,) for one zero-padded channel per frame. Every public function that takes
taps checks them once, with :func:`check_taps`. Its size-n circulant matrix
is its generator (first column), the taps zero-padded to n. The two
half-size descendants of one split are computed directly on generators, a
complex (..., n) array with one generator per leading index, so a batch
folds in one call:

* positive branch: fold the generator in half (a no-op when the taps already
  fit in the half size);
* negative branch: fold with a sign flip, then modulate each tap by one
  discrete frequency of the parent size.

:func:`positive_child` and :func:`negative_child` are the paper's generator
algebra as library API: ``table1`` folds its channel down to the continuation
root with them. No dense circulant matrix is built here; the tests keep that
oracle. The literal triangular-block constructions serve the non-uniform
splitting analysis. They are numpy gathers from one grid of lags i - j: the
size-``size`` circulant of the taps reads them at (i - j) mod size, and the
lower-triangular block and its wraparound complement are the parts of that
circulant on and below, and above, the diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sliceplan import _integer
from .spectral import is_pow2

__all__ = [
    "ChannelProfile",
    "ETU_PROFILE",
    "EPA_PROFILE",
    "BUILTIN_PROFILES",
    "load_profile",
    "profile_tap_count",
    "draw_taps",
    "sample_cir",
    "check_taps",
    "positive_child",
    "negative_child",
    "lower_triangular_toeplitz",
    "circular_complement",
    "split_coupling",
]


@dataclass(frozen=True)
class ChannelProfile:
    """Tapped-delay-line power/delay profile."""

    name: str
    tap_delays_ns: tuple[float, ...]
    tap_powers_db: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "tap_delays_ns", tuple(float(d) for d in self.tap_delays_ns))
        object.__setattr__(self, "tap_powers_db", tuple(float(p) for p in self.tap_powers_db))
        if len(self.tap_delays_ns) != len(self.tap_powers_db):
            raise ValueError("tap delay and power lists must have equal length")
        if not all(map(math.isfinite, self.tap_delays_ns + self.tap_powers_db)):
            raise ValueError("tap delays and powers must be finite numbers")
        if not self.tap_delays_ns or self.tap_delays_ns[0] != 0.0:
            raise ValueError("tap delays must start at 0 ns")
        if any(b <= a for a, b in zip(self.tap_delays_ns, self.tap_delays_ns[1:])):
            raise ValueError("tap delays must be strictly increasing")
        with np.errstate(over="ignore", under="ignore"):
            total = float(np.sum(10.0 ** (np.asarray(self.tap_powers_db) / 10.0)))
        if not 0.0 < total < math.inf:
            raise ValueError("tap powers span too wide a range of dB to normalize")


# 3GPP reference tapped-delay-line models (Extended Typical Urban and
# Extended Pedestrian A).
ETU_PROFILE = ChannelProfile(
    "ETU",
    (0.0, 50.0, 120.0, 200.0, 230.0, 500.0, 1600.0, 2300.0, 5000.0),
    (-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -3.0, -5.0, -7.0),
)
EPA_PROFILE = ChannelProfile(
    "EPA",
    (0.0, 30.0, 70.0, 90.0, 110.0, 190.0, 410.0),
    (0.0, -1.0, -2.0, -3.0, -8.0, -17.2, -20.8),
)

BUILTIN_PROFILES = {"etu": ETU_PROFILE, "epa": EPA_PROFILE}


def _read_key_values(path, keys, kind: str) -> dict[str, str]:
    """The ``key = value`` lines of a flat text file (split at the first
    ``=``; blank and ``#`` lines skipped; keys lower-cased), each key in
    ``keys`` and at most once."""
    values: dict[str, str] = {}
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}, line {number}"
        if "=" not in line:
            raise ValueError(f"{where}: malformed {kind} line (expected key = value): {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in keys:
            raise ValueError(f"{where}: unknown {kind} key {key!r}, expected one of {sorted(keys)}")
        if key in values:
            raise ValueError(f"{where}: repeated {kind} key {key!r}")
        values[key] = value
    return values


def load_profile(path) -> ChannelProfile:
    """Read a profile from a plain-text key-value file.

    Keys: ``delays_ns`` and ``powers_db`` (comma or whitespace separated
    lists) and an optional ``name``, each at most once. Lines starting with
    ``#`` are ignored.
    """
    fields = _read_key_values(path, {"name", "delays_ns", "powers_db"}, "profile")

    def numbers(key: str) -> tuple[float, ...]:
        if key not in fields:
            raise ValueError(f"{path}: profile file is missing key {key!r}")
        try:
            return tuple(float(word) for word in fields[key].replace(",", " ").split())
        except ValueError:
            raise ValueError(f"{path}: profile key {key!r} must be a list of numbers, got {fields[key]!r}") from None

    return ChannelProfile(fields.get("name", Path(path).stem), numbers("delays_ns"), numbers("powers_db"))


def _check_period(sample_period_ns) -> float:
    period = float(sample_period_ns)
    if not 0.0 < period < math.inf:
        raise ValueError(f"sample period must be a positive finite number of ns, got {sample_period_ns}")
    return period


@functools.lru_cache(maxsize=32)
def _profile_grid(profile: ChannelProfile, sample_period_ns: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tap indices round(delay / Ts) and Rayleigh scales sqrt(p / 2)
    of a profile's K taps, powers normalized to a unit sum, and the 2K
    columns that their real, then their imaginary parts add into in the
    float view of (R, L) complex taps: 2i and 2i + 1 for tap index i;
    computed once per (profile, Ts)."""
    with np.errstate(over="ignore"):
        spans = np.rint(np.asarray(profile.tap_delays_ns) / sample_period_ns)
    if not spans[-1] < 2**62:
        raise ValueError(
            f"a {profile.tap_delays_ns[-1]:g} ns delay spread is too long for a {sample_period_ns:g} ns sample period"
        )
    powers = 10.0 ** (np.asarray(profile.tap_powers_db) / 10.0)
    powers /= powers.sum()
    idx = spans.astype(int)
    scale = np.sqrt(powers / 2.0)
    columns = np.concatenate((2 * idx, 2 * idx + 1))
    for array in (idx, scale, columns):
        array.setflags(write=False)
    return idx, scale, columns


def profile_tap_count(profile: ChannelProfile, sample_period_ns: float) -> int:
    """Number of discrete taps a profile occupies at the given sampling period."""
    idx, _, _ = _profile_grid(profile, _check_period(sample_period_ns))
    return int(idx[-1]) + 1


def draw_taps(profile: ChannelProfile, sample_period_ns: float, rngs) -> np.ndarray:
    """Draw one channel realization per Generator in ``rngs``, as zero-padded
    taps of shape (R, L), L = :func:`profile_tap_count`.

    Each profile tap is a zero-mean circularly symmetric complex Gaussian
    (Rayleigh envelope) with variance from its mean power, placed at index
    round(delay / Ts); taps mapping to the same index add up, in profile
    order. Powers are normalized so the expected total channel power is 1.
    Row r takes from ``rngs[r]`` the K real parts, then the K imaginary
    parts of the profile's K taps, and nothing else.

    This is the validated entry point: it checks its inputs, makes the
    arrays and runs the private kernel :func:`_draw_taps_into`, which the
    Monte Carlo scenarios call on buffers they make once.
    """
    period = _check_period(sample_period_ns)
    rngs = list(rngs)
    if not all(isinstance(rng, np.random.Generator) for rng in rngs):
        raise TypeError("draw_taps takes one numpy Generator per realization")
    _, scale, columns = _profile_grid(profile, period)
    taps = np.empty((len(rngs), profile_tap_count(profile, period)), dtype=np.complex128)
    _draw_taps_into(rngs, scale, columns, np.empty((len(rngs), 2, scale.size)), taps)
    return taps


def _draw_taps_into(rngs, scale: np.ndarray, columns: np.ndarray, draws: np.ndarray, taps: np.ndarray) -> None:
    """:func:`draw_taps` of the Generators ``rngs``, unchecked, into
    ``taps``, a C-contiguous complex (R, L) array that is zeroed first.
    ``scale`` and ``columns`` are :func:`_profile_grid`'s, and ``draws`` is a
    float (R, 2, K) scratch array."""
    _normals_into(rngs, draws)
    draws *= scale
    taps.fill(0)
    # A complex sum adds the real and the imaginary parts apart, so the
    # float view takes the same sums; np.add.at adds taps that land on one
    # index in profile order.
    np.add.at(taps.view(np.float64), (slice(None), columns), draws.reshape(len(draws), columns.size))


def _normals_into(rngs, out: np.ndarray) -> np.ndarray:
    """The package's one per-run normals loop, unchecked: row i of ``out``
    is one ``standard_normal`` fill by Generator ``rngs[i]``; returns ``out``."""
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    return out


def _spectrum_into(taps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The n-point FFT of each row of ``taps``, batch + (L,) with L <= n,
    into the complex batch + (n,) array ``out``, which it returns; bitwise
    ``np.fft.fft(taps, n, axis=-1)``. The taps are copied into the head of
    ``out``, its tail is zeroed, and ``out`` is transformed in place. numpy's
    FFT loop hands a batch to pocketfft's multi-row SIMD transform only when
    each input row holds at least n samples; a shorter row is zero-padded
    and transformed one row at a time."""
    length = taps.shape[-1]
    out[..., :length] = taps
    out[..., length:] = 0.0
    return np.fft.fft(out, axis=-1, out=out)


def sample_cir(profile: ChannelProfile, sample_period_ns: float, rng) -> np.ndarray:
    """Draw one channel realization from a profile, as (L,) taps:
    :func:`draw_taps` of one stream (a Generator, or a seed for a new one)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return draw_taps(profile, sample_period_ns, [rng])[0]


def check_taps(taps, n_bins: int, batch: tuple[int, ...] | None = None) -> np.ndarray:
    """``taps`` as a complex array of zero-padded channels, checked: L >= 1
    taps per channel, all finite, and L <= ``n_bins``.

    With ``batch`` None any leading shape is accepted, one channel per
    index. Otherwise the taps are one channel shared by every frame, (L,),
    or one channel per frame of a batch of that shape, batch + (L,).
    """
    try:
        taps = np.asarray(taps, dtype=np.complex128)
    except ValueError as err:
        raise ValueError("taps must be numbers, one channel or several: zero-pad the channels to one length L") from err
    if taps.ndim == 0 or taps.shape[-1] == 0:
        raise ValueError(f"taps must be a non-empty sequence per channel, got shape {taps.shape}")
    if batch is not None and taps.shape[:-1] not in ((), tuple(batch)):
        per_frame = f" or ({', '.join(map(str, batch))}, L)" if batch else ""
        raise ValueError(f"expected taps of shape (L,){per_frame}, got {taps.shape}")
    if taps.shape[-1] > n_bins:
        raise ValueError(f"{taps.shape[-1]} taps do not fit in {n_bins} bins")
    if not np.all(np.isfinite(taps)):
        raise ValueError("taps contain non-finite entries")
    return taps


def _check_generator(generator) -> np.ndarray:
    """``generator`` as a complex (..., n) array of circulant generators,
    checked: n a power of two of at least 2 (a size-1 channel does not
    split), all entries finite."""
    gen = np.asarray(generator, dtype=np.complex128)
    size = gen.shape[-1] if gen.ndim else 0
    if not is_pow2(size) or size < 2:
        raise ValueError(f"generators must have a power-of-two size of at least 2, got shape {gen.shape}")
    if not np.all(np.isfinite(gen)):
        raise ValueError("generator contains non-finite entries")
    return gen


def _finite(message: str, value, *more):
    """``value``, checked with the arrays ``more`` to hold only finite
    entries; a ValueError with ``message`` otherwise. The package's one check
    of a result that finite inputs made under ``np.errstate(over="ignore",
    invalid="ignore")``: near the float maximum a fold, a product or an FFT
    overflows, and this raises in place of numpy's warning and the
    non-finite result."""
    if not all(np.all(np.isfinite(array)) for array in (value, *more)):
        raise ValueError(message)
    return value


_FOLD_OVERFLOW = "child generator overflows a float: the generator's entries are too large to fold"


def positive_child(generator) -> np.ndarray:
    """Generators (..., n/2) of the half-size circulants of the positive
    branch: each generator (..., n) folded in half.

    When the taps fit in the half size the fold is a no-op, so the child is
    the original channel at half size.
    """
    g = _check_generator(generator)
    half = g.shape[-1] // 2
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_FOLD_OVERFLOW, g[..., :half] + g[..., half:])


def negative_child(generator) -> np.ndarray:
    """Generators (..., n/2) of the half-size circulants of the mixed
    negative branch of each generator (..., n).

    Generator: (g_k - g_{k + n/2}) * exp(-j*2*pi*k/n). For taps that fit in
    the half size this is exactly the original impulse response modulated at
    one discrete frequency of the parent size.
    """
    g = _check_generator(generator)
    size = g.shape[-1]
    half = size // 2
    modulation = np.exp(-2j * np.pi * np.arange(half) / size)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_FOLD_OVERFLOW, (g[..., :half] - g[..., half:]) * modulation)


def _lagged_circulant(taps, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Lags i - j of a size-by-size matrix, and the circulant of the first
    ``size`` taps (zero-padded) gathered on them: a negative lag wraps to
    (i - j) mod size."""
    head = np.asarray(taps, dtype=np.complex128)[:size]
    col = np.zeros(size, dtype=np.complex128)
    col[: head.size] = head
    index = np.arange(size)
    lag = index[:, None] - index
    return lag, col[lag]


def lower_triangular_toeplitz(taps, size: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrix whose first column is the tap sequence.

    Entry (i, j) = taps[i - j] for i >= j, zero elsewhere. Taps beyond
    ``size`` are dropped; shorter sequences are zero-padded. This is the
    literal in-block part of the channel at a given slice size.
    """
    lag, circulant = _lagged_circulant(taps, size)
    return np.where(lag >= 0, circulant, 0)


def circular_complement(taps, size: int) -> np.ndarray:
    """Strictly upper-triangular wraparound companion of the triangular block.

    Entry (i, j) = taps[size + i - j] for i < j, zero elsewhere: the part of
    the cyclic-prefix wraparound that lands above the diagonal. Together with
    :func:`lower_triangular_toeplitz` it sums to the size-``size`` circulant
    whenever the taps fit (L <= size).
    """
    lag, circulant = _lagged_circulant(taps, size)
    return np.where(lag < 0, circulant, 0)


def split_coupling(taps, frame_size: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Quarter-scale triangular sub-blocks behind the uniform-splitting bound.

    Decomposes the size N/4 in-block channel into its N/8 lower-triangular
    Toeplitz block ``low`` and the N/8 cross-boundary block ``wrap`` and
    returns ``(low, wrap, coupling)`` where ``coupling`` is the spectral norm
    of ``wrap @ low^H``. That product is the only term that differs between
    the two branches' Gram matrices, so a small coupling means both branches
    carry nearly equal mutual information.
    """
    frame_size = _integer("frame size", frame_size)
    if not is_pow2(frame_size) or frame_size < 8:
        raise ValueError(f"frame size must be a power of two >= 8, got {frame_size}")
    quarter = frame_size // 4
    eighth = frame_size // 8
    block = lower_triangular_toeplitz(check_taps(taps, quarter, ()), quarter)
    low = block[:eighth, :eighth].copy()
    wrap = block[eighth:, :eighth].copy()
    return low, wrap, _gram_norm((wrap, low))


def _gram_norm(*pairs) -> float:
    """Spectral norm of the sum of ``a @ b^H`` over the ``(a, b)`` block
    ``pairs``. Products that overflow a float raise a ValueError before the
    norm, whose LAPACK call would print to stdout and return NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = sum(a @ b.conj().T for a, b in pairs)
    return float(np.linalg.norm(_finite("a product of the split's Toeplitz blocks overflows a float", gram), 2))
