"""Complex spectral kernels shared by the whole package.

Two normalization conventions deliberately coexist:

* ``dft`` / ``idft`` are the unitary pair (scale 1/sqrt(N)); the link's
  transmit and receive are one N-point pair of them, so every stage
  preserves energy and mutual information.
* ``freq_response`` returns plain, unnormalized DFT bins of a tap sequence.
  Those are the eigenvalues of the circulant channel matrix and the per-bin
  gains a one-tap equalizer divides by.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["is_pow2", "dft", "idft", "logdet2_psd", "freq_response"]

# Inputs to logdet2_psd are constructed, not measured, so a Hermitian
# violation beyond this (relative) tolerance indicates a caller bug.
HERMITIAN_RTOL = 1e-10


def is_pow2(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n >= 1 and (n & (n - 1)) == 0


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _transform_input(x) -> np.ndarray:
    x = _as_vector(x, "x")
    if not is_pow2(x.size):
        raise ValueError(f"transform size must be a power of two, got {x.size}")
    return x


def dft(x) -> np.ndarray:
    """Unitary forward DFT of a power-of-two length vector."""
    x = _transform_input(x)
    return np.fft.fft(x) / np.sqrt(x.size)


def idft(x) -> np.ndarray:
    """Unitary inverse DFT, the exact inverse of :func:`dft`."""
    x = _transform_input(x)
    return np.fft.ifft(x) * np.sqrt(x.size)


def logdet2_psd(a) -> float:
    """log2 of the determinant of a Hermitian positive-definite matrix.

    Uses a Cholesky factorization, which is numerically stable for the
    well-conditioned ``I + rho * H H^H`` matrices this package produces.

    Raises ``ValueError`` if the input is not Hermitian within
    ``HERMITIAN_RTOL`` (relative to the matrix magnitude) or if the
    factorization hits a non-positive pivot (numerically singular input).
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if a.size and float(np.max(np.abs(a - a.conj().T))) > HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        chol = np.linalg.cholesky((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as err:
        raise ValueError(
            "matrix is not positive definite (singular to working precision)"
        ) from err
    return float(2.0 * np.sum(np.log2(np.real(np.diag(chol)))))


def freq_response(taps, n_bins: int) -> np.ndarray:
    """Plain ``n_bins``-point DFT of a zero-padded tap sequence.

    Unnormalized on purpose: bin ``l`` is the eigenvalue of the size
    ``n_bins`` circulant channel built from ``taps``, i.e. the gain a
    one-tap equalizer divides by after the unitary TX/RX pair.
    """
    taps = _as_vector(taps, "taps")
    try:
        n_bins = operator.index(n_bins)
    except TypeError:
        raise TypeError(f"n_bins must be an integer, got {n_bins!r}") from None
    if taps.size > n_bins:
        raise ValueError(f"{taps.size} taps do not fit in {n_bins} bins")
    return np.fft.fft(taps, n_bins)
