import re

import numpy as np
import pytest

from physlice.spectral import dft, freq_response, idft, is_pow2, logdet2_psd


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_dft_delta_gives_flat_spectrum():
    out = dft([1, 0, 0, 0])
    np.testing.assert_allclose(out, np.full(4, 0.5 + 0j), atol=1e-15)


def test_dft_constant_gives_delta():
    out = dft([1, 1, 1, 1])
    np.testing.assert_allclose(out, [2, 0, 0, 0], atol=1e-15)


def test_dft_parseval_unitary():
    rng = np.random.default_rng(11)
    x = random_complex(rng, 16)
    assert abs(np.linalg.norm(dft(x)) - np.linalg.norm(x)) < 1e-12


def test_idft_inverts_dft():
    rng = np.random.default_rng(5)
    x = random_complex(rng, 8)
    np.testing.assert_allclose(idft(dft(x)), x, atol=1e-12)


def test_idft_delta():
    np.testing.assert_allclose(idft([2, 0, 0, 0]), [1, 1, 1, 1], atol=1e-15)


def test_idft_single_tone():
    # Direct evaluation of the unitary inverse transform on bin 1.
    expected = np.array([1, 1j, -1, -1j])
    np.testing.assert_allclose(idft([0, 2, 0, 0]), expected, atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 16, 64, 256, 1024, 4096])
def test_unitary_round_trip_all_sizes(n):
    rng = np.random.default_rng(n)
    x = random_complex(rng, n)
    assert np.max(np.abs(idft(dft(x)) - x)) < 1e-12


@pytest.mark.parametrize("bad_size", [3, 6, 12])
def test_dft_rejects_non_power_of_two(bad_size):
    with pytest.raises(ValueError):
        dft(np.ones(bad_size))
    with pytest.raises(ValueError):
        idft(np.ones(bad_size))


@pytest.mark.parametrize("transform", [dft, idft])
@pytest.mark.parametrize(
    "bad, message",
    [
        ([1.0, np.nan, 0.0, 0.0], "non-finite"),
        ([1.0, 0.0, np.inf, 0.0], "non-finite"),
        (np.ones((2, 2)), "one-dimensional"),
    ],
)
def test_transforms_reject_non_finite_and_non_vector_input(transform, bad, message):
    with pytest.raises(ValueError, match=message):
        transform(bad)


def test_is_pow2():
    assert [is_pow2(n) for n in (1, 2, 3, 4, 6, 8)] == [True, True, False, True, False, True]


def test_logdet_identity_is_zero():
    assert logdet2_psd(np.eye(8)) == pytest.approx(0.0, abs=1e-12)


def test_logdet_diag_two():
    assert logdet2_psd(np.diag([2.0, 2.0])) == pytest.approx(2.0, abs=1e-12)


def test_logdet_matches_eigenvalue_sum():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = np.eye(6) + g @ g.conj().T
    expected = float(np.sum(np.log2(np.linalg.eigvalsh(a))))
    assert logdet2_psd(a) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("sizes", [(2, 3), (4, 4), (8, 16), (20, 12)])
def test_logdet_block_diagonal_additivity(sizes):
    rng = np.random.default_rng(sum(sizes))
    blocks = []
    for n in sizes:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(np.eye(n) + g @ g.conj().T)
    combined = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    offset = 0
    for b in blocks:
        combined[offset : offset + b.shape[0], offset : offset + b.shape[0]] = b
        offset += b.shape[0]
    assert logdet2_psd(combined) == pytest.approx(sum(logdet2_psd(b) for b in blocks), rel=1e-10)


@pytest.mark.parametrize("shape", [(2, 3), (4,)])
def test_logdet_rejects_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {shape}")):
        logdet2_psd(np.ones(shape))


def test_logdet_rejects_non_hermitian():
    a = np.eye(4, dtype=complex)
    a[0, 1] = 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        logdet2_psd(a)


def test_logdet_rejects_singular():
    with pytest.raises(ValueError, match="positive definite"):
        logdet2_psd(np.zeros((3, 3)))


def test_freq_response_single_tap_is_flat():
    np.testing.assert_allclose(freq_response([1], 4), np.ones(4), atol=1e-15)


def test_freq_response_delayed_tap():
    # Direct evaluation: H(l) = exp(-j*2*pi*l/4) for a unit tap at delay 1.
    expected = np.array([1, -1j, -1, 1j])
    np.testing.assert_allclose(freq_response([0, 1], 4), expected, atol=1e-15)


def test_freq_response_two_taps_size_two():
    np.testing.assert_allclose(freq_response([1, 1], 2), [2, 0], atol=1e-15)


def test_freq_response_rejects_too_many_taps():
    with pytest.raises(ValueError):
        freq_response(np.ones(5), 4)


def test_freq_response_takes_an_integer_bin_count():
    np.testing.assert_array_equal(freq_response([1.0, 2.0], np.int64(4)), freq_response([1.0, 2.0], 4))
    for bad in (2.5, 4.0, "4", None):
        with pytest.raises(TypeError, match="n_bins must be an integer"):
            freq_response([1.0], bad)


def test_freq_response_circular_shift_phase_law():
    rng = np.random.default_rng(9)
    n = 32
    h = np.zeros(n, dtype=complex)
    h[:7] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    base = freq_response(h, n)
    for shift in (1, 3, 11):
        shifted = freq_response(np.roll(h, shift), n)
        phase = np.exp(-2j * np.pi * np.arange(n) * shift / n)
        np.testing.assert_allclose(shifted, base * phase, atol=1e-12)
