import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physlice.sliceplan import build_plan
from physlice.transform import butterfly_mixer, forward_transform, inverse_transform

from oracles import dense, recursive_forward, recursive_inverse, recursive_matrix, split_matrix

SQRT2 = np.sqrt(2.0)


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_mixer_size_8():
    expected = np.array([1, np.exp(1j * np.pi / 4), 1j, 1j * np.exp(1j * np.pi / 4)])
    np.testing.assert_allclose(butterfly_mixer(8), expected, atol=1e-15)


def test_mixer_size_4():
    np.testing.assert_allclose(butterfly_mixer(4), [1, 1j], atol=1e-15)


def test_mixer_size_2_is_identity_scalar():
    np.testing.assert_allclose(butterfly_mixer(2), [1.0], atol=1e-15)


@pytest.mark.parametrize("size", [2, 16, 256, 4096])
def test_mixer_unit_modulus(size):
    assert np.max(np.abs(np.abs(butterfly_mixer(size)) - 1.0)) < 1e-15


def test_mixer_rejects_bad_sizes():
    for bad in (0, 1, 3, 12):
        with pytest.raises(ValueError):
            butterfly_mixer(bad)


def test_split_matrix_size_2():
    expected = np.array([[1, 1], [1, -1]]) / SQRT2
    np.testing.assert_allclose(split_matrix(2), expected, atol=1e-15)


def test_split_matrix_size_4_block_assembly():
    expected = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1j], [1, 0, -1, 0], [0, 1, 0, -1j]],
        dtype=complex,
    ) / SQRT2
    np.testing.assert_allclose(split_matrix(4), expected, atol=1e-15)


@pytest.mark.parametrize("size", [2, 8, 64, 256])
def test_split_matrix_orthonormal(size):
    t = split_matrix(size)
    assert np.max(np.abs(t.conj().T @ t - np.eye(size))) < 1e-12


def test_split_matrix_accepts_identity_mixer():
    t = split_matrix(8, mixer=np.ones(4))
    assert np.max(np.abs(t.conj().T @ t - np.eye(8))) < 1e-12
    np.testing.assert_allclose(t[:4, 4:], np.eye(4) / SQRT2, atol=1e-15)


def test_split_matrix_rejects_mismatched_mixer():
    with pytest.raises(ValueError):
        split_matrix(8, mixer=np.ones(3))


def test_recursive_depth_zero_is_identity():
    np.testing.assert_allclose(recursive_matrix(4, 0), np.eye(4), atol=1e-15)


def test_recursive_depth_one_equals_single_split():
    np.testing.assert_allclose(recursive_matrix(4, 1), split_matrix(4), atol=1e-15)


def test_recursive_depth_two_structure():
    g = recursive_matrix(8, 2)
    assert np.max(np.abs(g.conj().T @ g - np.eye(8))) < 1e-12
    # Top-left quarter is the next-level transform scaled by this level's 1/sqrt(2).
    np.testing.assert_allclose(g[:4, :4], split_matrix(4) / SQRT2, atol=1e-14)


def test_recursive_rejects_oversize():
    with pytest.raises(ValueError):
        recursive_matrix(1024, 1)


@pytest.mark.parametrize("n,depth", [(2, 2), (8, 4)])
def test_recursive_rejects_excess_depth(n, depth):
    with pytest.raises(ValueError):
        recursive_matrix(n, depth)


def test_forward_equal_inputs():
    np.testing.assert_allclose(forward_transform([1, 1], 1), [SQRT2, 0], atol=1e-15)


def test_forward_opposed_inputs():
    np.testing.assert_allclose(forward_transform([1, -1], 1), [0, SQRT2], atol=1e-15)


def test_forward_matches_dense():
    rng = np.random.default_rng(64)
    s = random_complex(rng, 64)
    dense = recursive_matrix(64, 3) @ s
    assert np.max(np.abs(forward_transform(s, 3) - dense)) < 1e-12


def test_inverse_round_trip():
    rng = np.random.default_rng(128)
    s = random_complex(rng, 128)
    assert np.max(np.abs(inverse_transform(forward_transform(s, 5), 5) - s)) < 1e-12


def test_inverse_base_case():
    np.testing.assert_allclose(inverse_transform([SQRT2, 0], 1), [1, 1], atol=1e-15)


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(32)
    u = random_complex(rng, 32)
    v = random_complex(rng, 32)
    lhs = np.vdot(v, forward_transform(u, 4))
    rhs = np.vdot(inverse_transform(v, 4), u)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("n,depth", [(16, 1), (64, 3), (512, 9)])
def test_energy_preservation(n, depth):
    rng = np.random.default_rng(n + depth)
    s = random_complex(rng, n)
    assert abs(np.linalg.norm(forward_transform(s, depth)) - np.linalg.norm(s)) < 1e-12


def test_forward_rejects_length_mismatch():
    with pytest.raises(ValueError):
        forward_transform(np.ones(6), 1)
    with pytest.raises(ValueError):
        forward_transform(np.ones(8), 4)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_orthonormality_all_depths(n):
    for depth in range(n.bit_length()):
        g = recursive_matrix(n, depth)
        assert np.max(np.abs(g.conj().T @ g - np.eye(n))) < 1e-12


@pytest.mark.parametrize("n", [16, 64])
def test_single_split_block_diagonalizes_short_channels(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        taps = random_complex(rng, rng.integers(1, n // 2 + 1))
        gen = np.zeros(n, dtype=complex)
        gen[: taps.size] = taps
        h = dense(gen)
        g = recursive_matrix(n, 1)
        mixed = g.conj().T @ h @ g
        half = n // 2
        assert np.max(np.abs(mixed[:half, half:])) < 1e-10
        assert np.max(np.abs(mixed[half:, :half])) < 1e-10


@pytest.mark.parametrize("n", [2, 8, 64, 512])
def test_batched_transforms_equal_per_row_and_dense(n):
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    for depth in range(n.bit_length()):
        dense = recursive_matrix(n, depth)
        forward = forward_transform(rows, depth)
        inverse = inverse_transform(rows, depth)
        assert forward.shape == inverse.shape == rows.shape
        for row, fwd, inv in zip(rows, forward, inverse):
            np.testing.assert_array_equal(fwd, forward_transform(row, depth))
            np.testing.assert_array_equal(inv, inverse_transform(row, depth))
            assert np.max(np.abs(fwd - dense @ row)) < 1e-12
            assert np.max(np.abs(inv - dense.conj().T @ row)) < 1e-12


def test_batched_transforms_take_any_leading_shape():
    rng = np.random.default_rng(7)
    frames = rng.standard_normal((2, 3, 32)) + 1j * rng.standard_normal((2, 3, 32))
    flat = frames.reshape(6, 32)
    np.testing.assert_array_equal(forward_transform(frames, 4), forward_transform(flat, 4).reshape(2, 3, 32))
    np.testing.assert_array_equal(inverse_transform(frames, 4), inverse_transform(flat, 4).reshape(2, 3, 32))


def test_transforms_return_new_arrays_at_depth_zero():
    s = np.arange(4, dtype=np.complex128)
    assert forward_transform(s, 0) is not s and inverse_transform(s, 0) is not s
    np.testing.assert_array_equal(forward_transform(s, 0), s)


@pytest.mark.parametrize("log_n", range(13))
def test_level_loops_are_bitwise_the_recursion_and_leave_the_input_alone(log_n):
    rng = np.random.default_rng(log_n)
    frames = rng.standard_normal((2, 3, 1 << log_n)) + 1j * rng.standard_normal((2, 3, 1 << log_n))
    kept = frames.copy()
    for depth in range(log_n + 1):
        np.testing.assert_array_equal(forward_transform(frames, depth), recursive_forward(frames, depth))
        np.testing.assert_array_equal(inverse_transform(frames, depth), recursive_inverse(frames, depth))
    np.testing.assert_array_equal(frames, kept)


def test_writing_to_a_returned_mixer_leaves_the_transform_intact():
    butterfly_mixer(16)[:] = 0
    s = random_complex(np.random.default_rng(16), 16)
    assert np.max(np.abs(forward_transform(s, 2) - recursive_matrix(16, 2) @ s)) < 1e-12


@st.composite
def transform_cases(draw):
    """Frames of N = 2^1 .. 2^12 samples under a batch shape (), (R,) or
    (R1, R2), and a depth from 0 to log2 N."""
    log_n = draw(st.integers(1, 12))
    depth = draw(st.integers(0, log_n))
    batch = draw(
        st.one_of(st.just(()), st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 3), st.integers(1, 3)))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + (1 << log_n,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape), depth


@settings(max_examples=100, deadline=None)
@given(transform_cases())
def test_transform_round_trip_keeps_every_frame_and_its_norm(case):
    frames, depth = case
    forward = forward_transform(frames, depth)
    back = inverse_transform(forward, depth)
    assert forward.shape == back.shape == frames.shape
    assert np.max(np.abs(back - frames)) < 1e-12
    norms = np.linalg.norm(frames, axis=-1)
    assert np.all(np.abs(np.linalg.norm(forward, axis=-1) - norms) < 1e-12 * norms)
    for index in np.ndindex(frames.shape[:-1]):
        np.testing.assert_array_equal(forward[index], forward_transform(frames[index], depth))
        np.testing.assert_array_equal(back[index], inverse_transform(forward[index], depth))

    # The frequency-domain half: per-slice unitary IDFTs followed by the
    # transform are one unitary IDFT of the slices scattered onto their bins
    # by the plan's order, and the adjoint followed by per-slice DFTs is one
    # unitary DFT gathered by it.
    plan = build_plan(frames.shape[-1], depth, 0)
    order = plan.bin_order
    stretches = [slice(d.frame_offset, d.frame_offset + d.size) for d in plan.slices]
    tolerance = 1e-12 * np.sqrt(np.mean(np.abs(frames) ** 2, axis=-1, keepdims=True))
    spectrum = np.empty_like(frames)
    spectrum[..., order] = frames
    per_slice = np.concatenate([np.fft.ifft(frames[..., stretch], norm="ortho") for stretch in stretches], axis=-1)
    assert np.all(np.abs(forward_transform(per_slice, depth) - np.fft.ifft(spectrum, norm="ortho")) <= tolerance)
    adjoint = inverse_transform(frames, depth)
    per_slice = np.concatenate([np.fft.fft(adjoint[..., stretch], norm="ortho") for stretch in stretches], axis=-1)
    assert np.all(np.abs(per_slice - np.fft.fft(frames, norm="ortho")[..., order]) <= tolerance)
