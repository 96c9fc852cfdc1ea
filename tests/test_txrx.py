import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from physlice.channel import circular_complement, lower_triangular_toeplitz
from physlice.sliceplan import build_plan
from physlice.spectral import idft
from physlice.transform import forward_transform, inverse_transform
from physlice.txrx import (
    _QPSK,
    _propagate_into,
    _qpsk_index,
    _receive,
    _receive_into,
    _unitary_idft,
    EQUALIZER_ERASURE_THRESHOLD,
    OfdmFrame,
    SlicePayload,
    demodulate,
    iterative_decode,
    modulate,
    nearest_symbols,
    propagate,
    receive,
    transmit,
    triangular_toeplitz_inverse,
)

from oracles import (
    dense,
    erased_bins,
    pad,
    random_taps,
    recursive_forward,
    recursive_inverse,
    recursive_matrix,
    slice_tuple,
    tuple_receive,
    tuple_transmit,
)


def zero_padded(channels):
    """Tap sequences of different lengths as one zero-padded (R, L) array."""
    taps = np.zeros((len(channels), max(len(c) for c in channels)), dtype=complex)
    for row, channel in zip(taps, channels):
        row[: len(channel)] = channel
    return taps


def random_payload(rng, plan):
    return modulate(rng.integers(0, 2, 2 * plan.frame_size), plan)


def linear_oracle(frame, taps):
    """Post-CP samples of the linear convolution of (CP || body) with the taps."""
    cp, n = frame.plan.cp_length, frame.plan.frame_size
    full = np.concatenate([frame.cyclic_prefix, frame.body])
    return np.convolve(full, taps)[cp : cp + n]


def oracle_noise(seed, n, rho):
    rng = np.random.default_rng(seed)
    return np.sqrt(1.0 / (2.0 * rho)) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_link(rng):
    """A random plan with a channel the CP covers: N, depth, L <= cp <= N."""
    n = 1 << int(rng.integers(1, 11))
    depth = int(rng.integers(0, n.bit_length()))
    cp = int(rng.integers(1, n + 1))
    return build_plan(n, depth, cp), int(rng.integers(1, cp + 1))


@st.composite
def noiseless_links(draw):
    """N from 2 to 2048, a depth that fits it, L <= cp <= N, 1-4 frames, and
    the seed of the generator that draws each frame's bits and channel."""
    n = 1 << draw(st.integers(1, 11))
    depth = draw(st.integers(0, n.bit_length() - 1))
    cp = draw(st.integers(1, n))
    return build_plan(n, depth, cp), draw(st.integers(1, cp)), draw(st.integers(1, 4)), draw(st.integers(0, 2**32))


class TestModulation:
    def test_qpsk_gray_map(self):
        plan = build_plan(4, 0, 0)
        payload = modulate([0, 0, 0, 1, 1, 1, 1, 0], plan)
        s = np.sqrt(0.5)
        np.testing.assert_allclose(
            payload.symbols[0],
            [s + 1j * s, s - 1j * s, -s - 1j * s, -s + 1j * s],
            atol=1e-15,
        )

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        plan = build_plan(64, 2, 0)
        bits = rng.integers(0, 2, 128)
        assert np.array_equal(demodulate(modulate(bits, plan)), bits)

    def test_unit_average_power(self):
        rng = np.random.default_rng(1)
        plan = build_plan(256, 3, 0)
        payload = random_payload(rng, plan)
        power = np.mean(np.abs(payload.frames) ** 2)
        assert power == pytest.approx(1.0, abs=1e-12)

    def test_bit_count_must_match_plan(self):
        plan = build_plan(8, 1, 0)
        with pytest.raises(ValueError, match="expected 16 bits"):
            modulate(np.zeros(10, dtype=int), plan)

    def test_bits_must_be_exactly_zero_or_one_before_any_cast(self):
        plan = build_plan(2, 0, 0)
        for bad in (0.5, 1.7, "1", np.nan, 2, -1):
            with pytest.raises(ValueError, match="bits must be 0/1"):
                modulate([0, 1, 1, bad], plan)
        want = modulate([0, 1, 1, 0], plan).frames
        for good in ([False, True, True, False], [0.0, 1.0, 1.0, 0.0], np.array([0, 1, 1, 0], np.uint8)):
            np.testing.assert_array_equal(modulate(good, plan).frames, want)

    def test_slice_sizes_follow_plan(self):
        rng = np.random.default_rng(2)
        plan = build_plan(32, 2, 0)
        payload = random_payload(rng, plan)
        assert [v.size for v in payload.symbols] == [s.size for s in plan.slices]


class TestTransmit:
    def test_depth_zero_is_plain_ofdm(self):
        rng = np.random.default_rng(3)
        plan = build_plan(16, 0, 4)
        payload = random_payload(rng, plan)
        frame = transmit(payload, plan)
        np.testing.assert_allclose(frame.body, idft(payload.symbols[0]), atol=1e-12)
        np.testing.assert_allclose(frame.cyclic_prefix, frame.body[-4:], atol=1e-15)

    def test_energy_preservation(self):
        rng = np.random.default_rng(4)
        plan = build_plan(128, 3, 16)
        payload = random_payload(rng, plan)
        frame = transmit(payload, plan)
        assert np.linalg.norm(frame.body) == pytest.approx(
            np.linalg.norm(payload.frames), abs=1e-12
        )

    def test_body_matches_dense_composite_matrix(self):
        # Delta payloads pick out columns of the dense TX matrix.
        plan = build_plan(8, 1, 0)
        f4h = np.array([idft(row) for row in np.eye(4)]).T  # unitary IDFT matrix
        composite = recursive_matrix(8, 1) @ np.block(
            [[f4h, np.zeros((4, 4))], [np.zeros((4, 4)), f4h]]
        )
        for k in range(8):
            vec = np.zeros(8, dtype=complex)
            vec[k] = 1.0
            payload = SlicePayload(frames=vec, plan=plan)
            frame = transmit(payload, plan)
            np.testing.assert_allclose(frame.body, composite[:, k], atol=1e-12)

    def test_rejects_mismatched_payload(self):
        plan = build_plan(16, 1, 0)
        with pytest.raises(ValueError):
            transmit(SlicePayload(frames=np.zeros(4, complex), plan=plan), plan)

    def test_rejects_payload_of_another_plan(self):
        payload = modulate(np.zeros(32, dtype=int), build_plan(16, 2, 0))
        with pytest.raises(ValueError, match="different slice plan"):
            transmit(payload, build_plan(16, 1, 0))
        # The cyclic prefix is not part of the layout.
        transmit(payload, build_plan(16, 2, 4))

    def test_symbols_are_read_only_views_of_the_frames(self):
        plan = build_plan(16, 2, 0)
        payload = modulate(np.zeros((2, 32), dtype=int), plan)
        for desc, view in zip(plan.slices, payload.symbols, strict=True):
            assert np.shares_memory(view, payload.frames) and not view.flags.writeable
            np.testing.assert_array_equal(view, payload.frames[:, desc.frame_offset : desc.frame_offset + desc.size])
        with pytest.raises(AttributeError):
            payload.symbols = ()

    def test_cyclic_prefix_is_a_read_only_view_of_the_body_tail(self):
        plan = build_plan(8, 1, 2)
        assert [field.name for field in dataclasses.fields(OfdmFrame)] == ["body", "plan"]
        body = np.arange(16, dtype=complex).reshape(2, 8)
        prefix = OfdmFrame(body=body, plan=plan).cyclic_prefix
        np.testing.assert_array_equal(prefix, body[:, -2:])
        assert np.shares_memory(prefix, body) and not prefix.flags.writeable and body.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            prefix[...] = 0
        sent = transmit(random_payload(np.random.default_rng(6), plan), plan)
        assert np.shares_memory(sent.cyclic_prefix, sent.body)
        with pytest.raises(ValueError, match="plan expects 8 samples"):
            OfdmFrame(body=np.zeros((2, 7), complex), plan=plan)


class TestPropagate:
    def test_identity_channel_noiseless(self):
        rng = np.random.default_rng(5)
        plan = build_plan(32, 1, 4)
        frame = transmit(random_payload(rng, plan), plan)
        received = propagate(frame, [1.0])
        np.testing.assert_allclose(received, frame.body, atol=1e-15)

    def test_equals_circular_convolution_oracle(self):
        rng = np.random.default_rng(6)
        plan = build_plan(64, 2, 8)
        frame = transmit(random_payload(rng, plan), plan)
        taps = random_taps(rng, 7)
        received = propagate(frame, taps)
        matrix = dense(pad(taps, 64))
        np.testing.assert_allclose(received, matrix @ frame.body, atol=1e-12)

    def test_infinite_snr_flag_bypasses_noise_exactly(self):
        rng = np.random.default_rng(7)
        plan = build_plan(32, 1, 4)
        frame = transmit(random_payload(rng, plan), plan)
        taps = random_taps(rng, 3)
        clean = propagate(frame, taps)
        flagged = propagate(frame, taps, snr=np.inf, rng=0)
        np.testing.assert_array_equal(clean, flagged)

    def test_finite_snr_adds_scaled_noise(self):
        rng = np.random.default_rng(8)
        plan = build_plan(1024, 1, 16)
        frame = transmit(random_payload(rng, plan), plan)
        taps = [1.0]
        noisy = propagate(frame, taps, snr=100.0, rng=42)
        noise_power = np.mean(np.abs(noisy - frame.body) ** 2)
        assert noise_power == pytest.approx(1.0 / 100.0, rel=0.2)

    def test_rejects_short_cp(self):
        rng = np.random.default_rng(9)
        plan = build_plan(32, 1, 2)
        frame = transmit(random_payload(rng, plan), plan)
        with pytest.raises(ValueError, match="cyclic prefix"):
            propagate(frame, random_taps(rng, 5))


class TestReceive:
    def test_noiseless_loopback(self):
        rng = np.random.default_rng(10)
        plan = build_plan(64, 2, 8, channel_length=5)
        payload = random_payload(rng, plan)
        taps = random_taps(rng, 5)
        estimate = receive(propagate(transmit(payload, plan), taps), plan, taps)
        for sent, got in zip(payload.symbols, estimate.symbols):
            assert np.max(np.abs(got - sent)) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(noiseless_links())
    def test_noiseless_loopback_recovers_every_slice_of_random_plans(self, link):
        plan, length, frames, seed = link
        rng = np.random.default_rng(seed)
        payload = modulate(rng.integers(0, 2, (frames, 2 * plan.frame_size)), plan)
        taps = rng.standard_normal((frames, length)) + 1j * rng.standard_normal((frames, length))
        estimate = receive(propagate(transmit(payload, plan), taps), plan, taps)
        for sent, got in zip(payload.symbols, estimate.symbols, strict=True):
            evm = np.sqrt(np.mean(np.abs(got - sent) ** 2, axis=-1) / np.mean(np.abs(sent) ** 2, axis=-1))
            assert evm.shape == (frames,) and np.all(evm < 1e-8)

    def test_flat_channel_inverts_transmit_at_depth_three(self):
        rng = np.random.default_rng(11)
        plan = build_plan(64, 3, 8)
        payload = random_payload(rng, plan)
        taps = [1.0]
        estimate = receive(propagate(transmit(payload, plan), taps), plan, taps)
        for sent, got in zip(payload.symbols, estimate.symbols):
            assert np.max(np.abs(got - sent)) < 1e-12

    def test_slice_isolation(self):
        # Zeroing one slice's payload leaves the other slices' estimates unchanged.
        rng = np.random.default_rng(12)
        plan = build_plan(64, 2, 8)
        payload = random_payload(rng, plan)
        taps = random_taps(rng, 6)
        baseline = receive(propagate(transmit(payload, plan), taps), plan, taps)
        muted = payload.frames.copy()
        desc = plan.slices[1]
        muted[desc.frame_offset : desc.frame_offset + desc.size] = 0
        altered = SlicePayload(frames=muted, plan=plan)
        estimate = receive(propagate(transmit(altered, plan), taps), plan, taps)
        for i in (0, 2):
            np.testing.assert_allclose(estimate.symbols[i], baseline.symbols[i], atol=1e-9)
        assert np.max(np.abs(estimate.symbols[1])) < 1e-9

    def test_null_bin_is_flagged_as_erasure(self):
        rng = np.random.default_rng(13)
        plan = build_plan(16, 0, 4)
        payload = random_payload(rng, plan)
        taps = [1.0, -1.0]  # exact null at bin 0
        estimate = receive(propagate(transmit(payload, plan), taps), plan, taps)
        assert estimate.erasures[0]
        assert estimate.symbols[0][0] == 0
        assert not estimate.erasures[1:].any()

    def test_erasure_threshold_is_relative_to_the_rms_gain(self):
        # A channel scaled by 1e-13 has every gain below 1e-12 in absolute
        # terms; relative to its RMS gain, ||taps||_2, none is a null.
        rng = np.random.default_rng(15)
        plan = build_plan(64, 3, 8)
        payload = random_payload(rng, plan)
        taps = np.array([1.0, 0.5, 0.25j]) * 1e-13
        estimate = receive(propagate(transmit(payload, plan), taps), plan, taps)
        assert not estimate.erasures.any()
        assert np.max(np.abs(estimate.frames - payload.frames)) <= 1e-12

    def test_zero_channel_erases_every_bin_without_a_warning(self):
        rng = np.random.default_rng(16)
        plan = build_plan(64, 3, 8)
        payload = random_payload(rng, plan)
        taps = np.zeros(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate = receive(propagate(transmit(payload, plan), taps), plan, taps)
        assert estimate.erasures.all()
        assert not estimate.frames.any()

    def test_erasures_do_not_depend_on_the_channel_scale(self):
        plan = build_plan(16, 2, 4)
        flat = receive(np.ones(16), plan, [1.0]).frames
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e10, 1e160, 1e300):
                estimate = receive(np.ones(16), plan, [scale])
                assert not estimate.erasures.any()
                np.testing.assert_allclose(estimate.frames * scale, flat, rtol=1e-15)
            assert receive(np.ones(16), plan, [0.0]).erasures.all()

    def test_each_frame_is_erased_at_its_own_scale(self):
        # One batch holds channels near 1e100 and 1e-100, each with a bin at
        # about 1e-13 of its RMS gain: each frame's erasures are those of the
        # frame alone, although the squares of the small frame's bins would
        # underflow if scaled with the large one.
        rng = np.random.default_rng(17)
        plan = build_plan(16, 2, 4)
        gains = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
        gains[:, 3] = 1e-13
        gains *= [[1e100], [1e-100]]
        y = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
        batch = _receive(y, plan, gains)
        for row in range(2):
            np.testing.assert_array_equal(batch.erasures[row], _receive(y[row], plan, gains[row]).erasures)
        assert batch.erasures.sum() == 2

    def test_gains_below_the_smallest_normal_divide_without_overflow(self):
        # numpy's complex division overflows once a gain's larger part is
        # below about 2**-1024; at 1e-307 that happens in 5 of these 50
        # frames. The receiver divides such gains scaled per frame by a power
        # of two, so each frame matches the call 1e307 times larger; a
        # normal-range frame in the same chunk keeps the bits of its own call.
        plan = build_plan(64, 2, 4)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            y, gains = random_taps(rng, (2, 64))
            want = _receive(y, plan, gains)
            tiny = _receive(y * 1e-307, plan, gains * 1e-307)
            np.testing.assert_allclose(tiny.frames, want.frames, rtol=1e-9)
            np.testing.assert_array_equal(tiny.erasures, want.erasures)
            mixed = _receive(np.stack([y, y * 1e-307]), plan, np.stack([gains, gains * 1e-307]))
            assert mixed.frames[0].tobytes() == want.frames.tobytes()
            np.testing.assert_allclose(mixed.frames[1], want.frames, rtol=1e-9)

    def test_post_equalization_snr_follows_channel_gain(self):
        rng = np.random.default_rng(14)
        n = 32
        plan = build_plan(n, 1, 4)
        taps = random_taps(rng, 3)
        rho = 10.0 ** 1.5
        gains = np.abs(np.fft.fft(taps, n))
        errors = np.zeros((400, n), dtype=complex)
        for trial in range(400):
            payload = random_payload(rng, plan)
            frame = transmit(payload, plan)
            estimate = receive(propagate(frame, taps, snr=rho, rng=rng), plan, taps)
            tx = payload.frames
            rx = estimate.frames
            # Reorder both to original-bin order per slice for the comparison.
            errors[trial] = rx - tx
        # Group errors by original bin: slice 0 carries even bins, slice 1 odd.
        order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)])
        noise_var = np.mean(np.abs(errors) ** 2, axis=0)
        expected = 1.0 / (rho * gains[order] ** 2)
        ratio = noise_var / expected
        assert np.max(np.abs(ratio - 1.0)) < 0.35

    def test_rejects_wrong_length(self):
        plan = build_plan(16, 1, 2)
        with pytest.raises(ValueError):
            receive(np.zeros(8, complex), plan, [1.0])


def solve_triangular_decode(z3, z4, taps, max_iters=100, tol=1e-10):
    """Oracle for iterative_decode: the same fixed-point iteration, with
    inv(H) z3, inv(H) z4 and C = inv(H) Hc each taken by a scipy triangular
    solve instead of the bordering inverse."""
    q = z3.size
    h = lower_triangular_toeplitz(taps, q)
    u3 = solve_triangular(h, z3, lower=True)
    u4 = solve_triangular(h, z4, lower=True)
    c = solve_triangular(h, circular_complement(taps, q), lower=True)
    s3, s4 = u3, u4
    converged = False
    first_delta = None
    for _ in range(max_iters):
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
            break
    return s3, s4, converged


def decoder_instance(rng, q, convergent):
    """Taps of 2..q entries whose iteration matrix inv(H) Hc has spectral
    radius below 0.9 (convergent) or above 1.1 (divergent)."""
    while True:
        length = int(rng.integers(2, q + 1))
        tail = rng.standard_normal(length - 1) + 1j * rng.standard_normal(length - 1)
        if convergent:
            taps = np.concatenate([[1.0 + 0.1j], 0.2 * tail / length])
        else:
            taps = np.concatenate([[0.15 + 0.05j], tail])
        c = np.linalg.solve(lower_triangular_toeplitz(taps, q), circular_complement(taps, q))
        radius = float(np.max(np.abs(np.linalg.eigvals(c))))
        if (radius < 0.9) if convergent else (radius > 1.1):
            return taps


class TestIterativeDecode:
    def make_problem(self, rng, taps, q):
        h = lower_triangular_toeplitz(taps, q)
        hc = circular_complement(taps, q)
        s3 = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        s4 = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        z3 = h @ s3 - hc @ s4
        z4 = hc @ s3 + h @ s4
        return s3, s4, z3, z4

    def test_single_tap_converges_in_one_iteration(self):
        rng = np.random.default_rng(15)
        taps = np.array([2.0 + 1j])
        s3, s4, z3, z4 = self.make_problem(rng, taps, 4)
        r3, r4, iterations, converged = iterative_decode(z3, z4, taps)
        assert converged and iterations == 1
        np.testing.assert_allclose(r3, s3, atol=1e-12)
        np.testing.assert_allclose(r4, s4, atol=1e-12)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(16)
        taps = np.array([1.0, 0.1, 0.05], dtype=complex)
        s3, s4, z3, z4 = self.make_problem(rng, taps, 4)
        r3, r4, _, converged = iterative_decode(z3, z4, taps, tol=1e-12)
        assert converged
        h = lower_triangular_toeplitz(taps, 4)
        hc = circular_complement(taps, 4)
        system = np.block([[h, -hc], [hc, h]])
        direct = np.linalg.solve(system, np.concatenate([z3, z4]))
        np.testing.assert_allclose(np.concatenate([r3, r4]), direct, atol=1e-8)

    def test_converged_solution_satisfies_the_system(self):
        rng = np.random.default_rng(17)
        taps = np.array([1.0, 0.3 - 0.1j, 0.1j], dtype=complex)
        _, _, z3, z4 = self.make_problem(rng, taps, 8)
        tol = 1e-10
        r3, r4, _, converged = iterative_decode(z3, z4, taps, tol=tol)
        assert converged
        h = lower_triangular_toeplitz(taps, 8)
        hc = circular_complement(taps, 8)
        residual = np.concatenate([h @ r3 - hc @ r4 - z3, hc @ r3 + h @ r4 - z4])
        assert np.max(np.abs(residual)) < tol * 10

    def test_divergent_instance_is_flagged(self):
        rng = np.random.default_rng(18)
        taps = np.array([0.2, 1.5, 0.9], dtype=complex)  # dominant echo
        _, _, z3, z4 = self.make_problem(rng, taps, 4)
        h = lower_triangular_toeplitz(taps, 4)
        hc = circular_complement(taps, 4)
        radius = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(h, hc))))
        assert radius > 1.0  # genuinely divergent construction
        _, _, _, converged = iterative_decode(z3, z4, taps, max_iters=50)
        assert not converged

    def test_rejects_a_leading_tap_too_small_for_the_inverse(self):
        # 1/h0 = 1e100 and the first column of inv(H) grows like 1e100^k:
        # rejected before any overflow warning or NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="h0 .* too small relative to the other taps"):
                iterative_decode(np.ones(8, complex), np.ones(8, complex), [1e-100, 1, 0.5])

    def test_an_iteration_that_overflows_stops_unconverged_without_a_warning(self):
        # 1/h0 = 1e30 keeps inv(H) finite at q = 8, but C = inv(H) Hc
        # overflows the first update.
        rng = np.random.default_rng(19)
        z3, z4 = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, iterations, converged = iterative_decode(z3, z4, [1e-30, 1, 0.5])
        assert not converged
        assert iterations == 1

    def test_rejects_zero_leading_tap(self):
        with pytest.raises(ValueError, match="singular"):
            iterative_decode(
                np.zeros(4, complex), np.zeros(4, complex), [0.0, 1.0]
            )

    @pytest.mark.parametrize("q", [4, 8, 16])
    @pytest.mark.parametrize("convergent", [True, False])
    def test_matches_the_triangular_solve_oracle(self, q, convergent):
        rng = np.random.default_rng([q, convergent])
        for _ in range(10):
            taps = decoder_instance(rng, q, convergent)
            z3 = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            z4 = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            r3, r4, _, converged = iterative_decode(z3, z4, taps)
            o3, o4, oracle_converged = solve_triangular_decode(z3, z4, taps)
            assert converged == oracle_converged == convergent
            # A divergent iterate grows by many orders of magnitude; the two
            # agree to round-off relative to its own size.
            atol = 1e-9 * max(1.0, float(np.max(np.abs(np.concatenate([o3, o4])))))
            np.testing.assert_allclose(r3, o3, rtol=0, atol=atol)
            np.testing.assert_allclose(r4, o4, rtol=0, atol=atol)

    def test_rejects_channel_longer_than_block(self):
        with pytest.raises(ValueError, match="3 taps do not fit in 2 bins"):
            iterative_decode(
                np.zeros(2, complex), np.zeros(2, complex), np.ones(3)
            )


class TestTriangularInverse:
    def test_two_by_two_closed_form(self):
        h0, h1 = 2.0, 0.5 + 0.5j
        mat = np.array([[h0, 0], [h1, h0]])
        expected = np.array([[1 / h0, 0], [-h1 / h0**2, 1 / h0]])
        np.testing.assert_allclose(triangular_toeplitz_inverse(mat), expected, atol=1e-14)

    def test_identity_round_trip(self):
        np.testing.assert_allclose(triangular_toeplitz_inverse(np.eye(5)), np.eye(5), atol=1e-15)

    @pytest.mark.parametrize("order", [3, 8, 32])
    def test_matches_generic_inverse(self, order):
        rng = np.random.default_rng(order)
        taps = np.concatenate(
            [[1.0 + 0.2j], 0.4 * (rng.standard_normal(order - 1) + 1j * rng.standard_normal(order - 1)) / np.arange(1, order)]
        )
        mat = lower_triangular_toeplitz(taps, order)
        inv = triangular_toeplitz_inverse(mat)
        np.testing.assert_allclose(inv, np.linalg.inv(mat), atol=1e-10)
        assert np.max(np.abs(inv @ mat - np.eye(order))) < 1e-10

    def test_large_order_matches_triangular_solve(self):
        # Geometric taps keep the inverse bounded at a large order.
        rng = np.random.default_rng(512)
        taps = np.concatenate([[1.0 + 0.2j], 0.5 ** np.arange(1, 512) * np.exp(2j * np.pi * rng.random(511))])
        mat = lower_triangular_toeplitz(taps, 512)
        inv = triangular_toeplitz_inverse(mat)
        np.testing.assert_allclose(inv, solve_triangular(mat, np.eye(512), lower=True), atol=1e-10)
        assert np.max(np.abs(inv @ mat - np.eye(512))) < 1e-10
        np.testing.assert_array_equal(inv, lower_triangular_toeplitz(inv[:, 0], 512))

    def test_rejects_zero_diagonal(self):
        with pytest.raises(ValueError, match="singular"):
            triangular_toeplitz_inverse(np.zeros((3, 3)))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="non-empty"):
            triangular_toeplitz_inverse(np.empty((0, 0)))

    def test_rejects_non_toeplitz(self):
        bad = np.tril(np.arange(16, dtype=float).reshape(4, 4) + 1)
        with pytest.raises(ValueError, match="Toeplitz"):
            triangular_toeplitz_inverse(bad)


class TestBatchOracles:
    def test_propagate_equals_linear_convolution(self):
        rng = np.random.default_rng(100)
        for trial in range(40):
            plan, length = random_link(rng)
            frame = transmit(random_payload(rng, plan), plan)
            taps = random_taps(rng, length)
            want = linear_oracle(frame, taps)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(propagate(frame, taps) - want)) < 1e-12 * scale
            noisy = propagate(frame, taps, snr=20.0, rng=trial)
            want = want + oracle_noise(trial, plan.frame_size, 20.0)
            assert np.max(np.abs(noisy - want)) < 1e-12 * scale

    def test_batched_propagate_equals_per_row_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            plan, length = random_link(rng)
            rows = int(rng.integers(1, 6))
            bits = rng.integers(0, 2, (rows, 2 * plan.frame_size))
            frames = transmit(modulate(bits, plan), plan)
            channels = [random_taps(rng, int(rng.integers(1, length + 1))) for _ in range(rows)]
            seeds = [int(x) for x in rng.integers(0, 1 << 30, rows)]
            got = propagate(frames, zero_padded(channels), snr=50.0, rng=[np.random.default_rng(x) for x in seeds])
            for r in range(rows):
                single = transmit(modulate(bits[r], plan), plan)
                np.testing.assert_array_equal(
                    got[r], propagate(single, channels[r], snr=50.0, rng=np.random.default_rng(seeds[r]))
                )
                want = linear_oracle(single, channels[r]) + oracle_noise(seeds[r], plan.frame_size, 50.0)
                assert np.max(np.abs(got[r] - want)) < 1e-12 * max(1.0, float(np.max(np.abs(want))))

    def test_batched_transmit_equals_per_row(self):
        rng = np.random.default_rng(102)
        plan = build_plan(64, 3, 9)
        bits = rng.integers(0, 2, (4, 128))
        batch = transmit(modulate(bits, plan), plan)
        for r in range(4):
            single = transmit(modulate(bits[r], plan), plan)
            np.testing.assert_array_equal(batch.body[r], single.body)
            np.testing.assert_array_equal(batch.cyclic_prefix[r], single.cyclic_prefix)
        np.testing.assert_array_equal(demodulate(modulate(bits, plan)), bits)

    @pytest.mark.parametrize("shared", [False, True])
    def test_batched_receive_equals_per_row(self, shared):
        rng = np.random.default_rng(103)
        plan = build_plan(32, 2, 4)
        null = np.array([1.0, -1.0])  # exact null at bin 0
        channels = [null, random_taps(rng, 3), null, random_taps(rng, 4)]
        if shared:
            channels = [null] * 4
        y = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        batch = receive(y, plan, null if shared else zero_padded(channels))
        for r in range(4):
            single = receive(y[r], plan, channels[r])
            for k in range(len(plan.slices)):
                np.testing.assert_array_equal(batch.symbols[k][r], single.symbols[k])
            np.testing.assert_array_equal(batch.erasures[r], single.erasures)
        assert batch.erasures[0, 0] and batch.erasures[2, 0]
        assert batch.erasures[1, 0] == shared

    def test_drawn_tap_batch_equals_the_per_run_channels(self):
        from physlice.channel import EPA_PROFILE, draw_taps, sample_cir

        ts = 1e9 / (128 * 240e3)
        plan = build_plan(128, 3, 16)
        rngs = [np.random.default_rng([3, run]) for run in range(5)]
        taps = draw_taps(EPA_PROFILE, ts, rngs)
        channels = np.stack([sample_cir(EPA_PROFILE, ts, np.random.default_rng([3, run])) for run in range(5)])
        frames = transmit(modulate(np.random.default_rng(4).integers(0, 2, (5, 256)), plan), plan)
        got = propagate(frames, taps, snr=30.0, rng=[np.random.default_rng(x) for x in range(5)])
        want = propagate(frames, channels, snr=30.0, rng=[np.random.default_rng(x) for x in range(5)])
        np.testing.assert_array_equal(got, want)
        batch, per_run = receive(got, plan, taps), receive(got, plan, channels)
        for k in range(len(plan.slices)):
            np.testing.assert_array_equal(batch.symbols[k], per_run.symbols[k])
        np.testing.assert_array_equal(batch.erasures, per_run.erasures)

    def test_batch_arguments_must_match_the_batch(self):
        rng = np.random.default_rng(104)
        plan = build_plan(16, 1, 2)
        frames = transmit(modulate(rng.integers(0, 2, (3, 32)), plan), plan)
        with pytest.raises(ValueError, match=re.escape("expected taps of shape (L,) or (3, L), got (2, 1)")):
            propagate(frames, np.ones((2, 1)))
        with pytest.raises(ValueError, match="one generator per frame"):
            propagate(frames, [1.0], snr=10.0, rng=[np.random.default_rng(0)] * 2)
        # An empty sequence holds no generator; it is not read as a seed.
        for empty in ([], ()):
            with pytest.raises(ValueError, match="one generator per frame"):
                propagate(frames, [1.0], snr=10.0, rng=empty)
        with pytest.raises(ValueError, match=re.escape("expected taps of shape (L,) or (3, L), got (1, 1)")):
            receive(frames.body, plan, np.ones((1, 1)))

    def test_non_finite_input_is_rejected_once_at_the_boundary(self):
        plan = build_plan(16, 1, 2)
        taps = [1.0]
        y = np.zeros((2, 16), complex)
        y[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            receive(y, plan, taps)
        payload = modulate(np.zeros(32, dtype=int), plan)
        frames = payload.frames.copy()
        frames[8:] = np.inf
        bad = SlicePayload(frames=frames, plan=plan)
        with pytest.raises(ValueError, match="non-finite"):
            transmit(bad, plan)

    def test_ragged_channels_are_rejected_with_the_zero_padding_hint(self):
        plan = build_plan(16, 1, 4)
        frames = transmit(modulate(np.zeros((2, 32), dtype=int), plan), plan)
        ragged = [np.ones(2), np.ones(3)]
        with pytest.raises(ValueError, match="taps .* zero-pad the channels to one length"):
            propagate(frames, ragged)
        with pytest.raises(ValueError, match="taps .* zero-pad the channels to one length"):
            receive(frames.body, plan, ragged)
        np.testing.assert_array_equal(propagate(frames, zero_padded(ragged)), propagate(frames, [[1, 1, 0], [1, 1, 1]]))

    def test_rejects_non_positive_snr(self):
        plan = build_plan(16, 1, 2)
        frame = transmit(modulate(np.zeros(32, dtype=int), plan), plan)
        for rho in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="snr must be positive"):
                propagate(frame, [1.0], snr=rho, rng=0)


# Factors of a real null gain 2T * hi * factor, with T the erasure threshold
# and hi the gains' largest part: the gains' parts then span just inside or
# just outside the 1/(2T) that the receiver's erasure proof clears.
_PROOF_SPANS = {"inside": 1 + 2**-40, "outside": 1 - 2**-40}


@st.composite
def frame_order_cases(draw):
    """A plan of N = 2^0 .. 2^11 at any depth and cyclic prefix that fit, a
    batch shape (), (R,) or (R1, R2), gains shared by the batch or one row
    per frame with up to four bins set to 0, to 1e-13 or to 1e-11 (below and
    above the erasure threshold for gains of RMS near 1) or to a gain of
    ``_PROOF_SPANS``, then all scaled by 1, by 1e-160 (whose squares are
    subnormal), by 1e160 or 1e300 (whose squares overflow) or by 0 (the zero
    channel), and a seed for the bits, frames and gains."""
    log_n = draw(st.integers(0, 11))
    n = 1 << log_n
    plan = build_plan(n, draw(st.integers(0, log_n)), draw(st.integers(0, n)))
    batch = draw(
        st.one_of(st.just(()), st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 3), st.integers(1, 3)))
    )
    gains_shape = draw(st.sampled_from([(), batch])) + (n,)
    values = st.sampled_from([0.0, 1e-13, 1e-11, *_PROOF_SPANS])
    nulls = draw(st.lists(st.tuples(st.integers(0, n - 1), values), max_size=4))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e160, 1e300, 0.0]))
    return plan, batch, gains_shape, nulls, scale, draw(st.integers(0, 2**32 - 1))


def frame_rms(x):
    """RMS of each frame of (..., N) samples, shape (..., 1)."""
    return np.sqrt(np.mean(np.abs(x) ** 2, axis=-1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(frame_order_cases())
def test_link_is_the_tuple_chain_to_round_off_and_the_transform_is_bitwise_the_recursion(case):
    plan, batch, gains_shape, nulls, scale, seed = case
    n = plan.frame_size
    rng = np.random.default_rng(seed)
    payload = modulate(rng.integers(0, 2, batch + (2 * n,)), plan)
    frame = transmit(payload, plan)
    want_body = tuple_transmit(slice_tuple(payload.frames, plan), plan)
    assert frame.body.shape == want_body.shape
    assert np.all(np.abs(frame.body - want_body) <= 1e-12 * frame_rms(want_body))
    np.testing.assert_array_equal(frame.cyclic_prefix, frame.body[..., n - plan.cp_length :])

    y = rng.standard_normal(batch + (n,)) + 1j * rng.standard_normal(batch + (n,))
    gains = rng.standard_normal(gains_shape) + 1j * rng.standard_normal(gains_shape)
    # 2T times the gains' largest part.
    edge = 2 * EQUALIZER_ERASURE_THRESHOLD * np.abs(gains.view(float)).max()
    for index, value in nulls:
        gains[..., index] = value if isinstance(value, float) else edge * _PROOF_SPANS[value]
    gains *= scale
    estimate = _receive(y, plan, gains)
    assert estimate.frames.shape == estimate.erasures.shape == batch + (n,)
    erased = erased_bins(gains)
    assert estimate.erasures.sum() == np.broadcast_to(erased, y.shape).sum()
    want, want_erased = tuple_receive(y, plan, gains)
    for payload_ in (payload, estimate):
        for desc, view in zip(plan.slices, payload_.symbols, strict=True):
            np.testing.assert_array_equal(view, payload_.frames[..., desc.frame_offset : desc.frame_offset + desc.size])
    # Undo the equalizer on both sides, so that a bin just above the erasure
    # threshold does not scale round-off by the inverse of its gain.
    safe = np.where(erased, 1.0, gains)
    for desc, got, w, w_erased in zip(plan.slices, estimate.symbols, want, want_erased, strict=True):
        np.testing.assert_array_equal(estimate.erasures[..., desc.frame_offset : desc.frame_offset + desc.size], w_erased)
        bin_gains = safe[..., desc.bin_residue :: desc.bin_stride]
        assert np.all(np.abs(got * bin_gains - w * bin_gains) <= 1e-12 * frame_rms(y))

    np.testing.assert_array_equal(forward_transform(y, plan.depth), recursive_forward(y, plan.depth))
    np.testing.assert_array_equal(inverse_transform(y, plan.depth), recursive_inverse(y, plan.depth))


def test_nearest_symbols_equals_argmin_oracle():
    rng = np.random.default_rng(105)
    points = modulate([0, 0, 0, 1, 1, 0, 1, 1], build_plan(4, 0, 0)).symbols[0]
    estimates = 0.8 * (rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500)))
    dist = np.abs(estimates[..., None] - points)
    np.testing.assert_array_equal(nearest_symbols(estimates), points[np.argmin(dist, axis=-1)])


def test_nearest_symbols_snaps_to_constellation():
    s = np.sqrt(0.5)
    noisy = np.array([0.6 + 0.8j, -0.9 - 0.1j])
    snapped = nearest_symbols(noisy)
    np.testing.assert_allclose(snapped, [s + 1j * s, -s - 1j * s], atol=1e-15)


def test_every_qpsk_point_has_one_power_bitwise():
    # The loopback divides each slice's EVM by one mean symbol power per
    # scenario, taken over a constant row; that holds only while every point
    # has the same |q|^2 (libm's hypot need not give exactly 1).
    powers = np.square(np.abs(_QPSK))
    assert np.unique(powers.view(np.uint64)).size == 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 4096))
def test_qpsk_index_of_raw_words_is_modulate_of_integer_bits_and_leaves_the_stream_in_step(seed, n):
    by_words, by_bits = np.random.default_rng(seed), np.random.default_rng(seed)
    index = _qpsk_index(by_words.bit_generator.random_raw(n), np.empty(n, dtype=np.uint64))
    # modulate reads only the plan's frame size, so any n works here.
    frames = modulate(by_bits.integers(0, 2, 2 * n), SimpleNamespace(frame_size=n)).frames
    np.testing.assert_array_equal(_QPSK[index], frames)
    assert by_words.standard_normal() == by_bits.standard_normal()
    # An odd bit count would leave half a word buffered; none is left here.
    assert by_words.integers(0, 2, 3).tolist() == by_bits.integers(0, 2, 3).tolist()


def link_buffers(rows, n):
    """Buffers of the link kernels for chunks of up to ``rows`` frames: two
    complex, two float and two bool (rows, n) arrays."""
    return np.empty((2, rows, n), complex), np.empty((2, rows, n)), np.empty((2, rows, n), bool)


def run_link_kernels(frames, gains, noise, rho, plan, buffers):
    """The loopback's kernel chain on (r, N) frames in rows [:r] of
    ``buffers``: copies of the body, the received frames, the estimates and
    the erasure mask. Neither input is changed."""
    r = len(frames)
    (signal, estimate), floats, (erased, erasures) = (b[:, :r] for b in buffers)
    gains = gains.copy()
    np.take(frames, plan.inverse_bin_order, axis=-1, out=signal, mode="clip")
    _unitary_idft(signal)
    body = signal.copy()
    _propagate_into(signal, gains, rho, noise.copy(), signal)
    received = signal.copy()
    _receive_into(signal, gains, plan.bin_order, *floats, erased, estimate, erasures)
    return body, received, estimate.copy(), erasures.copy()


def out_of_place_link(frames, gains, noise, rho, plan):
    """The kernel chain of :func:`run_link_kernels` as numpy's out-of-place
    calls, each result a new array: the body, the received frames, the
    estimates and the erasure mask."""
    n = frames.shape[-1]
    body = np.fft.ifft(np.take(frames, plan.inverse_bin_order, axis=-1), axis=-1) * np.sqrt(n)
    received = np.fft.ifft(np.fft.fft(body, axis=-1) * gains, axis=-1)
    if rho != math.inf:
        scaled = noise * np.sqrt(1.0 / (2.0 * rho))
        noisy = np.empty_like(received)
        noisy.real, noisy.imag = received.real + scaled[..., 0, :], received.imag + scaled[..., 1, :]
        received = noisy
    magnitude = np.abs(gains)
    rms = np.sqrt(np.add.reduce(np.square(magnitude), axis=-1, keepdims=True) / n)
    erased = magnitude <= EQUALIZER_ERASURE_THRESHOLD * rms
    spectrum = np.fft.fft(received, axis=-1, norm="ortho") / np.where(erased, 1.0, gains)
    erasures = np.take(np.broadcast_to(erased, spectrum.shape), plan.bin_order, axis=-1)
    return body, received, np.where(erasures, 0.0, np.take(spectrum, plan.bin_order, axis=-1)), erasures


@pytest.mark.parametrize("rho", [100.0, math.inf])
def test_link_kernels_carry_no_state_between_chunks_on_reused_buffers(rho):
    rng = np.random.default_rng(42)
    n, rows, length = 64, 4, 6
    plan = build_plan(n, 3, length)
    buffers = link_buffers(rows, n)
    # A chunk with a zero-gain row and one zero bin, a clean chunk, then a
    # partial chunk after the full one.
    for r, erase in ((rows, True), (rows, False), (2, False)):
        frames = modulate(rng.integers(0, 2, (r, 2 * n)), plan).frames
        gains = np.fft.fft(random_taps(rng, (r, length)), n, axis=-1)
        if erase:
            gains[1] = 0.0
            gains[2, 5] = 0.0
        noise = rng.standard_normal((r, 2, n))
        reused = run_link_kernels(frames, gains, noise, rho, plan, buffers)
        fresh = run_link_kernels(frames, gains, noise, rho, plan, link_buffers(r, n))
        for got, want in zip(reused, fresh, strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        erasures = fresh[-1]
        assert erasures.sum() == (n + 1 if erase else 0)
        assert erasures[1].all() == erase


@pytest.mark.parametrize("rho", [100.0, math.inf])
def test_link_kernels_in_place_on_the_loopback_aliases_are_bitwise_numpy_out_of_place(rho):
    """The loopback's chain on two complex frames, ``signal`` and ``shared``:
    the symbols of the QPSK indices gathered onto their bins are taken into
    ``signal`` and transmitted in place, the channel and the receiver
    transform ``signal`` in place, and the estimates go into ``shared``,
    which held the gains. Each result is bitwise that of numpy's
    out-of-place calls on the frame-order symbols, each into a new array."""
    rng = np.random.default_rng(43)
    n, rows, length = 64, 3, 6
    plan = build_plan(n, 3, length)
    for erase in (True, False):
        index = rng.integers(0, 4, (rows, n))
        frames = _QPSK[index]
        gains = np.fft.fft(random_taps(rng, (rows, length)), n, axis=-1)
        if erase:
            gains[1, 5] = 0.0
        noise = rng.standard_normal((rows, 2, n))
        want = out_of_place_link(frames, gains, noise, rho, plan)

        signal, shared = np.empty((2, rows, n), complex)
        _, floats, (erased, erasures) = link_buffers(rows, n)
        _QPSK.take(np.take(index, plan.inverse_bin_order, axis=-1), out=signal)
        _unitary_idft(signal)
        body = signal.copy()
        shared[...] = gains
        _propagate_into(signal, shared, rho, noise.copy(), signal)
        received = signal.copy()
        _receive_into(signal, shared, plan.bin_order, *floats, erased, shared, erasures)
        for got, expected in zip((body, received, shared, erasures), want, strict=True):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        assert erasures.any() == erase


def test_public_link_calls_leave_their_inputs_unchanged():
    """``np.asarray`` hands complex128 C-contiguous inputs through as the
    caller's own arrays; every public link call, and ``_receive``, leaves
    their bytes as they were."""
    rng = np.random.default_rng(44)
    n, rows, length = 64, 3, 6
    plan = build_plan(n, 3, length)
    taps = random_taps(rng, (rows, length))
    payload = modulate(rng.integers(0, 2, (rows, 2 * n)), plan)
    y = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    gains = np.fft.fft(taps, n, axis=-1)
    gains[1, 5] = 0.0
    inputs = (payload.frames, taps, y, gains)
    assert all(a.dtype == np.complex128 and a.flags.c_contiguous for a in inputs)
    before = [a.tobytes() for a in inputs]

    frame = transmit(payload, plan)
    body = frame.body.tobytes()
    for noise_rng in (np.random.default_rng(1), [np.random.default_rng(seed) for seed in range(rows)]):
        propagate(frame, taps, snr=10.0, rng=noise_rng)
        assert frame.body.tobytes() == body
    receive(y, plan, taps)
    assert _receive(y, plan, gains).erasures.any()
    assert [a.tobytes() for a in inputs] == before
