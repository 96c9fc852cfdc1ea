import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from physlice.channel import (
    ChannelImpulseResponse,
    build_circulant,
    circular_complement,
    lower_triangular_toeplitz,
)
from physlice.sliceplan import build_plan
from physlice.spectral import idft
from physlice.transform import recursive_matrix
from physlice.txrx import (
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


def random_cir(rng, length):
    return ChannelImpulseResponse(rng.standard_normal(length) + 1j * rng.standard_normal(length), 1.0)


def random_payload(rng, plan):
    return modulate(rng.integers(0, 2, 2 * plan.frame_size), plan)


def linear_oracle(frame, cir):
    """Post-CP samples of the linear convolution of (CP || body) with the taps."""
    cp, n = frame.plan.cp_length, frame.plan.frame_size
    full = np.concatenate([frame.cyclic_prefix, frame.body])
    return np.convolve(full, cir.taps)[cp : cp + n]


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
        power = np.mean(np.abs(payload.concat()) ** 2)
        assert power == pytest.approx(1.0, abs=1e-12)

    def test_bit_count_must_match_plan(self):
        plan = build_plan(8, 1, 0)
        with pytest.raises(ValueError, match="expected 16 bits"):
            modulate(np.zeros(10, dtype=int), plan)

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
            np.linalg.norm(payload.concat()), abs=1e-12
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
            payload = SlicePayload(symbols=(vec[:4].copy(), vec[4:].copy()))
            frame = transmit(payload, plan)
            np.testing.assert_allclose(frame.body, composite[:, k], atol=1e-12)

    def test_rejects_mismatched_payload(self):
        plan = build_plan(16, 1, 0)
        with pytest.raises(ValueError):
            transmit(SlicePayload(symbols=(np.zeros(4, complex),)), plan)

    def test_frame_rejects_inconsistent_cyclic_prefix(self):
        plan = build_plan(8, 1, 2)
        body = np.arange(8, dtype=complex)
        with pytest.raises(ValueError, match="cyclic prefix"):
            OfdmFrame(body=body, cyclic_prefix=np.zeros(2, complex), plan=plan)
        OfdmFrame(body=body, cyclic_prefix=body[-2:].copy(), plan=plan)


class TestPropagate:
    def test_identity_channel_noiseless(self):
        rng = np.random.default_rng(5)
        plan = build_plan(32, 1, 4)
        frame = transmit(random_payload(rng, plan), plan)
        received = propagate(frame, ChannelImpulseResponse([1.0], 1.0))
        np.testing.assert_allclose(received, frame.body, atol=1e-15)

    def test_equals_circular_convolution_oracle(self):
        rng = np.random.default_rng(6)
        plan = build_plan(64, 2, 8)
        frame = transmit(random_payload(rng, plan), plan)
        cir = random_cir(rng, 7)
        received = propagate(frame, cir)
        dense = build_circulant(cir, 64).dense()
        np.testing.assert_allclose(received, dense @ frame.body, atol=1e-12)

    def test_infinite_snr_flag_bypasses_noise_exactly(self):
        rng = np.random.default_rng(7)
        plan = build_plan(32, 1, 4)
        frame = transmit(random_payload(rng, plan), plan)
        cir = random_cir(rng, 3)
        clean = propagate(frame, cir, snr=None)
        flagged = propagate(frame, cir, snr=np.inf, rng=0)
        np.testing.assert_array_equal(clean, flagged)

    def test_finite_snr_adds_scaled_noise(self):
        rng = np.random.default_rng(8)
        plan = build_plan(1024, 1, 16)
        frame = transmit(random_payload(rng, plan), plan)
        cir = ChannelImpulseResponse([1.0], 1.0)
        noisy = propagate(frame, cir, snr=100.0, rng=42)
        noise_power = np.mean(np.abs(noisy - frame.body) ** 2)
        assert noise_power == pytest.approx(1.0 / 100.0, rel=0.2)

    def test_rejects_short_cp(self):
        rng = np.random.default_rng(9)
        plan = build_plan(32, 1, 2)
        frame = transmit(random_payload(rng, plan), plan)
        with pytest.raises(ValueError, match="cyclic prefix"):
            propagate(frame, random_cir(rng, 5))


class TestReceive:
    def test_noiseless_loopback(self):
        rng = np.random.default_rng(10)
        plan = build_plan(64, 2, 8, channel_length=5)
        payload = random_payload(rng, plan)
        cir = random_cir(rng, 5)
        estimate = receive(propagate(transmit(payload, plan), cir), plan, cir)
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
        cir = ChannelImpulseResponse([1.0], 1.0)
        estimate = receive(propagate(transmit(payload, plan), cir), plan, cir)
        for sent, got in zip(payload.symbols, estimate.symbols):
            assert np.max(np.abs(got - sent)) < 1e-12

    def test_slice_isolation(self):
        # Zeroing one slice's payload leaves the other slices' estimates unchanged.
        rng = np.random.default_rng(12)
        plan = build_plan(64, 2, 8)
        payload = random_payload(rng, plan)
        cir = random_cir(rng, 6)
        baseline = receive(propagate(transmit(payload, plan), cir), plan, cir)
        muted = list(payload.symbols)
        muted[1] = np.zeros_like(muted[1])
        altered = SlicePayload(symbols=tuple(muted))
        estimate = receive(propagate(transmit(altered, plan), cir), plan, cir)
        for i in (0, 2):
            np.testing.assert_allclose(estimate.symbols[i], baseline.symbols[i], atol=1e-9)
        assert np.max(np.abs(estimate.symbols[1])) < 1e-9

    def test_null_bin_is_flagged_as_erasure(self):
        rng = np.random.default_rng(13)
        plan = build_plan(16, 0, 4)
        payload = random_payload(rng, plan)
        cir = ChannelImpulseResponse([1.0, -1.0], 1.0)  # exact null at bin 0
        estimate = receive(propagate(transmit(payload, plan), cir), plan, cir)
        assert estimate.erasures[0][0]
        assert estimate.symbols[0][0] == 0
        assert not estimate.erasures[0][1:].any()

    def test_post_equalization_snr_follows_channel_gain(self):
        rng = np.random.default_rng(14)
        n = 32
        plan = build_plan(n, 1, 4)
        cir = random_cir(rng, 3)
        rho = 10.0 ** 1.5
        gains = np.abs(np.fft.fft(cir.taps, n))
        errors = np.zeros((400, n), dtype=complex)
        for trial in range(400):
            payload = random_payload(rng, plan)
            frame = transmit(payload, plan)
            estimate = receive(propagate(frame, cir, snr=rho, rng=rng), plan, cir)
            tx = payload.concat()
            rx = estimate.concat()
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
            receive(np.zeros(8, complex), plan, ChannelImpulseResponse([1.0], 1.0))


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
        cir = ChannelImpulseResponse(taps, 1.0)
        h = lower_triangular_toeplitz(taps, q)
        hc = circular_complement(taps, q)
        s3 = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        s4 = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        z3 = h @ s3 - hc @ s4
        z4 = hc @ s3 + h @ s4
        return cir, s3, s4, z3, z4

    def test_single_tap_converges_in_one_iteration(self):
        rng = np.random.default_rng(15)
        cir, s3, s4, z3, z4 = self.make_problem(rng, np.array([2.0 + 1j]), 4)
        r3, r4, iterations, converged = iterative_decode(z3, z4, cir)
        assert converged and iterations == 1
        np.testing.assert_allclose(r3, s3, atol=1e-12)
        np.testing.assert_allclose(r4, s4, atol=1e-12)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(16)
        taps = np.array([1.0, 0.1, 0.05], dtype=complex)
        cir, s3, s4, z3, z4 = self.make_problem(rng, taps, 4)
        r3, r4, _, converged = iterative_decode(z3, z4, cir, tol=1e-12)
        assert converged
        h = lower_triangular_toeplitz(taps, 4)
        hc = circular_complement(taps, 4)
        system = np.block([[h, -hc], [hc, h]])
        direct = np.linalg.solve(system, np.concatenate([z3, z4]))
        np.testing.assert_allclose(np.concatenate([r3, r4]), direct, atol=1e-8)

    def test_converged_solution_satisfies_the_system(self):
        rng = np.random.default_rng(17)
        taps = np.array([1.0, 0.3 - 0.1j, 0.1j], dtype=complex)
        cir, _, _, z3, z4 = self.make_problem(rng, taps, 8)
        tol = 1e-10
        r3, r4, _, converged = iterative_decode(z3, z4, cir, tol=tol)
        assert converged
        h = lower_triangular_toeplitz(taps, 8)
        hc = circular_complement(taps, 8)
        residual = np.concatenate([h @ r3 - hc @ r4 - z3, hc @ r3 + h @ r4 - z4])
        assert np.max(np.abs(residual)) < tol * 10

    def test_divergent_instance_is_flagged(self):
        rng = np.random.default_rng(18)
        taps = np.array([0.2, 1.5, 0.9], dtype=complex)  # dominant echo
        cir, _, _, z3, z4 = self.make_problem(rng, taps, 4)
        h = lower_triangular_toeplitz(taps, 4)
        hc = circular_complement(taps, 4)
        radius = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(h, hc))))
        assert radius > 1.0  # genuinely divergent construction
        _, _, _, converged = iterative_decode(z3, z4, cir, max_iters=50)
        assert not converged

    def test_rejects_zero_leading_tap(self):
        with pytest.raises(ValueError, match="singular"):
            iterative_decode(
                np.zeros(4, complex), np.zeros(4, complex), ChannelImpulseResponse([0.0, 1.0], 1.0)
            )

    @pytest.mark.parametrize("q", [4, 8, 16])
    @pytest.mark.parametrize("convergent", [True, False])
    def test_matches_the_triangular_solve_oracle(self, q, convergent):
        rng = np.random.default_rng([q, convergent])
        for _ in range(10):
            taps = decoder_instance(rng, q, convergent)
            z3 = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            z4 = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            r3, r4, _, converged = iterative_decode(z3, z4, ChannelImpulseResponse(taps, 1.0))
            o3, o4, oracle_converged = solve_triangular_decode(z3, z4, taps)
            assert converged == oracle_converged == convergent
            # A divergent iterate grows by many orders of magnitude; the two
            # agree to round-off relative to its own size.
            atol = 1e-9 * max(1.0, float(np.max(np.abs(np.concatenate([o3, o4])))))
            np.testing.assert_allclose(r3, o3, rtol=0, atol=atol)
            np.testing.assert_allclose(r4, o4, rtol=0, atol=atol)

    def test_rejects_channel_longer_than_block(self):
        with pytest.raises(ValueError, match="exceeds"):
            iterative_decode(
                np.zeros(2, complex), np.zeros(2, complex), ChannelImpulseResponse(np.ones(3), 1.0)
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
            cir = random_cir(rng, length)
            want = linear_oracle(frame, cir)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(propagate(frame, cir) - want)) < 1e-12 * scale
            noisy = propagate(frame, cir, snr=20.0, rng=trial)
            want = want + oracle_noise(trial, plan.frame_size, 20.0)
            assert np.max(np.abs(noisy - want)) < 1e-12 * scale

    def test_batched_propagate_equals_per_row_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            plan, length = random_link(rng)
            rows = int(rng.integers(1, 6))
            bits = rng.integers(0, 2, (rows, 2 * plan.frame_size))
            frames = transmit(modulate(bits, plan), plan)
            cirs = [random_cir(rng, int(rng.integers(1, length + 1))) for _ in range(rows)]
            seeds = [int(x) for x in rng.integers(0, 1 << 30, rows)]
            got = propagate(frames, cirs, snr=50.0, rng=[np.random.default_rng(x) for x in seeds])
            for r in range(rows):
                single = transmit(modulate(bits[r], plan), plan)
                np.testing.assert_array_equal(
                    got[r], propagate(single, cirs[r], snr=50.0, rng=np.random.default_rng(seeds[r]))
                )
                want = linear_oracle(single, cirs[r]) + oracle_noise(seeds[r], plan.frame_size, 50.0)
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
        null = ChannelImpulseResponse([1.0, -1.0], 1.0)  # exact null at bin 0
        cirs = [null, random_cir(rng, 3), null, random_cir(rng, 4)]
        if shared:
            cirs = [null] * 4
        y = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        batch = receive(y, plan, null if shared else cirs)
        for r in range(4):
            single = receive(y[r], plan, cirs[r])
            for k in range(len(plan.slices)):
                np.testing.assert_array_equal(batch.symbols[k][r], single.symbols[k])
                np.testing.assert_array_equal(batch.erasures[k][r], single.erasures[k])
        assert batch.erasures[0][0, 0] and batch.erasures[0][2, 0]
        assert batch.erasures[0][1, 0] == shared

    def test_drawn_tap_batch_equals_the_per_run_channels(self):
        from physlice.channel import EPA_PROFILE, draw_taps, sample_cir

        ts = 1e9 / (128 * 240e3)
        plan = build_plan(128, 3, 16)
        rngs = [np.random.default_rng([3, run]) for run in range(5)]
        taps = draw_taps(EPA_PROFILE, ts, rngs)
        cirs = [sample_cir(EPA_PROFILE, ts, np.random.default_rng([3, run])) for run in range(5)]
        frames = transmit(modulate(np.random.default_rng(4).integers(0, 2, (5, 256)), plan), plan)
        got = propagate(frames, taps, snr=30.0, rng=[np.random.default_rng(x) for x in range(5)])
        want = propagate(frames, cirs, snr=30.0, rng=[np.random.default_rng(x) for x in range(5)])
        np.testing.assert_array_equal(got, want)
        batch, per_run = receive(got, plan, taps), receive(got, plan, cirs)
        for k in range(len(plan.slices)):
            np.testing.assert_array_equal(batch.symbols[k], per_run.symbols[k])
            np.testing.assert_array_equal(batch.erasures[k], per_run.erasures[k])

    def test_batch_arguments_must_match_the_batch(self):
        rng = np.random.default_rng(104)
        plan = build_plan(16, 1, 2)
        frames = transmit(modulate(rng.integers(0, 2, (3, 32)), plan), plan)
        cir = ChannelImpulseResponse([1.0], 1.0)
        with pytest.raises(ValueError, match="one channel per frame"):
            propagate(frames, [cir, cir])
        with pytest.raises(ValueError, match="one generator per frame"):
            propagate(frames, cir, snr=10.0, rng=[np.random.default_rng(0)] * 2)
        with pytest.raises(ValueError, match="one channel per frame"):
            receive(frames.body, plan, [cir])

    def test_non_finite_input_is_rejected_once_at_the_boundary(self):
        plan = build_plan(16, 1, 2)
        cir = ChannelImpulseResponse([1.0], 1.0)
        y = np.zeros((2, 16), complex)
        y[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            receive(y, plan, cir)
        payload = modulate(np.zeros(32, dtype=int), plan)
        bad = SlicePayload(symbols=(payload.symbols[0], np.full(8, np.inf, complex)))
        with pytest.raises(ValueError, match="non-finite"):
            transmit(bad, plan)

    def test_rejects_non_positive_snr(self):
        plan = build_plan(16, 1, 2)
        frame = transmit(modulate(np.zeros(32, dtype=int), plan), plan)
        for rho in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="snr must be positive"):
                propagate(frame, ChannelImpulseResponse([1.0], 1.0), snr=rho, rng=0)


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
