import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant, toeplitz

from physlice.channel import (
    BUILTIN_PROFILES,
    EPA_PROFILE,
    ETU_PROFILE,
    ChannelProfile,
    check_taps,
    circular_complement,
    draw_taps,
    load_profile,
    lower_triangular_toeplitz,
    negative_child,
    positive_child,
    profile_tap_count,
    sample_cir,
    split_coupling,
)

from oracles import dense, extract_blocks, pad, random_taps, split_matrix

# Sub-6 GHz numerology used by the urban scenario: 1 / (2048 * 15 kHz).
TS_LTE_NS = 1e9 / (2048 * 15e3)


def per_run_draw_oracle(profile, sample_period_ns, rng):
    """One realization drawn tap list by tap list, the grid recomputed per call."""
    delays = np.asarray(profile.tap_delays_ns, dtype=np.float64)
    powers = 10.0 ** (np.asarray(profile.tap_powers_db, dtype=np.float64) / 10.0)
    powers /= powers.sum()
    idx = np.rint(delays / sample_period_ns).astype(int)
    draws = np.sqrt(powers / 2.0) * (
        rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    )
    taps = np.zeros(int(idx.max()) + 1, dtype=np.complex128)
    np.add.at(taps, idx, draws)
    return taps


@st.composite
def profiles(draw):
    """Profiles of 1-8 taps whose delay gaps are often shorter than a sample."""
    gaps = draw(st.lists(st.floats(0.01, 400.0), max_size=7))
    delays = [0.0]
    for gap in gaps:
        delays.append(delays[-1] + gap)
    powers = draw(st.lists(st.floats(-40.0, 10.0), min_size=len(delays), max_size=len(delays)))
    return ChannelProfile("random", tuple(delays), tuple(powers))


class TestProfiles:
    def test_profile_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            ChannelProfile("x", (0, 10), (0,))
        with pytest.raises(ValueError, match="start at 0"):
            ChannelProfile("x", (10, 20), (0, 0))
        with pytest.raises(ValueError, match="strictly increasing"):
            ChannelProfile("x", (0, 20, 20), (0, 0, 0))

    @pytest.mark.parametrize(
        "delays,powers",
        [
            ((0.0, math.nan), (0.0, 0.0)),
            ((0.0, math.inf), (0.0, 0.0)),
            ((math.nan, 10.0), (0.0, 0.0)),
            ((0.0, 10.0), (0.0, math.nan)),
            ((0.0, 10.0), (math.inf, 0.0)),
            ((0.0, 10.0), (0.0, -math.inf)),
        ],
    )
    def test_profile_rejects_non_finite_delays_and_powers(self, delays, powers):
        with pytest.raises(ValueError, match="must be finite"):
            ChannelProfile("x", delays, powers)

    @pytest.mark.parametrize("powers", [(4000.0, 0.0), (-4000.0, -4000.0)])
    def test_profile_rejects_powers_that_cannot_be_normalized(self, powers):
        with pytest.raises(ValueError, match="too wide a range"):
            ChannelProfile("x", (0.0, 10.0), powers)

    @pytest.mark.parametrize("field", ["delays_ns = 0, nan", "powers_db = 0, inf"])
    def test_load_profile_rejects_non_finite_values(self, tmp_path, field):
        lines = {"delays_ns": "delays_ns = 0, 30", "powers_db": "powers_db = 0, -3"}
        lines[field.split(" ")[0]] = field
        path = tmp_path / "bad.profile"
        path.write_text("\n".join(lines.values()) + "\n")
        with pytest.raises(ValueError, match="must be finite"):
            load_profile(path)

    def test_etu_occupies_155_taps_at_lte_grid(self):
        assert profile_tap_count(ETU_PROFILE, TS_LTE_NS) == 155

    def test_epa_occupies_14_taps_at_240khz_grid(self):
        ts = 1e9 / (128 * 240e3)
        assert profile_tap_count(EPA_PROFILE, ts) == 14

    def test_sampled_lengths_match_tap_counts(self):
        rng = np.random.default_rng(0)
        taps = sample_cir(ETU_PROFILE, TS_LTE_NS, rng)
        assert taps.shape == (155,)
        taps = sample_cir(EPA_PROFILE, 1e9 / (128 * 240e3), rng)
        assert taps.shape == (14,)

    def test_single_tap_profile_is_unit_power_rayleigh(self):
        profile = ChannelProfile("flat", (0.0,), (0.0,))
        rng = np.random.default_rng(42)
        draws = np.array([sample_cir(profile, 1.0, rng)[0] for _ in range(10_000)])
        power = np.abs(draws) ** 2
        # |h|^2 is Exp(1): mean 1, std of the sample mean ~ 1/100.
        assert abs(power.mean() - 1.0) < 0.05
        # Circular symmetry: real/imag parts uncorrelated with variance 1/2.
        assert abs(np.var(draws.real) - 0.5) < 0.03
        assert abs(np.var(draws.imag) - 0.5) < 0.03
        assert abs(np.mean(draws.real * draws.imag)) < 0.03

    def test_expected_total_power_is_one_for_etu(self):
        rng = np.random.default_rng(7)
        mean_power = np.mean(
            [np.sum(np.abs(sample_cir(ETU_PROFILE, TS_LTE_NS, rng)) ** 2) for _ in range(4000)]
        )
        assert abs(mean_power - 1.0) < 0.05

    def test_coincident_taps_are_summed(self):
        profile = ChannelProfile("merge", (0.0, 1.0, 1.4), (0.0, 0.0, 0.0))
        taps = sample_cir(profile, 10.0, np.random.default_rng(1))
        assert taps.shape == (1,)  # all delays round to index 0

    def test_seeded_draws_are_reproducible(self):
        a = sample_cir(ETU_PROFILE, TS_LTE_NS, 123)
        b = sample_cir(ETU_PROFILE, TS_LTE_NS, 123)
        np.testing.assert_array_equal(a, b)

    def test_load_profile_round_trip(self, tmp_path):
        text = "# custom profile\nname = office\ndelays_ns = 0, 30, 90\npowers_db = 0 -3 -6\n"
        path = tmp_path / "office.profile"
        path.write_text(text)
        profile = load_profile(path)
        assert profile.name == "office"
        assert profile.tap_delays_ns == (0.0, 30.0, 90.0)
        assert profile.tap_powers_db == (0.0, -3.0, -6.0)

    def test_load_profile_missing_key(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("delays_ns = 0, 10\n")
        with pytest.raises(ValueError, match="missing key"):
            load_profile(path)

    @pytest.mark.parametrize("key,text", [("delays_ns", "0, x"), ("powers_db", "0 -3dB")])
    def test_load_profile_names_the_file_and_key_of_a_bad_value(self, tmp_path, key, text):
        lines = {"delays_ns": "0, 30", "powers_db": "0, -3", key: text}
        path = tmp_path / "bad.profile"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        message = f"{path}: profile key '{key}' must be a list of numbers, got '{text}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_profile(path)

    def test_load_profile_rejects_an_unknown_key(self, tmp_path):
        path = tmp_path / "typo.profile"
        path.write_text("nmae = x\ndelays_ns = 0, 10\npowers_db = 0, -3\n")
        with pytest.raises(ValueError, match="line 1: unknown profile key 'nmae'"):
            load_profile(path)

    def test_load_profile_rejects_a_repeated_key(self, tmp_path):
        path = tmp_path / "twice.profile"
        path.write_text("delays_ns = 0, 10\npowers_db = 0, -3\ndelays_ns = 0, 20\n")
        with pytest.raises(ValueError, match="line 3: repeated profile key 'delays_ns'"):
            load_profile(path)

    def test_builtin_registry(self):
        assert set(BUILTIN_PROFILES) == {"etu", "epa"}


class TestBatchedDraw:
    @settings(max_examples=150, deadline=None)
    @given(
        profile=profiles(),
        sample_period_ns=st.floats(0.5, 200.0),
        seeds=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    )
    def test_rows_equal_the_per_run_oracle_bitwise(self, profile, sample_period_ns, seeds):
        rngs = [np.random.default_rng([seed, run]) for run, seed in enumerate(seeds)]
        replay = [np.random.default_rng([seed, run]) for run, seed in enumerate(seeds)]
        taps = draw_taps(profile, sample_period_ns, rngs)
        assert taps.shape == (len(seeds), profile_tap_count(profile, sample_period_ns))
        assert taps.dtype == np.complex128
        for row, rng, oracle_rng in zip(taps, rngs, replay):
            assert row.tobytes() == per_run_draw_oracle(profile, sample_period_ns, oracle_rng).tobytes()
            # Each stream is left where the per-run draw leaves it.
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert rng.standard_normal() == oracle_rng.standard_normal()

    def test_colliding_epa_taps_add_in_profile_order(self):
        ts = 1e9 / (128 * 240e3)  # 32.55 ns: 90 ns and 110 ns both land on index 3
        rngs = [np.random.default_rng([5, run]) for run in range(3)]
        taps = draw_taps(EPA_PROFILE, ts, rngs)
        for run, row in enumerate(taps):
            want = per_run_draw_oracle(EPA_PROFILE, ts, np.random.default_rng([5, run]))
            assert row.tobytes() == want.tobytes()
        assert taps.shape == (3, 14)

    def test_the_private_kernel_is_bitwise_draw_taps_on_reused_buffers(self):
        """A full chunk of EPA draws, where two taps land on index 3, then a
        shorter chunk on the same buffers: each is bitwise draw_taps, so the
        kernel zeroes the taps it reuses and adds in profile order."""
        from physlice.channel import _draw_taps_into, _profile_grid

        ts = 1e9 / (128 * 240e3)
        _, scale, columns = _profile_grid(EPA_PROFILE, ts)
        draws = np.empty((4, 2, scale.size))
        taps = np.zeros((4, profile_tap_count(EPA_PROFILE, ts)), dtype=np.complex128)
        for run_ids in (range(4), range(4, 7)):
            r = len(run_ids)
            _draw_taps_into([np.random.default_rng([5, run]) for run in run_ids], scale, columns, draws[:r], taps[:r])
            want = draw_taps(EPA_PROFILE, ts, [np.random.default_rng([5, run]) for run in run_ids])
            assert taps[:r].tobytes() == want.tobytes()
            for row, run in zip(taps, run_ids):
                assert row.tobytes() == per_run_draw_oracle(EPA_PROFILE, ts, np.random.default_rng([5, run])).tobytes()

    def test_sample_cir_is_the_batch_of_one_draw(self):
        taps = sample_cir(ETU_PROFILE, TS_LTE_NS, np.random.default_rng([1, 9]))
        (row,) = draw_taps(ETU_PROFILE, TS_LTE_NS, [np.random.default_rng([1, 9])])
        assert taps.shape == row.shape and taps.dtype == np.complex128
        assert taps.tobytes() == row.tobytes()

    def test_empty_batch(self):
        assert draw_taps(EPA_PROFILE, 10.0, []).shape == (0, 42)

    def test_rejects_non_generator_streams(self):
        with pytest.raises(TypeError, match="Generator"):
            draw_taps(EPA_PROFILE, 10.0, [0, 1])

    def test_grid_is_read_only(self):
        from physlice.channel import _profile_grid

        idx, scale, columns = _profile_grid(ETU_PROFILE, TS_LTE_NS)
        assert not idx.flags.writeable and not scale.flags.writeable and not columns.flags.writeable
        assert _profile_grid(ETU_PROFILE, TS_LTE_NS)[0] is idx

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_sample_period_that_is_not_positive_and_finite(self, period):
        for call in (
            lambda: profile_tap_count(ETU_PROFILE, period),
            lambda: draw_taps(ETU_PROFILE, period, [np.random.default_rng(0)]),
            lambda: sample_cir(ETU_PROFILE, period, 0),
        ):
            with pytest.raises(ValueError, match="sample period must be a positive finite number"):
                call()

    def test_rejects_a_delay_spread_beyond_the_index_range(self):
        profile = ChannelProfile("far", (0.0, 1e300), (0.0, 0.0))
        with pytest.raises(ValueError, match="too long"):
            profile_tap_count(profile, 1e-10)

    def test_check_taps_passes_a_drawn_batch_through(self):
        taps = draw_taps(EPA_PROFILE, 10.0, [np.random.default_rng(run) for run in range(3)])
        assert check_taps(taps, 64, (3,)) is taps
        assert check_taps(taps, 64) is taps
        shared = taps[0]
        assert check_taps(shared, 64, (3,)) is shared
        with pytest.raises(ValueError, match=re.escape("expected taps of shape (L,) or (2, L), got (3, 42)")):
            check_taps(taps, 64, (2,))
        with pytest.raises(ValueError, match=re.escape("expected taps of shape (L,), got (3, 42)")):
            check_taps(taps, 64, ())
        with pytest.raises(ValueError, match="42 taps do not fit in 32 bins"):
            check_taps(taps, 32, (3,))
        bad = taps.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check_taps(bad, 64, (3,))
        for empty in ([], np.zeros((3, 0)), 1.0):
            with pytest.raises(ValueError, match="non-empty"):
                check_taps(empty, 64)


@st.composite
def spectrum_cases(draw):
    """R = 1 .. 17 rows (past any SIMD width, with odd leftovers), n = 2 ..
    4096 points and L = 1 .. n taps, and a seed."""
    n = draw(st.integers(2, 4096))
    return draw(st.integers(1, 17)), n, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


class TestSpectrumInto:
    """``channel._spectrum_into`` pads the taps into the caller's buffer and
    transforms it in place; that takes numpy's multi-row FFT path where
    ``np.fft.fft(taps, n)`` pads and transforms one row at a time. The two
    paths, and one call per row, must agree bit for bit."""

    @example(case=(16, 2048, 155, 1))
    @example(case=(17, 64, 64, 2))
    @example(case=(1, 2, 1, 3))
    @settings(max_examples=120, deadline=None)
    @given(case=spectrum_cases())
    def test_is_bitwise_numpy_padding_and_the_per_row_transform(self, case):
        from physlice.channel import _spectrum_into

        rows, n, length, seed = case
        taps = random_taps(np.random.default_rng(seed), (rows, length))
        out = np.empty((rows, n), dtype=np.complex128)
        assert _spectrum_into(taps, out) is out
        assert out.tobytes() == np.fft.fft(taps, n, axis=-1).tobytes()
        assert out.tobytes() == b"".join(np.fft.fft(row, n).tobytes() for row in taps)

    def test_a_reused_buffer_keeps_nothing_of_the_last_chunk(self):
        """A 155-tap chunk written over junk, then a 9-tap chunk over the
        155-tap spectrum: the tail is zeroed again on every call."""
        from physlice.channel import _spectrum_into

        rng = np.random.default_rng(23)
        out = random_taps(rng, (16, 2048))
        for rows, length in ((16, 155), (5, 9)):
            taps = random_taps(rng, (rows, length))
            got = _spectrum_into(taps, out[:rows])
            assert got.tobytes() == np.fft.fft(taps, 2048, axis=-1).tobytes()


class TestCirculantBuild:
    def test_identity_channel(self):
        ch = pad([1.0], 4)
        np.testing.assert_allclose(dense(ch), np.eye(4), atol=1e-15)

    def test_first_column_and_cyclic_wrap(self):
        ch = pad([2.0, 3.0], 4)
        np.testing.assert_allclose(ch, [2, 3, 0, 0])
        matrix = dense(ch)
        np.testing.assert_allclose(matrix[:, 0], [2, 3, 0, 0])
        assert matrix[0, 3] == 3.0  # wraparound of the delayed tap

    def test_block_shapes_when_taps_fit_half(self):
        rng = np.random.default_rng(5)
        taps = random_taps(rng, 3)
        matrix = dense(pad(taps, 8))
        top_left = matrix[:4, :4]
        top_right = matrix[:4, 4:]
        # In-block part: lower-triangular Toeplitz of the taps.
        np.testing.assert_allclose(top_left, lower_triangular_toeplitz(taps, 4), atol=1e-15)
        # Wraparound part: strictly upper triangular.
        assert np.max(np.abs(np.tril(top_right))) == 0.0
        np.testing.assert_allclose(top_right, circular_complement(taps, 4), atol=1e-15)



class TestBlocks:
    def test_trivial_blocks(self):
        ch = pad([1.0], 2)
        a, b = extract_blocks(ch)
        np.testing.assert_allclose(a, [[1.0]])
        np.testing.assert_allclose(b, [[0.0]])

    def test_two_tap_blocks(self):
        h0, h1 = 0.8 + 0.1j, 0.3 - 0.2j
        ch = pad([h0, h1], 4)
        a, b = extract_blocks(ch)
        np.testing.assert_allclose(a, [[h0, 0], [h1, h0]], atol=1e-15)
        np.testing.assert_allclose(b, [[0, h1], [0, 0]], atol=1e-15)

    def test_persymmetric_block_identity(self):
        rng = np.random.default_rng(8)
        ch = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a, b = extract_blocks(ch)
        matrix = dense(ch)
        np.testing.assert_allclose(matrix[4:, :4], b, atol=1e-15)
        np.testing.assert_allclose(matrix[4:, 4:], a, atol=1e-15)


class TestChildren:
    def test_positive_child_no_fold_for_short_taps(self):
        ch = pad([0.5, 0.25j], 8)
        child = positive_child(ch)
        np.testing.assert_allclose(child, [0.5, 0.25j, 0, 0], atol=1e-15)

    def test_positive_child_folds_overhang(self):
        ch = np.array([1, 0, 0, 0, 0, 0, 0, 0.5], dtype=complex)
        np.testing.assert_allclose(positive_child(ch), [1, 0, 0, 0.5], atol=1e-15)

    def test_positive_child_fold_matches_dense_transform_block(self):
        rng = np.random.default_rng(3)
        ch = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        t = split_matrix(8)
        mixed = t.conj().T @ dense(ch) @ t
        np.testing.assert_allclose(mixed[:4, :4], dense(positive_child(ch)), atol=1e-12)

    def test_identity_channel_children_stay_identity(self):
        ch = pad([1.0], 16)
        for _ in range(4):
            ch = positive_child(ch)
            np.testing.assert_allclose(dense(ch), np.eye(ch.size), atol=1e-15)
        ch = pad([1.0], 16)
        np.testing.assert_allclose(dense(negative_child(ch)), np.eye(8), atol=1e-15)

    def test_negative_child_two_tap_modulation(self):
        h0, h1 = 0.9 - 0.4j, 0.2 + 0.7j
        ch = pad([h0, h1], 8)
        child = negative_child(ch)
        rot = 0.70710678 - 0.70710678j  # exp(-j*pi/4)
        np.testing.assert_allclose(child, [h0, h1 * rot, 0, 0], atol=1e-8)

    def test_negative_child_matches_dense_mixed_block(self):
        rng = np.random.default_rng(16)
        ch = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a, b = extract_blocks(ch)
        w = np.diag(np.exp(2j * np.pi * np.arange(8) / 16))
        dense_child = w.conj().T @ (a - b) @ w
        np.testing.assert_allclose(dense_child, dense(negative_child(ch)), atol=1e-12)

    @pytest.mark.parametrize("size", [8, 32, 128])
    def test_full_split_block_diagonalization(self, size):
        rng = np.random.default_rng(size)
        ch = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        t = split_matrix(size)
        mixed = t.conj().T @ dense(ch) @ t
        half = size // 2
        expected = np.zeros_like(mixed)
        expected[:half, :half] = dense(positive_child(ch))
        expected[half:, half:] = dense(negative_child(ch))
        assert np.max(np.abs(mixed - expected)) < 1e-10

    @pytest.mark.parametrize("size", [4, 16, 64])
    def test_children_take_even_and_odd_bins(self, size):
        rng = np.random.default_rng(size + 1)
        ch = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        parent_bins = np.fft.fft(ch)
        assert np.max(np.abs(np.fft.fft(positive_child(ch)) - parent_bins[0::2])) < 1e-10
        assert np.max(np.abs(np.fft.fft(negative_child(ch)) - parent_bins[1::2])) < 1e-10

    def test_eigenvalues_equal_response_as_multiset(self):
        rng = np.random.default_rng(77)
        ch = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        eigs = np.sort_complex(np.linalg.eigvals(dense(ch)))
        bins = np.sort_complex(np.fft.fft(ch))
        assert np.max(np.abs(eigs - bins)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), log_size=st.integers(1, 7))
    def test_a_batch_folds_as_its_rows_and_keeps_the_bin_law(self, data, rows, log_size):
        """An (R, n) batch of generators gives bitwise the children of each
        row, and each child's FFT is its parent's even or odd bins."""
        size = 2**log_size
        unit = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        batch = np.array(data.draw(st.lists(unit, min_size=rows * size, max_size=rows * size)), dtype=np.complex128)
        batch = batch.reshape(rows, size)
        parent_bins = np.fft.fft(batch, axis=-1)
        for child, residue in ((positive_child, 0), (negative_child, 1)):
            children = child(batch)
            assert children.shape == (rows, size // 2)
            for row, got in zip(batch, children):
                assert got.tobytes() == child(row).tobytes()
            assert np.max(np.abs(np.fft.fft(children, axis=-1) - parent_bins[:, residue::2])) < 1e-10

    @pytest.mark.parametrize("child", [positive_child, negative_child])
    @pytest.mark.parametrize(
        "generator,message",
        [
            (np.ones(6), "power-of-two size"),
            (np.ones((2, 3)), "power-of-two size"),
            (np.ones(1), "at least 2"),
            (np.ones((2, 0)), "power-of-two size"),
            (1.0, "power-of-two size"),
            ([1.0, np.nan], "non-finite"),
            ([[1.0, 0.0], [complex(0.0, np.inf), 1.0]], "non-finite"),
        ],
    )
    def test_children_check_their_generators(self, child, generator, message):
        with pytest.raises(ValueError, match=message):
            child(generator)

    @pytest.mark.parametrize(
        "child,generator",
        [
            (positive_child, np.full(4, 1e308)),
            (positive_child, [[1.0, 1.0], [1e308j, 1e308j]]),
            (negative_child, [1e308, 0.0, -1e308, 0.0]),
            # The difference is finite; its product with exp(-j*pi/4) is not.
            (negative_child, [0.0, 1.5e308 + 1.5e308j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        ],
    )
    def test_children_reject_a_fold_that_overflows_without_a_warning(self, child, generator):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows a float"):
                child(generator)


class TestSplitCoupling:
    def test_single_tap_has_zero_coupling(self):
        low, wrap, coupling = split_coupling([1.0], 32)
        assert coupling == 0.0
        assert np.max(np.abs(wrap)) == 0.0

    def test_exact_eighth_length_couples(self):
        n = 64
        _, _, coupling = split_coupling(np.ones(n // 8), n)
        assert coupling > 0.0

    def test_coupling_monotone_in_channel_length(self):
        # Growing the channel only fills in more entries of the two blocks;
        # for nonnegative taps entrywise growth implies spectral-norm growth.
        # (Complex taps can cancel, so the sweep is monotone only for such h.)
        rng = np.random.default_rng(12)
        n = 64
        taps = np.abs(rng.standard_normal(n // 4)).astype(complex)
        values = []
        for length in range(1, n // 4 + 1):
            values.append(split_coupling(taps[:length], n)[2])
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)

    def test_rejects_overlong_channel(self):
        with pytest.raises(ValueError):
            split_coupling(np.ones(17), 64)


def scipy_triangular_blocks(taps, size):
    """The triangular block and its wraparound complement built by
    scipy.linalg.toeplitz from their first column and first row."""
    col = np.zeros(size, dtype=np.complex128)
    n = min(taps.size, size)
    col[:n] = taps[:n]
    row = np.zeros(size, dtype=np.complex128)
    row[0] = col[0]
    low = toeplitz(col, row)
    row = np.zeros(size, dtype=np.complex128)
    j = np.arange(1, size)
    hit = size - j < taps.size
    row[j[hit]] = taps[size - j[hit]]
    return low, toeplitz(np.zeros(size, dtype=np.complex128), row)


def assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype == np.complex128
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# Finite complex entries, signed zeros included, so a gather that rounds or
# drops a sign would show.
entries = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


class TestTriangularBuilders:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), size=st.integers(1, 64))
    def test_builders_equal_scipy_toeplitz_bitwise(self, data, size):
        # Up to 2 * size taps, so taps beyond the block are dropped.
        length = data.draw(st.integers(1, 2 * size))
        taps = np.array(data.draw(st.lists(entries, min_size=length, max_size=length)), dtype=np.complex128)
        low, wrap = scipy_triangular_blocks(taps, size)
        assert_bitwise_equal(lower_triangular_toeplitz(taps, size), low)
        assert_bitwise_equal(circular_complement(taps, size), wrap)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), log_size=st.integers(0, 6))
    def test_dense_circulant_equals_scipy_circulant_bitwise(self, data, log_size):
        size = 2**log_size
        gen = np.array(data.draw(st.lists(entries, min_size=size, max_size=size)), dtype=np.complex128)
        assert_bitwise_equal(dense(gen), circulant(gen))

    def test_lower_triangular_matches_block_of_circulant(self):
        rng = np.random.default_rng(2)
        taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        matrix = dense(pad(taps, 16))
        np.testing.assert_allclose(lower_triangular_toeplitz(taps, 8), matrix[:8, :8], atol=1e-15)

    def test_sum_reconstructs_circulant_when_taps_fit(self):
        rng = np.random.default_rng(4)
        taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        total = lower_triangular_toeplitz(taps, 8) + circular_complement(taps, 8)
        matrix = dense(pad(taps, 8))
        np.testing.assert_allclose(total, matrix, atol=1e-15)

    def test_overlong_taps_are_dropped(self):
        taps = np.arange(1, 7, dtype=complex)  # 6 taps into size-4 blocks
        low = lower_triangular_toeplitz(taps, 4)
        np.testing.assert_allclose(low[:, 0], [1, 2, 3, 4])
        wrap = circular_complement(taps, 4)
        # Entry (i, j) = taps[4 + i - j] (0-based), so the wraparound band now
        # overlaps the in-block lags; taps at index >= 4 fit nowhere and drop.
        np.testing.assert_allclose(wrap[0, 1:], [4, 3, 2])
        np.testing.assert_allclose(np.diag(wrap, 1), [4, 4, 4])
        assert not np.isin([5, 6], low).any() and not np.isin([5, 6], wrap).any()



def call_with_taps(name, taps):
    """Call the public function ``name`` with ``taps``: on a 16-sample frame
    and, for the quarter-frame functions, on 4-sample blocks."""
    from physlice.mi import chain_mi, split_report, uniformity_ratio
    from physlice.sliceplan import build_plan
    from physlice.txrx import iterative_decode, modulate, propagate, receive, transmit

    plan = build_plan(16, 1, 16)
    frame = transmit(modulate(np.zeros(32, dtype=int), plan), plan)
    block = np.zeros(4, dtype=complex)
    calls = {
        "propagate": lambda: propagate(frame, taps),
        "receive": lambda: receive(frame.body, plan, taps),
        "chain_mi": lambda: chain_mi(taps, 16, 1, 1.0),
        "split_report": lambda: split_report(taps, 16, 1, 1.0),
        "split_coupling": lambda: split_coupling(taps, 16),
        "uniformity_ratio": lambda: uniformity_ratio(taps, 16),
        "iterative_decode": lambda: iterative_decode(block, block, taps),
    }
    return calls[name]()


TAKE_TAPS = (
    "propagate", "receive", "chain_mi", "split_report",
    "split_coupling", "uniformity_ratio", "iterative_decode",
)
# chain_mi takes any leading batch shape; the others take one channel here.
ONE_CHANNEL = tuple(name for name in TAKE_TAPS if name != "chain_mi")


class TestTapBoundaries:
    """One validator, ``check_taps``, guards every function that takes taps."""

    @pytest.mark.parametrize("name", TAKE_TAPS)
    @pytest.mark.parametrize(
        "taps,message",
        [
            ([], "non-empty"),
            (np.zeros((1, 0)), "non-empty"),
            ([1.0, np.nan], "non-finite"),
            ([1.0, complex(0.0, np.inf)], "non-finite"),
            (np.ones(17), "do not fit"),
        ],
    )
    def test_rejects_empty_non_finite_and_overlong_taps(self, name, taps, message):
        with pytest.raises(ValueError, match=message):
            call_with_taps(name, taps)

    @pytest.mark.parametrize("name", ONE_CHANNEL)
    def test_rejects_two_dimensional_taps_for_one_channel(self, name):
        with pytest.raises(ValueError, match=re.escape("expected taps of shape (L,), got (2, 2)")):
            call_with_taps(name, np.ones((2, 2)))
