import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physlice.channel import (
    ETU_PROFILE,
    circular_complement,
    lower_triangular_toeplitz,
    negative_child,
    positive_child,
    sample_cir,
)
from physlice.mi import (
    MODE_EXACT,
    MODE_LITERAL,
    ChainMi,
    _chain_levels_into,
    chain_mi,
    mi_fast,
    split_report,
    uniformity_ratio,
)
from physlice.experiments import make_config, run_scenario
from physlice.sliceplan import build_plan

from oracles import chain_levels, dense, mi_logdet, pad, random_taps, recursive_matrix


class TestRho:
    def test_from_db(self):
        assert make_config("fig9", snr_db=10.0).snr == pytest.approx(10.0)
        assert make_config("fig9", snr_db=0.0).snr == pytest.approx(1.0)

    def test_from_db_beyond_the_float_range_raises_value_error(self):
        with pytest.raises(ValueError, match=r"snr_db 4000.0 is too large: 10\*\*\(snr_db / 10\) overflows a float"):
            make_config("loopback", snr_db=4000.0).snr

    @pytest.mark.parametrize("rho", [-1.0, np.nan, np.inf])
    def test_rejects_negative_and_non_finite(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and non-negative"):
            mi_fast(np.ones(4), rho)
        with pytest.raises(ValueError, match="rho must be finite and non-negative"):
            chain_mi([1.0], 4, 1, rho)

    @pytest.mark.parametrize("rho", [1.0, 0.0])
    @pytest.mark.parametrize(
        "mi",
        [
            lambda rho: chain_mi(np.array([1e200]), 4, 1, rho),
            lambda rho: chain_mi(np.array([1e200]), 4, 1, rho, MODE_LITERAL),
            lambda rho: split_report(np.array([1e200]), 4, 1, rho),
            lambda rho: mi_fast(np.array([1e155, 0.0]), rho),
        ],
        ids=["chain_mi", "chain_mi-literal", "split_report", "mi_fast"],
    )
    def test_mi_of_finite_inputs_whose_gain_overflows_raises_without_a_warning(self, rho, mi):
        # |gain|^2 overflows a float; at rho = 0 the product would be 0 * inf = nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"rho \* \|gain\|\^2 overflows a float"):
                mi(rho)

    def test_mi_near_the_overflow_stays_finite(self):
        # rho * |gain|^2 = 1e300 * 1e8 overflows nowhere.
        assert np.isfinite(mi_fast(np.array([1e4, 0.0]), 1e300))
        assert np.isfinite(chain_mi(np.array([1e4]), 4, 1, 1e300).total)


class TestMiKernels:
    def test_identity_channel_logdet(self):
        ch = pad([1.0], 4)
        assert mi_logdet(ch, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_flat_channel_logdet(self):
        ch = pad([1.0], 8)
        assert mi_logdet(ch, 3.0) == pytest.approx(16.0, abs=1e-12)

    def test_flat_generator_fast(self):
        gen = np.zeros(32, dtype=complex)
        gen[0] = 1.0
        assert mi_fast(gen, 9.0) == pytest.approx(32 * np.log2(10.0), rel=1e-12)

    def test_fast_equals_logdet_on_random_channels(self):
        rng = np.random.default_rng(21)
        for n in (16, 64, 128):
            taps = random_taps(rng, n // 4)
            ch = pad(taps, n)
            assert mi_fast(ch, 5.0) == pytest.approx(mi_logdet(ch, 5.0), rel=1e-9)

    def test_fast_splits_into_even_and_odd_bins(self):
        rng = np.random.default_rng(2)
        ch = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        parent = mi_fast(ch, 4.0)
        children = mi_fast(positive_child(ch), 4.0) + mi_fast(
            negative_child(ch), 4.0
        )
        assert children == pytest.approx(parent, rel=1e-9)

    def test_logdet_accepts_dense_matrix(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        expected = float(np.sum(np.log2(np.linalg.eigvalsh(np.eye(6) + 2.0 * h @ h.conj().T))))
        assert mi_logdet(h, 2.0) == pytest.approx(expected, rel=1e-9)

    def test_logdet_rejects_oversize(self):
        with pytest.raises(ValueError, match="capped"):
            mi_logdet(np.eye(1024), 1.0)

    def test_transform_invariance(self):
        rng = np.random.default_rng(9)
        for n, depth in ((32, 2), (128, 3)):
            taps = random_taps(rng, n // 4)
            h = dense(pad(taps, n))
            g = recursive_matrix(n, depth)
            assert mi_logdet(h, 7.0) == pytest.approx(mi_logdet(g.conj().T @ h @ g, 7.0), rel=1e-9)


class TestSplitReport:
    def test_flat_channel_splits_exactly_in_half(self):
        taps = [1.0]
        report = split_report(taps, 64, 3, 10.0)
        assert report.positive == pytest.approx(report.parent / 2, rel=1e-12)
        assert report.negative == pytest.approx(report.parent / 2, rel=1e-12)
        sizes = [desc.size for desc in build_plan(64, 3, 0).slices]
        for size in set(sizes):
            values = [mi for mi, s in zip(report.slice_mi().tolist(), sizes) if s == size]
            assert max(values) - min(values) < 1e-9

    def test_conservation_exact_fold(self):
        rng = np.random.default_rng(5)
        for n, depth in ((64, 3), (128, 5), (1024, 6)):
            taps = random_taps(rng, n // 8)
            report = split_report(taps, n, depth, 10.0)
            assert report.max_residual_rel() < 1e-9
            leaf_sum = sum(report.slice_mi().tolist())
            assert leaf_sum == pytest.approx(float(report.total), rel=1e-9)

    def test_total_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        taps = random_taps(rng, 10)
        report = split_report(taps, 128, 2, 10.0)
        assert float(report.total) == pytest.approx(
            mi_logdet(pad(taps, 128), 10.0), rel=1e-9
        )

    def test_urban_scale_first_split_is_nearly_even(self):
        from physlice.channel import ETU_PROFILE, sample_cir

        ts = 1e9 / (2048 * 15e3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            taps = sample_cir(ETU_PROFILE, ts, rng)
            report = split_report(taps, 2048, 1, 10.0)
            gap = abs(report.positive[0] - report.negative[0]) / report.parent[0]
            assert gap < 0.01

    def test_modes_agree_in_uniform_regime(self):
        rng = np.random.default_rng(7)
        taps = random_taps(rng, 6)  # 6 taps <= 64/2^3
        exact = split_report(taps, 64, 3, 10.0, mode=MODE_EXACT)
        literal = split_report(taps, 64, 3, 10.0, mode=MODE_LITERAL)
        assert exact.slice_mi().shape == literal.slice_mi().shape == (4,)
        assert literal.slice_mi() == pytest.approx(exact.slice_mi(), rel=1e-9)

    def test_literal_mode_breaks_conservation_below_channel_length(self):
        rng = np.random.default_rng(8)
        taps = random_taps(rng, 24)  # outgrows slices below size 32
        literal = split_report(taps, 64, 3, 10.0, mode=MODE_LITERAL)
        assert literal.max_residual_rel() > 1e-6
        # The plan calls the non-uniform regime out (fig4 notes it).
        assert build_plan(64, 3, 24, channel_length=taps.size).non_uniform

    def test_thin_channel_benchmark_property(self):
        # With a very short channel every slice approaches total / 2^level.
        rng = np.random.default_rng(13)
        taps = random_taps(rng, 2)
        report = split_report(taps, 1024, 4, 10.0)
        for desc, mi_bits in zip(build_plan(1024, 4, 0).slices, report.slice_mi().tolist(), strict=True):
            expected = float(report.total) / (1 << len(desc.path))
            assert mi_bits == pytest.approx(expected, rel=0.01)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            split_report([1.0], 16, 1, 1.0, mode="guess")

    def test_rejects_invalid_plan(self):
        with pytest.raises(ValueError):
            split_report([1.0], 16, 5, 1.0)

    def test_csv_export(self, tmp_path):
        paths = run_scenario(make_config("fig4", depth=2, output_dir=str(tmp_path)))
        lines = paths["report"].read_text().strip().splitlines()
        assert lines[0] == "level,path,size,mode,mi_bits,parent_residual"
        assert len(lines) == 1 + 3
        assert "exact-fold" in lines[1]

    def test_summary_table_mentions_each_slice(self, tmp_path):
        cfg = make_config("fig4", depth=2, output_dir=str(tmp_path))
        paths = run_scenario(cfg)
        table = paths["summary"].read_text().split("residual\n")[1].splitlines()
        runs = [line.split(",") for line in paths["runs"].read_text().splitlines()[1:]]
        plan = build_plan(cfg.n_fft, cfg.depth, cfg.cp_length)
        # One table row per slice, in frame order, with the slice's runs-file MI.
        for desc, row, run in zip(plan.slices, table, runs, strict=True):
            path, size, mi_bits, _ = row.split()
            assert (path, int(size)) == (desc.path, desc.size) == (run[1], int(run[2]))
            assert float(mi_bits) == pytest.approx(float(run[3]), abs=1e-6)


class TestUniformity:
    def test_single_tap_is_exactly_zero(self):
        assert uniformity_ratio([1.0], 64) == 0.0

    def test_monotone_for_nonnegative_prefixes(self):
        rng = np.random.default_rng(14)
        taps = np.abs(rng.standard_normal(32)).astype(complex)
        values = [
            uniformity_ratio(taps[:length], 256)
            for length in (2, 8, 32)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_diagnostic_ranks_branch_imbalance(self):
        # Across random channels, a larger coupling should rank with a larger
        # branch MI gap (positive rank correlation).
        rng = np.random.default_rng(15)
        diagnostics = []
        gaps = []
        for _ in range(50):
            length = int(rng.integers(2, 65))
            taps = random_taps(rng, length)
            diagnostics.append(uniformity_ratio(taps, 256))
            report = split_report(taps, 256, 1, 10.0)
            gaps.append(abs(report.positive[0] - report.negative[0]) / report.parent[0])
        ranks_d = np.argsort(np.argsort(diagnostics))
        ranks_g = np.argsort(np.argsort(gaps))
        rho = np.corrcoef(ranks_d, ranks_g)[0, 1]
        assert rho > 0.0

    def test_rejects_overlong_channel(self):
        with pytest.raises(ValueError):
            uniformity_ratio(np.ones(17), 64)


class TestDeepReport:
    """The split of one slice channel all the way down to size 1, in both
    modes, as table1 runs it."""

    def test_cost_row_matches_reference_values(self, tmp_path):
        paths = run_scenario(make_config("table1", output_dir=str(tmp_path)))
        summary = paths["summary"].read_text().splitlines()
        assert "continuation_root_size=256 (deepest positive slice of a depth-3 plan)" in summary
        (row,) = [line.split() for line in summary if line.split()[0] == "decode_ops"]
        assert row[1:] == ["1152", "512", "224", "96", "40", "16", "6", "2/1"]

    def test_exact_mode_conserves_at_first_level(self):
        rng = np.random.default_rng(17)
        channel = pad(random_taps(rng, 100), 256)
        report = chain_mi(channel, 256, 8, 10.0, MODE_EXACT)
        assert report.positive[0] + report.negative[0] == pytest.approx(report.parent[0], rel=1e-9)
        assert report.max_residual_rel() < 1e-9

    def test_flat_channel_halves_down_to_size_one(self):
        channel = pad([1.0], 256)
        for mode in (MODE_EXACT, MODE_LITERAL):
            report = chain_mi(channel, 256, 8, 1.0, mode)
            expected = float(report.total) * np.array([(256 >> level) / 256 for level in range(1, 9)])
            assert report.positive == pytest.approx(expected, rel=1e-9)
            assert report.negative == pytest.approx(expected, rel=1e-9)

    def test_modes_coincide_while_taps_fit(self):
        rng = np.random.default_rng(18)
        channel = pad(random_taps(rng, 20), 256)
        exact, literal = (chain_mi(channel, 256, 8, 10.0, mode) for mode in (MODE_EXACT, MODE_LITERAL))
        fits = slice(0, 3)  # levels 1-3, slices of 128 down to 32: the channel (20 taps) still fits
        assert literal.positive[fits] == pytest.approx(exact.positive[fits], rel=1e-9)
        assert literal.negative[fits] == pytest.approx(exact.negative[fits], rel=1e-9)

    def test_summary_table_contains_cost_row(self, tmp_path):
        # The continuation root of a depth-1 plan at N = 128 is a size-64 slice.
        cfg = make_config(
            "table1", n_fft=128, profile="epa", delta_f_hz=240e3, cp_length=16, depth=1, output_dir=str(tmp_path)
        )
        paths = run_scenario(cfg)
        table = paths["summary"].read_text()
        assert "continuation_root_size=64" in table
        assert "decode_ops" in table and "2/1" in table


def fold_walk(generator, depth, rho):
    """(parent, positive, negative) MI per level of the generator-fold chain."""
    parent = mi_fast(generator, rho)
    levels = []
    for _ in range(depth):
        pos, neg = positive_child(generator), negative_child(generator)
        pos_mi = mi_fast(pos, rho)
        levels.append((parent, pos_mi, mi_fast(neg, rho)))
        generator, parent = pos, pos_mi
    return levels


def dense_mi(matrices, rho):
    """log2 det(I + rho * H H^H) of each matrix H of a (R, n, n) stack, by Cholesky."""
    n = matrices.shape[-1]
    gram = np.eye(n) + rho * (matrices @ matrices.conj().swapaxes(-1, -2))
    return 2.0 * np.log2(np.diagonal(np.linalg.cholesky(gram), axis1=-2, axis2=-1).real).sum(axis=-1)


def triangular_walk(channels, size, depth, rho):
    """The chain of each channel with every child the dense ``low +/- wrap``
    of the raw taps: (parent, positive, negative) MI per level, (R, depth, 3)."""
    levels = np.empty((len(channels), depth, 3))
    parent = dense_mi(np.stack([dense(pad(taps, size)) for taps in channels]), rho)
    for level in range(1, depth + 1):
        half = size >> level
        low = np.stack([lower_triangular_toeplitz(taps, half) for taps in channels])
        wrap = np.stack([circular_complement(taps, half) for taps in channels])
        levels[:, level - 1] = np.stack([parent, dense_mi(low + wrap, rho), dense_mi(low - wrap, rho)], axis=-1)
        parent = levels[:, level - 1, 1]
    return levels


def chain_slices(levels, depth):
    """Paths, and the MI per channel (R, depth + 1), of every slice of a
    depth-``depth`` chain in frame order, from (R, levels, 3) per-level triples."""
    if depth == 0:
        return [""], levels[:, 0, :1]
    paths = ["+" * depth] + ["+" * (level - 1) + "-" for level in range(depth, 0, -1)]
    return paths, np.concatenate([levels[:, depth - 1, 1:2], levels[:, depth - 1 :: -1, 2]], axis=-1)


class TestEngineOracles:
    """The engine, both modes, every depth, slice and level, against both oracles.

    Exact mode follows the generator fold and literal mode the dense
    triangular blocks at every level; while the taps fit in a level's slices
    the two oracles coincide and each mode must match both. All N channel
    lengths of a frame size go through the engine as one zero-padded batch.
    """

    RHO = 10.0
    # Channels per dense oracle stack: 8 dense 256 x 256 matrices are 8 MB.
    STACK = 8

    @pytest.mark.parametrize("n", [1 << e for e in range(1, 9)])
    def test_reports_match_fold_and_dense_oracles(self, n):
        rng = np.random.default_rng(1000 + n)
        full = n.bit_length() - 1
        channels = [random_taps(rng, length) for length in range(1, n + 1)]
        lengths = np.arange(1, n + 1)
        stacked = np.zeros((n, n), dtype=complex)
        for row, taps in zip(stacked, channels):
            row[: taps.size] = taps
        oracles = {
            MODE_EXACT: np.array([fold_walk(pad(taps, n), full, self.RHO) for taps in channels]),
            MODE_LITERAL: np.concatenate(
                [triangular_walk(channels[i : i + self.STACK], n, full, self.RHO) for i in range(0, n, self.STACK)]
            ),
        }
        # The stacked Cholesky oracle is the single-matrix dense log-det oracle.
        np.testing.assert_allclose(
            oracles[MODE_LITERAL][: self.STACK, 0, 0],
            [mi_logdet(pad(taps, n), self.RHO) for taps in channels[: self.STACK]],
            rtol=1e-12,
        )
        for k in range(1, full + 1):
            fits = lengths <= n >> k
            np.testing.assert_allclose(oracles[MODE_EXACT][fits, k - 1], oracles[MODE_LITERAL][fits, k - 1], rtol=1e-9)

        for mode, oracle in oracles.items():
            for depth in range(full + 1):
                chain = chain_mi(stacked, n, depth, self.RHO, mode=mode)
                np.testing.assert_allclose(chain.total, oracle[:, 0, 0], rtol=1e-9)
                got = np.stack([chain.parent, chain.positive, chain.negative], axis=-1)
                np.testing.assert_allclose(got, oracle[:, :depth], rtol=1e-9)
                paths, expected = chain_slices(oracle, depth)
                assert [(d.path, d.size) for d in build_plan(n, depth, 0).slices] == [(p, n >> len(p)) for p in paths]
                np.testing.assert_allclose(chain.slice_mi(), expected, rtol=1e-9)

        # The residual of every level at full depth, both modes, to within
        # 1e-9 of each channel's root MI.
        residual_tol = 1e-9 * oracles[MODE_EXACT][:, :1, 0]
        for mode, oracle in oracles.items():
            want = oracle[..., 0] - (oracle[..., 1] + oracle[..., 2])
            got = chain_mi(stacked, n, full, self.RHO, mode=mode).residual()
            assert np.all(np.abs(got - want) <= residual_tol), mode

    def test_literal_chain_at_full_lte_frame_is_skew_circulant(self):
        rng = np.random.default_rng(2048)
        taps = sample_cir(ETU_PROFILE, 1e9 / (2048 * 15e3), rng)  # 155 taps
        report = split_report(taps, 2048, 11, self.RHO, mode=MODE_LITERAL)
        plan = build_plan(2048, 11, 0)
        assert report.slice_mi().shape == (len(plan.slices),) == (12,)
        for desc, mi_bits in zip(plan.slices, report.slice_mi().tolist()):
            size = desc.size
            head = np.zeros(size, dtype=complex)
            head[: min(size, taps.size)] = taps[:size]
            if desc.path.endswith("-"):
                head *= np.exp(-1j * np.pi * np.arange(size) / size)
            assert mi_bits == pytest.approx(mi_fast(head, self.RHO), rel=1e-9)
        assert report.max_residual_rel() > 1e-6


class TestBatchedEngine:
    """``chain_mi`` on (R, L) stacked taps against one call per row."""

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_LITERAL])
    def test_rows_are_bitwise_single_row_calls(self, mode):
        rng = np.random.default_rng(404)
        for n in [1 << e for e in range(1, 12)]:
            for depth in range(n.bit_length()):
                smallest = n >> depth
                rows = int(rng.integers(1, 7))
                # One row fits the smallest slice and, where the frame has room,
                # one outgrows it; the rest are random lengths up to N.
                lengths = [int(rng.integers(1, smallest + 1))]
                if smallest < n:
                    lengths.append(int(rng.integers(smallest + 1, n + 1)))
                lengths += [int(rng.integers(1, n + 1)) for _ in range(rows - len(lengths))]
                channels = [random_taps(rng, length) for length in lengths]
                stacked = np.zeros((len(channels), max(lengths)), dtype=complex)
                for padded, taps in zip(stacked, channels):
                    padded[: taps.size] = taps
                batch = chain_mi(stacked, n, depth, 10.0, mode=mode)
                assert batch.parent.shape == (len(channels), depth)
                for row, taps in enumerate(channels):
                    single = chain_mi(taps, n, depth, 10.0, mode=mode)
                    for name in ("total", "parent", "positive", "negative"):
                        np.testing.assert_array_equal(getattr(batch, name)[row], getattr(single, name))
                    report = split_report(taps, n, depth, 10.0, mode=mode)
                    assert report.total.shape == () and report.parent.shape == (depth,)
                    for name in ("total", "parent", "positive", "negative"):
                        np.testing.assert_array_equal(getattr(report, name), getattr(batch, name)[row])
                    assert report.slice_mi().tolist() == batch.slice_mi()[row].tolist()
                    assert report.max_residual_rel() == ChainMi(
                        *(getattr(batch, name)[row] for name in ("total", "positive", "negative"))
                    ).max_residual_rel()

    def test_zero_padding_does_not_change_a_row(self):
        rng = np.random.default_rng(405)
        taps = random_taps(rng, 9)
        padded = np.concatenate([taps, np.zeros(23)])
        for mode in (MODE_EXACT, MODE_LITERAL):
            a, b = chain_mi(taps, 64, 6, 3.0, mode), chain_mi(padded, 64, 6, 3.0, mode)
            np.testing.assert_array_equal(a.slice_mi(), b.slice_mi())

    def test_leading_batch_shape_is_kept(self):
        rng = np.random.default_rng(406)
        taps = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
        chain = chain_mi(taps, 32, 3, 1.0)
        assert chain.total.shape == (2, 3)
        assert chain.negative.shape == (2, 3, 3)
        assert chain.slice_mi().shape == (2, 3, 4)
        assert chain_mi(taps, 32, 0, 1.0).slice_mi().shape == (2, 3, 1)

    def test_rejects_bad_input_once_at_the_boundary(self):
        taps = np.ones((2, 4), dtype=complex)
        with pytest.raises(ValueError, match="unknown mode"):
            chain_mi(taps, 16, 1, 1.0, mode="guess")
        with pytest.raises(ValueError, match="depth 5 is invalid for frame size 16"):
            chain_mi(taps, 16, 5, 1.0)
        with pytest.raises(ValueError, match="power of two"):
            chain_mi(taps, 12, 1, 1.0)
        with pytest.raises(ValueError, match="do not fit"):
            chain_mi(np.ones((2, 17)), 16, 1, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            chain_mi(np.array([[1.0, np.nan]]), 16, 1, 1.0)
        with pytest.raises(ValueError, match="rho must be"):
            chain_mi(taps, 16, 1, -1.0)


def chain_buffers(rows, n, depth):
    """The chain kernel's result and scratch arrays for up to ``rows``
    channels: total, positive, negative, complex bins and float gains."""
    results = np.empty(rows), np.empty((rows, depth)), np.empty((rows, depth))
    return *results, np.empty((rows, n), complex), np.empty((rows, n))


def run_chain_kernel(taps, rho, mode, buffers):
    """The kernel on (r, L) taps in rows [:r] of ``buffers``: copies of the
    total, positive and negative MI it writes. The frame size and the depth
    are those of the buffers."""
    r = len(taps)
    total, positive, negative, bins, gains = (b[:r] for b in buffers)
    _chain_levels_into(taps, rho, mode, ChainMi(total, positive, negative), bins, gains)
    return total.copy(), positive.copy(), negative.copy()


@st.composite
def kernel_cases(draw):
    """Random R = 1 .. 17 (past any SIMD width of numpy's multi-row FFT,
    with odd leftovers), N, depth and L <= N; L is often above the smallest
    slice N >> depth, the non-uniform regime of literal mode."""
    n = 1 << draw(st.integers(1, 11))
    depth = draw(st.integers(0, n.bit_length() - 1))
    length = draw(st.one_of(st.integers(1, n), st.integers((n >> depth) + 1, n) if depth else st.just(n)))
    return draw(st.integers(1, 17)), n, depth, length, draw(st.integers(0, 2**32 - 1))


class TestChainKernel:
    """``mi._chain_levels_into`` against the allocating engine it replaced."""

    # Literal level 1 reuses the root spectrum up to L = N/2 and takes its
    # own FFT from L = N/2 + 1, at full and at partial depth.
    @example(case=(3, 64, 4, 32, 1), mode=MODE_LITERAL, rho=10.0)
    @example(case=(3, 64, 4, 33, 2), mode=MODE_LITERAL, rho=10.0)
    @example(case=(2, 16, 4, 8, 3), mode=MODE_LITERAL, rho=0.1)
    @example(case=(2, 16, 4, 9, 4), mode=MODE_LITERAL, rho=0.1)
    @example(case=(1, 4, 2, 3, 5), mode=MODE_LITERAL, rho=10.0)
    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases(), mode=st.sampled_from([MODE_EXACT, MODE_LITERAL]), rho=st.sampled_from([0.1, 10.0]))
    def test_kernel_is_bitwise_the_allocating_engine(self, case, mode, rho):
        rows, n, depth, length, seed = case
        taps = random_taps(np.random.default_rng(seed), (rows, length))
        got = run_chain_kernel(taps, rho, mode, chain_buffers(rows, n, depth))
        for have, want in zip(got, chain_levels(taps, n, depth, rho, mode), strict=True):
            assert have.shape == want.shape
            assert np.array_equal(have, want)

    def test_kernel_carries_no_state_between_chunks_on_reused_buffers(self):
        rng = np.random.default_rng(407)
        n, depth, rows = 256, 8, 5
        buffers = chain_buffers(rows, n, depth)
        # A full chunk, a partial chunk after it, then literal and exact mode
        # on the same buffers; 40 taps outgrow every slice from level 3 down.
        # The literal chunk of 200 taps takes its own level-1 FFT over the
        # whole scratch, and the 40-tap literal chunk after it reuses the root.
        chunks = [
            (rows, MODE_EXACT, 40),
            (2, MODE_EXACT, 40),
            (rows, MODE_LITERAL, 40),
            (3, MODE_EXACT, 40),
            (rows, MODE_LITERAL, 200),
            (4, MODE_LITERAL, 40),
        ]
        for r, mode, length in chunks:
            taps = random_taps(rng, (r, length))
            reused = run_chain_kernel(taps, 10.0, mode, buffers)
            fresh = run_chain_kernel(taps, 10.0, mode, chain_buffers(r, n, depth))
            for got, want, oracle in zip(reused, fresh, chain_levels(taps, n, depth, 10.0, mode), strict=True):
                assert got.tobytes() == want.tobytes() == oracle.tobytes()

    def test_mi_fast_shares_the_log_gain_rule(self):
        rng = np.random.default_rng(408)
        generator = random_taps(rng, 64)
        total, _, _ = chain_levels(generator, 64, 0, 10.0, MODE_EXACT)
        assert mi_fast(generator, 10.0) == float(total)
