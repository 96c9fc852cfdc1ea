import io

import numpy as np
import pytest

from physlice.channel import (
    ETU_PROFILE,
    CirculantChannel,
    build_circulant,
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
    SnrSpec,
    chain_mi,
    deep_split_report,
    mi_fast,
    mi_logdet,
    split_report,
    uniformity_ratio,
)
from physlice.transform import recursive_matrix


def random_taps(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


class TestSnrSpec:
    def test_from_db(self):
        assert SnrSpec.from_db(10.0).rho == pytest.approx(10.0)
        assert SnrSpec.from_db(0.0).rho == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SnrSpec(-1.0)


class TestMiKernels:
    def test_identity_channel_logdet(self):
        ch = build_circulant([1.0], 4)
        assert mi_logdet(ch, SnrSpec(1.0)) == pytest.approx(4.0, abs=1e-12)

    def test_flat_channel_logdet(self):
        ch = build_circulant([1.0], 8)
        assert mi_logdet(ch, SnrSpec(3.0)) == pytest.approx(16.0, abs=1e-12)

    def test_flat_generator_fast(self):
        gen = np.zeros(32, dtype=complex)
        gen[0] = 1.0
        assert mi_fast(gen, SnrSpec(9.0)) == pytest.approx(32 * np.log2(10.0), rel=1e-12)

    def test_fast_equals_logdet_on_random_channels(self):
        rng = np.random.default_rng(21)
        for n in (16, 64, 128):
            taps = random_taps(rng, n // 4)
            ch = build_circulant(taps, n)
            assert mi_fast(ch.generator, 5.0) == pytest.approx(mi_logdet(ch, 5.0), rel=1e-9)

    def test_fast_splits_into_even_and_odd_bins(self):
        rng = np.random.default_rng(2)
        ch = CirculantChannel(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        parent = mi_fast(ch.generator, 4.0)
        children = mi_fast(positive_child(ch).generator, 4.0) + mi_fast(
            negative_child(ch).generator, 4.0
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
            h = build_circulant(taps, n).dense()
            g = recursive_matrix(n, depth)
            assert mi_logdet(h, 7.0) == pytest.approx(mi_logdet(g.conj().T @ h @ g, 7.0), rel=1e-9)


class TestSplitReport:
    def test_flat_channel_splits_exactly_in_half(self):
        taps = [1.0]
        report = split_report(taps, 64, 3, SnrSpec(10.0))
        for level in report.levels:
            assert level.positive_mi == pytest.approx(level.parent_mi / 2, rel=1e-12)
            assert level.negative_mi == pytest.approx(level.parent_mi / 2, rel=1e-12)
        sizes = {r.size for r in report.records}
        for size in sizes:
            values = [r.mi_bits for r in report.records if r.size == size]
            assert max(values) - min(values) < 1e-9

    def test_conservation_exact_fold(self):
        rng = np.random.default_rng(5)
        for n, depth in ((64, 3), (128, 5), (1024, 6)):
            taps = random_taps(rng, n // 8)
            report = split_report(taps, n, depth, SnrSpec(10.0))
            assert report.max_level_residual() < 1e-9
            leaf_sum = sum(r.mi_bits for r in report.records)
            assert leaf_sum == pytest.approx(report.total_mi_bits, rel=1e-9)

    def test_total_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        taps = random_taps(rng, 10)
        report = split_report(taps, 128, 2, SnrSpec(10.0))
        assert report.total_mi_bits == pytest.approx(
            mi_logdet(build_circulant(taps, 128), SnrSpec(10.0)), rel=1e-9
        )

    def test_urban_scale_first_split_is_nearly_even(self):
        from physlice.channel import ETU_PROFILE, sample_cir

        ts = 1e9 / (2048 * 15e3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            taps = sample_cir(ETU_PROFILE, ts, rng)
            report = split_report(taps, 2048, 1, SnrSpec.from_db(10.0))
            level = report.levels[0]
            gap = abs(level.positive_mi - level.negative_mi) / level.parent_mi
            assert gap < 0.01

    def test_modes_agree_in_uniform_regime(self):
        rng = np.random.default_rng(7)
        taps = random_taps(rng, 6)  # 6 taps <= 64/2^3
        exact = split_report(taps, 64, 3, 10.0, mode=MODE_EXACT)
        literal = split_report(taps, 64, 3, 10.0, mode=MODE_LITERAL)
        for a, b in zip(exact.records, literal.records):
            assert (a.path, a.size) == (b.path, b.size)
            assert a.mi_bits == pytest.approx(b.mi_bits, rel=1e-9)

    def test_literal_mode_breaks_conservation_below_channel_length(self):
        rng = np.random.default_rng(8)
        taps = random_taps(rng, 24)  # outgrows slices below size 32
        literal = split_report(taps, 64, 3, 10.0, mode=MODE_LITERAL)
        assert literal.max_level_residual() > 1e-6
        assert literal.notes  # the non-uniform regime is called out

    def test_thin_channel_benchmark_property(self):
        # With a very short channel every slice approaches total / 2^level.
        rng = np.random.default_rng(13)
        taps = random_taps(rng, 2)
        report = split_report(taps, 1024, 4, SnrSpec.from_db(10.0))
        for record in report.records:
            expected = report.total_mi_bits / (1 << len(record.path))
            assert record.mi_bits == pytest.approx(expected, rel=0.01)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            split_report([1.0], 16, 1, 1.0, mode="guess")

    def test_rejects_invalid_plan(self):
        with pytest.raises(ValueError):
            split_report([1.0], 16, 5, 1.0)

    def test_csv_export(self):
        taps = [1.0, 0.5]
        report = split_report(taps, 16, 2, 10.0)
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "level,path,size,mode,mi_bits,parent_residual"
        assert len(lines) == 1 + len(report.records)
        assert "exact-fold" in lines[1]

    def test_summary_table_mentions_each_slice(self):
        taps = [1.0, 0.5]
        report = split_report(taps, 16, 2, 10.0)
        text = report.summary_table()
        for record in report.records:
            assert record.path in text


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
            report = split_report(taps, 256, 1, SnrSpec.from_db(10.0))
            level = report.levels[0]
            gaps.append(abs(level.positive_mi - level.negative_mi) / level.parent_mi)
        ranks_d = np.argsort(np.argsort(diagnostics))
        ranks_g = np.argsort(np.argsort(gaps))
        rho = np.corrcoef(ranks_d, ranks_g)[0, 1]
        assert rho > 0.0

    def test_rejects_overlong_channel(self):
        with pytest.raises(ValueError):
            uniformity_ratio(np.ones(17), 64)


class TestDeepReport:
    def test_cost_row_matches_reference_values(self):
        rng = np.random.default_rng(16)
        channel = build_circulant(random_taps(rng, 100), 256)
        report = deep_split_report(channel, SnrSpec.from_db(10.0))
        assert report.cost_row == ("1152", "512", "224", "96", "40", "16", "6", "2/1")

    def test_exact_mode_conserves_at_first_level(self):
        rng = np.random.default_rng(17)
        channel = build_circulant(random_taps(rng, 100), 256)
        report = deep_split_report(channel, SnrSpec.from_db(10.0))
        first = report.levels[0]
        assert first.positive_mi + first.negative_mi == pytest.approx(first.parent_mi, rel=1e-9)
        assert report.max_level_residual() < 1e-9

    def test_flat_channel_halves_down_to_size_one(self):
        channel = build_circulant([1.0], 256)
        report = deep_split_report(channel, SnrSpec(1.0))
        for record in report.records:
            expected = report.total_mi_bits * record.size / 256
            assert record.mi_bits == pytest.approx(expected, rel=1e-9)

    def test_modes_coincide_while_taps_fit(self):
        rng = np.random.default_rng(18)
        channel = build_circulant(random_taps(rng, 20), 256)
        report = deep_split_report(channel, 10.0)
        exact = {(r.path, r.size): r.mi_bits for r in report.records if r.mode == MODE_EXACT}
        literal = {(r.path, r.size): r.mi_bits for r in report.records if r.mode == MODE_LITERAL}
        for key, value in exact.items():
            if key[1] >= 32:  # channel (20 taps) still fits the block
                assert literal[key] == pytest.approx(value, rel=1e-9)

    def test_summary_table_contains_cost_row(self):
        channel = build_circulant([1.0, 0.2], 64)
        report = deep_split_report(channel, 10.0)
        table = report.summary_table()
        assert "decode_ops" in table and "2/1" in table


def fold_walk(generator, depth, rho):
    """(parent, positive, negative) MI per level of the generator-fold chain."""
    channel = CirculantChannel(generator)
    parent = mi_fast(channel.generator, rho)
    levels = []
    for _ in range(depth):
        pos, neg = positive_child(channel), negative_child(channel)
        pos_mi = mi_fast(pos.generator, rho)
        levels.append((parent, pos_mi, mi_fast(neg.generator, rho)))
        channel, parent = pos, pos_mi
    return levels


def triangular_walk(taps, size, depth, rho):
    """The same chain with every child the dense ``low +/- wrap`` of the raw taps."""
    root = np.zeros(size, dtype=complex)
    root[: min(size, taps.size)] = taps[:size]
    parent = mi_logdet(CirculantChannel(root), rho)
    levels = []
    for level in range(1, depth + 1):
        half = size >> level
        low = lower_triangular_toeplitz(taps, half)
        wrap = circular_complement(taps, half)
        pos_mi = mi_logdet(low + wrap, rho)
        levels.append((parent, pos_mi, mi_logdet(low - wrap, rho)))
        parent = pos_mi
    return levels


def chain_slices(levels, depth):
    """(path, MI) of every slice of a depth-``depth`` chain in frame order, from per-level triples."""
    if depth == 0:
        return [("", levels[0][0])]
    return [("+" * depth, levels[depth - 1][1])] + [
        ("+" * (level - 1) + "-", levels[level - 1][2]) for level in range(depth, 0, -1)
    ]


class TestEngineOracles:
    """Both reports, both modes, every slice and level, against both oracles.

    Exact mode follows the generator fold and literal mode the dense
    triangular blocks at every level; while the taps fit in a level's slices
    the two oracles coincide and each mode must match both.
    """

    RHO = 10.0

    def assert_levels(self, levels, oracle):
        got = [(lvl.parent_mi, lvl.positive_mi, lvl.negative_mi) for lvl in levels]
        np.testing.assert_allclose(got, oracle, rtol=1e-9)

    @pytest.mark.parametrize("n", [1 << e for e in range(1, 9)])
    def test_reports_match_fold_and_dense_oracles(self, n):
        rng = np.random.default_rng(1000 + n)
        full = n.bit_length() - 1
        for length in range(1, n + 1):
            taps = random_taps(rng, length)
            root = build_circulant(taps, n)
            oracles = {
                MODE_EXACT: fold_walk(root.generator, full, self.RHO),
                MODE_LITERAL: triangular_walk(taps, n, full, self.RHO),
            }
            for k in range(1, full + 1):
                if length <= n >> k:
                    np.testing.assert_allclose(oracles[MODE_EXACT][k - 1], oracles[MODE_LITERAL][k - 1], rtol=1e-9)

            for mode, oracle in oracles.items():
                for depth in range(full + 1):
                    report = split_report(taps, n, depth, self.RHO, mode=mode)
                    assert report.total_mi_bits == pytest.approx(oracle[0][0], rel=1e-9)
                    self.assert_levels(report.levels, oracle[:depth])
                    expected = chain_slices(oracle, depth)
                    assert [(r.path, r.size) for r in report.records] == [(p, n >> len(p)) for p, _ in expected]
                    np.testing.assert_allclose([r.mi_bits for r in report.records], [v for _, v in expected], rtol=1e-9)

            deep = deep_split_report(root, self.RHO)
            self.assert_levels(deep.levels, oracles[MODE_EXACT])
            want = []
            for mode, oracle in oracles.items():
                for level, (parent, pos, neg) in enumerate(oracle, start=1):
                    for path, mi_bits in (("+" * level, pos), ("+" * (level - 1) + "-", neg)):
                        want.append(((level, path, n >> level, mode), mi_bits, parent - (pos + neg)))
            assert [(r.level, r.path, r.size, r.mode) for r in deep.records] == [key for key, _, _ in want]
            np.testing.assert_allclose([r.mi_bits for r in deep.records], [v for _, v, _ in want], rtol=1e-9)
            residual_tol = 1e-9 * oracles[MODE_EXACT][0][0]
            np.testing.assert_allclose(
                [r.parent_residual for r in deep.records], [v for _, _, v in want], rtol=0, atol=residual_tol
            )

    def test_literal_chain_at_full_lte_frame_is_skew_circulant(self):
        rng = np.random.default_rng(2048)
        taps = sample_cir(ETU_PROFILE, 1e9 / (2048 * 15e3), rng)  # 155 taps
        report = split_report(taps, 2048, 11, self.RHO, mode=MODE_LITERAL)
        assert len(report.records) == 12
        for record in report.records:
            size = record.size
            head = np.zeros(size, dtype=complex)
            head[: min(size, taps.size)] = taps[:size]
            if record.path.endswith("-"):
                head *= np.exp(-1j * np.pi * np.arange(size) / size)
            assert record.mi_bits == pytest.approx(mi_fast(head, self.RHO), rel=1e-9)
        assert report.max_level_residual() > 1e-6


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
                    assert report.total_mi_bits == batch.total[row]
                    assert [(lvl.parent_mi, lvl.positive_mi, lvl.negative_mi) for lvl in report.levels] == list(
                        zip(batch.parent[row].tolist(), batch.positive[row].tolist(), batch.negative[row].tolist())
                    )
                    assert [r.mi_bits for r in report.records] == batch.slice_mi()[row].tolist()
                    assert report.max_level_residual() == ChainMi(
                        *(getattr(batch, name)[row] for name in ("total", "parent", "positive", "negative"))
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
