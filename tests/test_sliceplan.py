import dataclasses
import re

import numpy as np
import pytest

from physlice.mi import split_report
from physlice.sliceplan import (
    SliceDescriptor,
    bins_for_slice,
    build_plan,
    decode_cost,
    total_cost,
)
from physlice.transform import forward_transform

from oracles import recursive_matrix


class TestBuildPlan:
    def test_three_split_layout(self):
        plan = build_plan(2048, 3, 169)
        assert [(s.path, s.size) for s in plan.slices] == [
            ("+++", 256),
            ("++-", 256),
            ("+-", 512),
            ("-", 1024),
        ]
        assert [s.frame_offset for s in plan.slices] == [0, 256, 512, 1024]
        assert sum(s.size for s in plan.slices) == 2048
        assert len(plan.slices) == plan.depth + 1

    def test_urban_channel_fits_uniform_regime(self):
        plan = build_plan(2048, 3, 169, channel_length=155)
        assert not plan.non_uniform
        assert plan.uniform_floor == 256

    def test_deep_split_flags_non_uniform(self):
        plan = build_plan(128, 5, 16, channel_length=14)
        assert plan.non_uniform  # smallest slice (4) is below the 14-tap channel
        assert plan.uniform_floor == 16

    def test_depth_zero_degenerates_to_plain_frame(self):
        plan = build_plan(16, 0, 4)
        assert len(plan.slices) == 1
        only = plan.slices[0]
        assert only.path == "" and only.size == 16 and only.bin_stride == 1

    def test_rejects_cp_shorter_than_channel(self):
        with pytest.raises(ValueError, match="cyclic prefix"):
            build_plan(2048, 3, 100, channel_length=155)

    def test_rejects_cp_longer_than_the_frame(self):
        assert build_plan(16, 2, 16).cp_length == 16
        with pytest.raises(ValueError, match=r"cyclic prefix \(17\) longer than the frame \(16\)"):
            build_plan(16, 2, 17)

    @pytest.mark.parametrize("channel_length", [0, -5])
    def test_rejects_a_channel_shorter_than_one_tap(self, channel_length):
        with pytest.raises(ValueError, match=f"channel length must be at least 1, got {channel_length}"):
            build_plan(8, 2, 3, channel_length=channel_length)

    @pytest.mark.parametrize(
        "arguments,message",
        [
            (dict(cp_length=2.5), "cyclic prefix length must be an integer, got 2.5"),
            (dict(cp_length=3, channel_length=2.5), "channel length must be an integer, got 2.5"),
            (dict(frame_size=8.0), "frame size must be an integer, got 8.0"),
            (dict(frame_size=np.float64(8)), "frame size must be an integer, got np.float64(8.0)"),
            (dict(depth=2.0), "depth must be an integer, got 2.0"),
            (dict(cp_length="3"), "cyclic prefix length must be an integer, got '3'"),
        ],
    )
    def test_rejects_an_argument_that_is_not_an_integer(self, arguments, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build_plan(**{"frame_size": 8, "depth": 2, "cp_length": 3, **arguments})

    @pytest.mark.parametrize(
        "arguments",
        [
            (8, 2, np.int64(3), np.int64(2)),
            (np.int64(8), 2, 3, 2),
            (8, np.int64(2), 3, 2),
            (np.uint16(8), np.int8(2), np.int32(3), np.int64(2)),
        ],
    )
    def test_accepts_numpy_integer_arguments_as_their_python_ints(self, arguments):
        plan = build_plan(*arguments)
        assert plan is build_plan(8, 2, 3, channel_length=2)
        assert plan.uniform_floor == 2 and not plan.non_uniform
        fields = (plan.frame_size, plan.depth, plan.cp_length, plan.uniform_floor, *(d.size for d in plan.slices))
        assert all(type(field) is int for field in fields)

    def test_rejects_excess_depth(self):
        with pytest.raises(ValueError):
            build_plan(16, 5, 4)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_plan(100, 2, 10)

    @pytest.mark.parametrize(
        "frame_size,depth,message",
        [
            (100, 2, "frame size must be a power of two, got 100"),
            (16, 5, "depth 5 is invalid for frame size 16"),
            (16, -1, "depth -1 is invalid for frame size 16"),
            # 1 << depth would overflow; the depth is compared with log2 of the size instead.
            (16, 2**63, f"depth {2**63} is invalid for frame size 16"),
        ],
    )
    def test_every_plan_boundary_shares_one_check(self, frame_size, depth, message):
        boundaries = [
            lambda: build_plan(frame_size, depth, 4),
            lambda: recursive_matrix(frame_size, depth),
            lambda: forward_transform(np.zeros(frame_size), depth),
            lambda: split_report([1.0], frame_size, depth, 1.0),
        ]
        for call in boundaries:
            with pytest.raises(ValueError, match=message):
                call()


class TestBins:
    def test_negative_slice_gets_odd_bins(self):
        d = SliceDescriptor("-", 4, 4, 1, 2, 0)
        assert set(bins_for_slice(d, 8)) == {1, 3, 5, 7}

    def test_positive_slice_gets_even_bins(self):
        d = SliceDescriptor("+", 4, 0, 0, 2, 0)
        assert set(bins_for_slice(d, 8)) == {0, 2, 4, 6}

    def test_mixed_path_residue(self):
        plan = build_plan(16, 2, 4)
        by_path = {s.path: s for s in plan.slices}
        assert set(bins_for_slice(by_path["+-"], 16)) == {2, 6, 10, 14}

    def test_mixed_path_matches_recursive_decimation_oracle(self):
        # Walking even/odd decimation down the tree must land on the same bins.
        n = 32
        plan = build_plan(n, 3, 8)
        for desc in plan.slices:
            bins = np.arange(n)
            for branch in desc.path:
                bins = bins[0::2] if branch == "+" else bins[1::2]
            assert list(bins) == list(bins_for_slice(desc, n))

    @pytest.mark.parametrize("n,depth", [(8, 1), (64, 3), (256, 8), (1024, 5)])
    def test_bins_partition_the_frame(self, n, depth):
        plan = build_plan(n, depth, n // 4)
        seen = []
        for desc in plan.slices:
            seen.extend(bins_for_slice(desc, n))
        assert sorted(seen) == list(range(n))
        order = plan.bin_order
        assert not order.flags.writeable
        np.testing.assert_array_equal(np.sort(order), np.arange(n))
        for desc in plan.slices:
            assert list(order[desc.frame_offset : desc.frame_offset + desc.size]) == list(bins_for_slice(desc, n))
        inverse = plan.inverse_bin_order
        assert not inverse.flags.writeable
        np.testing.assert_array_equal(inverse[order], np.arange(n))
        np.testing.assert_array_equal(order[inverse], np.arange(n))

    def test_bin_orders_are_built_once_per_plan_and_leave_equality_alone(self):
        plan = build_plan(64, 3, 16)
        twin = dataclasses.replace(plan)
        assert twin is not plan and twin == plan and hash(twin) == hash(plan)
        hashed = hash(plan)
        order, inverse = plan.bin_order, plan.inverse_bin_order
        assert plan.bin_order is order and plan.inverse_bin_order is inverse
        assert not order.flags.writeable and not inverse.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            order[0] = 1
        # The orders are cached on the plan, not in its fields.
        assert plan == twin and hash(plan) == hashed
        assert twin.bin_order is not order
        np.testing.assert_array_equal(twin.bin_order, order)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.depth = 2

    def test_equal_arguments_share_one_plan(self):
        plan = build_plan(128, 5, 16, channel_length=14)
        assert build_plan(128, 5, 16, 14) is plan
        assert build_plan(128, 5, 16) is not plan and build_plan(128, 5, 16) != plan
        # A float size is still rejected after the int plan is cached.
        with pytest.raises(TypeError):
            build_plan(128.0, 5, 16, channel_length=14)


class TestCosts:
    def test_level_one_negative_at_2048(self):
        assert decode_cost("-", 1024) == 12288

    def test_table_row_values(self):
        assert decode_cost("-", 128) == 1152
        expected = {64: 512, 32: 224, 16: 96, 8: 40, 4: 16, 2: 6}
        for size, ops in expected.items():
            assert decode_cost("-", size) == ops
        assert decode_cost("-", 1) == 2
        assert decode_cost("+", 1) == 1

    def test_numpy_integer_sizes_cost_their_python_ints(self):
        for size in (1, 2, 128):
            assert decode_cost("-", np.int64(size)) == decode_cost("-", size)
            assert decode_cost("+", np.uint8(size)) == decode_cost("+", size)
        with pytest.raises(TypeError, match=r"^slice size must be an integer, got 128\.0$"):
            decode_cost("-", 128.0)

    def test_positive_slice_is_plain_fft_count(self):
        assert decode_cost("+++", 256) == 256 * 8
        assert decode_cost("", 16) == 16 * 4

    def test_total_for_three_splits(self):
        plan = build_plan(2048, 3, 169)
        assert total_cost(plan) == 22528
        assert [s.decode_ops for s in plan.slices] == [2048, 2560, 5632, 12288]

    def test_total_small_frame(self):
        assert total_cost(build_plan(8, 1, 2)) == 24

    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    def test_total_equals_frame_fft_cost(self, n):
        log2n = n.bit_length() - 1
        for depth in range(0, log2n + 1):
            plan = build_plan(n, depth, 0)
            expected = n * log2n
            if depth == log2n:
                # The full-depth plan ends in a size-1 positive slice, whose
                # conventional unit cost sits on top of the pure FFT count.
                expected += 1
            assert total_cost(plan) == expected

    @pytest.mark.parametrize("n,depth", [(8, 1), (64, 3), (2048, 5)])
    def test_latency_ranking_is_strict(self, n, depth):
        plan = build_plan(n, depth, 0)
        ops = [s.decode_ops for s in plan.slices]
        assert all(a < b for a, b in zip(ops, ops[1:]))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            decode_cost("-", 12)

