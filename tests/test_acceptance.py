"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single "[criterion NN] PASS" line (visible with -s) so the
suite doubles as a checklist; pytest's own pass/fail report is authoritative.
"""

import time

import numpy as np
import pytest

from physlice.channel import (
    EPA_PROFILE,
    ETU_PROFILE,
    circular_complement,
    lower_triangular_toeplitz,
    negative_child,
    positive_child,
    sample_cir,
)
from physlice.experiments import make_config, run_scenario
from physlice.mi import split_report
from physlice.sliceplan import bins_for_slice, build_plan, decode_cost, total_cost
from physlice.transform import butterfly_mixer
from physlice.txrx import iterative_decode, modulate, propagate, receive, transmit, triangular_toeplitz_inverse

from oracles import cdf_quantile, dense, extract_blocks, mi_logdet, pad, random_taps, recursive_matrix

TS_LTE_NS = 1e9 / (2048 * 15e3)


def _passed(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS - {message}")


def test_criterion_01_orthonormality():
    started = time.perf_counter()
    worst = 0.0
    for exponent in range(1, 9):  # frame sizes 2 .. 256
        n = 1 << exponent
        for depth in range(exponent + 1):
            g = recursive_matrix(n, depth)
            worst = max(worst, float(np.max(np.abs(g.conj().T @ g - np.eye(n)))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 10.0
    _passed(1, f"max |G^H G - I| = {worst:.2e} over N=2..256, all depths, in {elapsed:.2f}s")


def test_criterion_02_block_diagonalization():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (16, 64, 128):
        g = recursive_matrix(n, 1)
        half = n // 2
        for _ in range(100):
            taps = random_taps(rng, int(rng.integers(1, half + 1)))
            h = dense(pad(taps, n))
            mixed = g.conj().T @ h @ g
            off = max(
                float(np.max(np.abs(mixed[:half, half:]))),
                float(np.max(np.abs(mixed[half:, :half]))),
            )
            worst = max(worst, off)
    assert worst < 1e-10
    _passed(2, f"largest off-diagonal block entry = {worst:.2e} over 300 random channels")


def test_criterion_03_mixed_negative_branch_is_modulated_circulant():
    rng = np.random.default_rng(303)
    worst_dense = 0.0
    worst_gen = 0.0
    for n in (4, 8, 16, 32, 64, 128):
        half = n // 2
        for _ in range(25):
            length = int(rng.integers(1, half + 1))
            taps = random_taps(rng, length)
            channel = pad(taps, n)
            a, b = extract_blocks(channel)
            w = np.diag(butterfly_mixer(n))
            dense_child = w.conj().T @ (a - b) @ w
            child = negative_child(channel)
            worst_dense = max(worst_dense, float(np.max(np.abs(dense_child - dense(child)))))
            expected_gen = np.zeros(half, dtype=complex)
            expected_gen[:length] = taps * np.exp(-2j * np.pi * np.arange(length) / n)
            worst_gen = max(worst_gen, float(np.max(np.abs(child - expected_gen))))
    assert worst_dense < 1e-12
    assert worst_gen < 1e-12
    _passed(3, f"dense-vs-generator error {worst_dense:.2e}, modulation law error {worst_gen:.2e}")


def test_criterion_04_even_odd_bin_law():
    rng = np.random.default_rng(404)
    worst = 0.0
    for n in (16, 64, 256):
        channel = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        parent_bins = np.fft.fft(channel)
        worst = max(worst, float(np.max(np.abs(np.fft.fft(positive_child(channel)) - parent_bins[0::2]))))
        worst = max(worst, float(np.max(np.abs(np.fft.fft(negative_child(channel)) - parent_bins[1::2]))))
        for depth in range(0, n.bit_length()):
            plan = build_plan(n, depth, 0)
            seen = []
            for desc in plan.slices:
                seen.extend(bins_for_slice(desc, n))
            assert sorted(seen) == list(range(n))
        # Deeper slices: walk the fold chain and compare against strided bins.
        current = channel
        for level in range(1, 5):
            neg = negative_child(current)
            stride = 1 << level
            residue = 1 << (level - 1)
            worst = max(
                worst,
                float(np.max(np.abs(np.fft.fft(neg) - parent_bins[residue::stride]))),
            )
            current = positive_child(current)
    assert worst < 1e-10
    _passed(4, f"bin decimation error {worst:.2e}; slice bins partition 0..N-1 at every depth")


def test_criterion_05_mi_conservation():
    rng = np.random.default_rng(505)
    snr = 10.0  # 10 dB
    worst_residual = 0.0
    worst_cross = 0.0
    for n in (16, 64, 128, 512, 2048):
        depth = n.bit_length() - 1
        taps = random_taps(rng, max(1, n // 8))
        report = split_report(taps, n, depth, snr)
        worst_residual = max(worst_residual, report.max_residual_rel())
        if n <= 128:
            exact = mi_logdet(pad(taps, n), snr)
            worst_cross = max(worst_cross, abs(exact - float(report.total)) / exact)
    assert worst_residual < 1e-9
    assert worst_cross < 1e-9
    _passed(5, f"conservation residual {worst_residual:.2e}; log-det cross-check {worst_cross:.2e}")


def test_criterion_06_urban_first_split_distribution():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    snr = 10.0  # 10 dB
    runs = 200
    pos, neg, bench = [], [], []
    within = 0
    for _ in range(runs):
        taps = sample_cir(ETU_PROFILE, TS_LTE_NS, rng)
        assert taps.size == 155
        report = split_report(taps, 2048, 1, snr)
        positive, negative, parent = float(report.positive[0]), float(report.negative[0]), float(report.parent[0])
        pos.append(positive)
        neg.append(negative)
        bench.append(parent / 2.0)
        if abs(positive - negative) / parent < 0.01:
            within += 1
    assert within >= int(np.ceil(0.99 * runs))
    for p in np.arange(0.05, 0.96, 0.05):
        reference = cdf_quantile(bench, p)
        assert abs(cdf_quantile(pos, p) - reference) / reference < 0.01
        assert abs(cdf_quantile(neg, p) - reference) / reference < 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(
        6,
        f"{within}/{runs} runs split evenly within 1%; cdf quantiles overlap within 1% "
        f"in {elapsed:.1f}s",
    )


def test_criterion_07_complexity_model(tmp_path):
    plan = build_plan(2048, 3, 169, channel_length=155)
    assert total_cost(plan) == 22528
    table_row = [decode_cost("-", size) for size in (128, 64, 32, 16, 8, 4, 2)]
    assert table_row == [1152, 512, 224, 96, 40, 16, 6]
    assert (decode_cost("-", 1), decode_cost("+", 1)) == (2, 1)
    # table1's cost row: the deep continuation of the size-256 slice.
    summary = run_scenario(make_config("table1", output_dir=str(tmp_path)))["summary"].read_text().splitlines()
    assert "decode_cost_row=1152,512,224,96,40,16,6,2/1" in summary
    (row,) = [line.split() for line in summary if line.split()[0] == "decode_ops"]
    assert row[1:] == ["1152", "512", "224", "96", "40", "16", "6", "2/1"]
    for exponent in range(1, 13):  # frame sizes 2 .. 4096
        n = 1 << exponent
        for depth in range(exponent + 1):
            expected = n * exponent
            if depth == exponent:
                # Full-depth plans end in a size-1 positive slice whose cost
                # is pinned to 1 by the reference table, one unit above the
                # pure FFT count; every other plan meets N*log2(N) exactly.
                expected += 1
            assert total_cost(build_plan(n, depth, 0)) == expected
    _passed(7, "22528 at N=2048 K=3; reference cost row exact; N*log2(N) identity holds")


def test_criterion_08_pedestrian_uniform_splitting():
    rng = np.random.default_rng(808)
    snr = 10.0  # 10 dB
    ts = 1e9 / (128 * 240e3)
    runs = 50
    depth = 7
    reports = []
    for _ in range(runs):
        taps = sample_cir(EPA_PROFILE, ts, rng)
        assert taps.size == 14
        report = split_report(taps, 128, depth, snr)
        assert report.max_residual_rel() < 1e-9
        reports.append(report)
    for level in range(1, depth + 1):
        mean_pos = float(np.mean([r.positive[level - 1] for r in reports]))
        mean_neg = float(np.mean([r.negative[level - 1] for r in reports]))
        child_size = 128 >> level
        if child_size >= 16:
            gap = abs(mean_pos - mean_neg) / max(mean_pos, mean_neg)
            assert gap < 0.02, f"child size {child_size}: mean branch gap {gap:.3f}"
    plan = build_plan(128, depth, 16, channel_length=14)
    assert plan.non_uniform and plan.uniform_floor == 16
    assert not build_plan(128, 3, 16, channel_length=14).non_uniform
    _passed(8, "mean branch gap < 2% down to size-16 slices; non-uniform flag raised below")


def test_criterion_09_noiseless_loopback():
    rng = np.random.default_rng(909)
    worst = 0.0
    for n in (64, 256):
        for depth in (1, 2, 3):
            max_taps = n >> depth
            taps = random_taps(rng, max_taps)
            plan = build_plan(n, depth, max_taps, channel_length=max_taps)
            payload = modulate(rng.integers(0, 2, 2 * n), plan)
            estimate = receive(propagate(transmit(payload, plan), taps), plan, taps)
            for sent, got in zip(payload.symbols, estimate.symbols):
                evm = float(np.sqrt(np.mean(np.abs(got - sent) ** 2) / np.mean(np.abs(sent) ** 2)))
                worst = max(worst, evm)
    assert worst < 1e-8
    _passed(9, f"worst per-slice EVM {worst:.2e} over N in (64, 256), depth 1..3")


def test_criterion_10_iterative_decoder():
    rng = np.random.default_rng(1010)
    q = 4  # N = 16
    solved = 0
    for _ in range(50):
        while True:
            taps = np.concatenate(
                [[1.0 + 0.1j], 0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))]
            )
            h = lower_triangular_toeplitz(taps, q)
            hc = circular_complement(taps, q)
            radius = float(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(h, hc)))))
            if radius < 0.9:
                break
        s = rng.standard_normal(2 * q) + 1j * rng.standard_normal(2 * q)
        z3 = h @ s[:q] - hc @ s[q:]
        z4 = hc @ s[:q] + h @ s[q:]
        r3, r4, _, converged = iterative_decode(z3, z4, taps, max_iters=2000, tol=1e-12)
        assert converged
        direct = np.linalg.solve(np.block([[h, -hc], [hc, h]]), np.concatenate([z3, z4]))
        assert np.max(np.abs(np.concatenate([r3, r4]) - direct)) < 1e-8
        solved += 1
    flagged = 0
    for _ in range(10):
        while True:
            taps = np.concatenate(
                [[0.15 + 0.05j], rng.standard_normal(3) + 1j * rng.standard_normal(3)]
            )
            h = lower_triangular_toeplitz(taps, q)
            hc = circular_complement(taps, q)
            radius = float(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(h, hc)))))
            if radius > 1.1:
                break
        z = rng.standard_normal(2 * q) + 1j * rng.standard_normal(2 * q)
        _, _, _, converged = iterative_decode(z[:q], z[q:], taps, max_iters=100)
        assert not converged
        flagged += 1
    _passed(10, f"{solved}/50 convergent instances match the direct solve; {flagged}/10 divergent flagged")


def test_criterion_11_triangular_inverse_recursion():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for order in (2, 3, 5, 8, 13, 21, 34, 55, 64):
        taps = np.concatenate(
            [
                [1.0 + 0.3j],
                0.5
                * (rng.standard_normal(order - 1) + 1j * rng.standard_normal(order - 1))
                / np.arange(1, order),
            ]
        )
        mat = lower_triangular_toeplitz(taps, order)
        inv = triangular_toeplitz_inverse(mat)
        worst = max(worst, float(np.max(np.abs(inv - np.linalg.inv(mat)))))
        worst = max(worst, float(np.max(np.abs(inv @ mat - np.eye(order)))))
    assert worst < 1e-10
    _passed(11, f"bordering inverse matches generic inversion, worst error {worst:.2e}, orders <= 64")


def test_criterion_12_worker_determinism(tmp_path):
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"workers{workers}"
        run_scenario(make_config("fig7", num_runs=16, workers=workers, output_dir=str(out)))
        run_scenario(
            make_config(
                "loopback", num_runs=6, n_fft=256, cp_length=32, workers=workers,
                output_dir=str(out),
            )
        )
        outputs[workers] = {
            name: (out / name).read_bytes()
            for name in ("fig7_runs.csv", "fig7_cdf.csv", "loopback_runs.csv")
        }
    assert outputs[1] == outputs[8]
    _passed(12, "fig7 and loopback CSVs byte-identical across 1 and 8 workers")
