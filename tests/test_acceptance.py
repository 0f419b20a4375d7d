"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6's 8qam->8psk gap assertion is expected to fail: at the operating
point the magnitude bands (criterion 7) pin down, Gray-labeled 8-PSK is not
beatable by any unit-energy Gray 8-QAM (see the modulation-ordering note in
the README).  The test still asserts the criterion exactly as stated.
"""
import dataclasses
import math
import sys
import time

import numpy as np
import pytest

from mclink import SimConfig, fast_profile, run_chain, sweep
from mclink.bits import ConvCode, conv_encode, viterbi_decode
from mclink.channel import NoiseConfig, complex_normal
from mclink.engine import compute_gains, emit_results
from mclink.mimo import alamouti_effective, build_effective, realzf_detect, zf_detect, zf_weights
from mclink import modem

CONV = ConvCode(3, (0o7, 0o5))
ORDERED_MODS = ("qpsk", "8qam", "8psk", "16qam", "32qam", "64qam")


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} — {detail}", file=sys.__stdout__)
    sys.__stdout__.flush()


@pytest.fixture(scope="module")
def fast_sweep():
    """Full fast-profile sweep shared by criteria 6, 7 and 9."""
    cfg = fast_profile(min_bits=100_000, max_bits=200_000, workers=4, seed=411)
    start = time.perf_counter()
    records = sweep(cfg)
    wall = time.perf_counter() - start
    return cfg, records, wall


@pytest.fixture(scope="module")
def table1_sweep():
    cfg = SimConfig(min_bits=100_000, max_bits=100_000, workers=4, seed=412)
    start = time.perf_counter()
    records = sweep(cfg)
    wall = time.perf_counter() - start
    return cfg, records, wall


def at_snr(records, snr_db):
    return {r.modulation: r for r in records if r.snr_db == snr_db}


def test_criterion_01_chain_transparency():
    cfg = fast_profile(min_bits=10_000, max_bits=10_000)
    start = time.perf_counter()
    bers = {}
    for mod in ORDERED_MODS:
        rec = run_chain(cfg, mod, math.inf)
        assert rec.bits >= 10_000
        bers[mod] = rec.ber
    wall = time.perf_counter() - start
    ok = all(b == 0.0 for b in bers.values()) and wall < 30.0
    report(1, ok, f"noise-off BER {bers} in {wall:.1f}s (< 30s)")
    assert all(b == 0.0 for b in bers.values())
    assert wall < 30.0


def test_criterion_02_detector_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    n_blocks = 10_000
    c = modem.get_constellation("qpsk")
    pairs = c.points[rng.integers(0, c.order, (n_blocks, 2))]
    h = complex_normal(rng, (n_blocks, 4, 2))
    slots = np.empty((n_blocks, 2, 2), dtype=complex)
    slots[:, 0, 0], slots[:, 1, 0] = pairs[:, 0], pairs[:, 1]
    slots[:, 0, 1], slots[:, 1, 1] = -np.conj(pairs[:, 1]), np.conj(pairs[:, 0])
    y = np.einsum("bji,bis->bjs", h, slots)
    y = y + complex_normal(rng, y.shape) * math.sqrt(NoiseConfig(0.0).sigma2)
    a = zf_detect(build_effective(h, y)).estimates
    b = realzf_detect(h, y).estimates
    wall = time.perf_counter() - start
    worst = float(np.max(np.abs(a - b)))
    ok = worst < 1e-9 and wall < 10.0
    report(2, ok, f"max |zf - realzf| = {worst:.2e} over {n_blocks} noisy blocks in {wall:.1f}s")
    assert worst < 1e-9
    assert wall < 10.0


def test_criterion_03_alamouti_orthogonality():
    rng = np.random.default_rng(3000)
    h = complex_normal(rng, (10_000, 4, 2))
    heff = alamouti_effective(h)
    gram = np.einsum("bji,bjk->bik", np.conj(heff), heff)
    g = np.sum(np.abs(h) ** 2, axis=(1, 2))
    worst = float(np.max(np.abs(gram - g[:, None, None] * np.eye(2))))
    ok = worst < 1e-10
    report(3, ok, f"max |H_eff^H H_eff - (sum|h|^2) I| = {worst:.2e} on 10^4 draws")
    assert worst < 1e-10


def test_criterion_04_zf_oracle():
    rng = np.random.default_rng(4000)
    worst = 0.0
    for _ in range(1000):
        h = complex_normal(rng, (8, 2))
        worst = max(worst, float(np.max(np.abs(zf_weights(h) - np.linalg.pinv(h)))))
    identity = np.zeros((4, 2), dtype=complex)
    identity[0, 0] = identity[1, 1] = 1.0
    w_identity = zf_weights(identity)
    exact_identity = float(np.max(np.abs(w_identity - identity.conj().T)))
    scaled = 2.0 * identity
    exact_scaled = float(np.max(np.abs(zf_weights(scaled) - 0.5 * identity.conj().T)))
    ok = worst < 1e-9 and exact_identity < 1e-12 and exact_scaled < 1e-12
    report(
        4, ok,
        f"pinv mismatch {worst:.2e} over 10^3 matrices; identity {exact_identity:.1e}, "
        f"scaling {exact_scaled:.1e}",
    )
    assert worst < 1e-9
    assert exact_identity < 1e-12 and exact_scaled < 1e-12


def test_criterion_05_viterbi_nearest_codeword():
    """All inputs of length <= 12, every single-bit corruption: ML by search."""
    checked = 0
    for n_data in range(13):
        n_coded = 2 * (n_data + 2)
        values = np.arange(2**n_data, dtype=np.int64)
        shifts = np.arange(n_data - 1, -1, -1, dtype=np.int64)
        data = ((values[:, None] >> shifts) & 1).astype(np.uint8).reshape(len(values), n_data)
        book = conv_encode(data, CONV)
        weights = (1 << np.arange(n_coded, dtype=np.int64))
        book_packed = (book.astype(np.int64) * weights).sum(axis=1)

        # received set: every codeword plus every single-bit corruption of it
        rx = np.repeat(book, n_coded + 1, axis=0)
        rows = np.arange(len(values)) * (n_coded + 1)
        for pos in range(n_coded):
            rx[rows + 1 + pos, pos] ^= 1
        rx_packed = (rx.astype(np.int64) * weights).sum(axis=1)

        decoded = viterbi_decode(rx, CONV)

        chunk = 8192
        for start in range(0, len(rx_packed), chunk):
            stop = min(start + chunk, len(rx_packed))
            dist = np.bitwise_count(rx_packed[start:stop, None] ^ book_packed[None, :])
            nearest = np.asarray(dist.argmin(axis=1))
            assert np.array_equal(decoded[start:stop], data[nearest]), n_data
        checked += len(rx_packed)
    report(5, True, f"{checked} received words match exhaustive nearest-codeword search")


def test_criterion_06_table2_ordering(fast_sweep):
    cfg, records, wall = fast_sweep
    rows = at_snr(records, -5.0)
    assert all(rows[m].bits >= 100_000 for m in ORDERED_MODS)
    gaps = []
    failures = []
    for a, b in zip(ORDERED_MODS, ORDERED_MODS[1:]):
        ra, rb = rows[a], rows[b]
        gap = rb.ber - ra.ber
        need = 2 * (ra.ci95 + rb.ci95)
        gaps.append(f"{a}->{b}: gap={gap:+.5f} need>{need:.5f}")
        if not gap > need:
            failures.append(f"{a}({ra.ber:.5f}) !< {b}({rb.ber:.5f}) by 2*ci95")
    ok = not failures and wall < 300.0
    report(6, ok, "; ".join(gaps) + f" [{wall:.0f}s]")
    assert wall < 300.0
    assert not failures, (
        "BER ordering with 2*ci95 gaps violated: " + "; ".join(failures)
        + " — see README (modulation ordering note) and the decisions ledger: at the"
        " operating point fixed by criterion 7, Gray 8-PSK is not beatable by a"
        " unit-energy Gray 8-QAM; the paper's pair order reproduces only with"
        " non-Gray labelings, which the Gray-adjacency invariant forbids."
    )


def test_criterion_07_table2_magnitudes(fast_sweep):
    cfg, records, _ = fast_sweep
    rows = at_snr(records, -5.0)
    qpsk, qam64 = rows["qpsk"], rows["64qam"]
    ok = 0.005 <= qpsk.ber <= 0.05 and 0.15 <= qam64.ber <= 0.40
    report(
        7, ok,
        f"qpsk@-5dB = {qpsk.ber:.5f} in [0.005, 0.05]; 64qam@-5dB = {qam64.ber:.5f} "
        f"in [0.15, 0.40]",
    )
    assert 0.005 <= qpsk.ber <= 0.05
    assert 0.15 <= qam64.ber <= 0.40


def test_criterion_08_high_snr_64qam():
    cfg = fast_profile(min_bits=1_000_000, max_bits=1_000_000, seed=408)
    rec = run_chain(cfg, "64qam", 10.0)
    ok = rec.bits >= 1_000_000 and rec.ber < 1e-2
    report(8, ok, f"64qam@10dB = {rec.ber:.2e} over {rec.bits} bits (< 1e-2)")
    assert rec.bits >= 1_000_000
    assert rec.ber < 1e-2


def test_criterion_09_monotonic_in_snr(fast_sweep):
    cfg, records, _ = fast_sweep
    violations = []
    for mod in cfg.modulations:
        curve = sorted((r for r in records if r.modulation == mod), key=lambda r: r.snr_db)
        for lo, hi in zip(curve, curve[1:]):
            slack = 2 * (lo.ci95 + hi.ci95)
            if hi.ber > lo.ber + slack:
                violations.append(f"{mod}: {lo.snr_db}->{hi.snr_db} dB rose "
                                  f"{lo.ber:.4g}->{hi.ber:.4g}")
    ok = not violations
    report(9, ok, "non-increasing BER across the grid" if ok else "; ".join(violations))
    assert not violations


def test_criterion_10_deterministic_output(tmp_path):
    base = fast_profile(min_bits=10_000, max_bits=20_000, seed=410,
                        frame_payload_bits=100, frames_per_chunk=100)
    outputs = []
    for workers in (1, 8):
        cfg = dataclasses.replace(base, workers=workers)
        records = sweep(cfg)
        gains = compute_gains(records, cfg)
        paths = emit_results(records, gains, cfg, tmp_path / f"w{workers}", 0.0)
        outputs.append((paths["ber"].read_bytes(), paths["gains"].read_bytes()))
    ok = outputs[0] == outputs[1]
    report(10, ok, "byte-identical ber.csv and gains.csv at worker counts 1 and 8")
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_criterion_11_table1_preset_sweep(table1_sweep, tmp_path):
    cfg, records, wall = table1_sweep
    assert len(records) == 42
    min_bits = min(r.bits for r in records)
    gains = compute_gains(records, cfg)
    emit_results(records, gains, cfg, tmp_path / "table1", wall)
    ok = wall < 1800.0 and min_bits >= 100_000
    report(
        11, ok,
        f"6400-subcarrier sweep: 42 points, >= {min_bits} bits each, {wall:.0f}s (< 1800s)",
    )
    assert min_bits >= 100_000
    assert wall < 1800.0
    # reference magnitudes carry over to the full-size frame
    rows = at_snr(records, -5.0)
    assert 0.005 <= rows["qpsk"].ber <= 0.05


def test_readme_side_report_gains(fast_sweep, tmp_path):
    """Gain metric reported next to the BER table (comparison, not asserted)."""
    cfg, records, _ = fast_sweep
    gains = compute_gains(records, cfg)
    assert len(gains) == 6
    ref = next(g for g in gains if g.modulation == "64qam")
    assert ref.gain_db == 0.0
    lines = [f"{g.modulation}: {g.gain_db:+.2f} dB {g.flag}" for g in gains]
    print("[acceptance] gain w.r.t. 64qam @ -5 dB:", "; ".join(lines), file=sys.__stdout__)


def test_ordering_claim_with_slack(fast_sweep):
    """Higher modulation order gives higher BER, within 2*ci95 slack.

    Scope: grid points -5..5 dB and the pairs whose order the geometry fixes.
    Excluded (measured, documented in the README ordering note): the
    8qam/8psk pair, whose literal Table-2 order is asserted (and fails) in
    criterion 6, and the -10 dB point, where every high-order scheme is
    saturated near breakdown and the per-modulation energy accounting
    reorders 16qam/32qam.
    """
    cfg, records, _ = fast_sweep
    pairs = (("qpsk", "8qam"), ("qpsk", "8psk"), ("8qam", "16qam"),
             ("8psk", "16qam"), ("16qam", "32qam"), ("32qam", "64qam"))
    violations = []
    for snr in (-5.0, 0.0, 5.0):
        rows = at_snr(records, snr)
        for a, b in pairs:
            ra, rb = rows[a], rows[b]
            slack = 2 * (ra.ci95 + rb.ci95)
            if ra.ber > rb.ber + slack:
                violations.append(f"{snr} dB: {a}={ra.ber:.4g} > {b}={rb.ber:.4g}+slack")
    assert not violations, violations
