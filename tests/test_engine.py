import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from mclink import SimConfig, fast_profile, load_config, run_chain, sweep
from mclink.config import MAX_CHUNK_PAYLOAD_BITS, MAX_SUBCARRIERS, MAX_WORKERS
from mclink.engine import compute_gains, effective_es_n0_db, emit_results
from mclink.errors import ConfigError
from mclink import modem

# tiny multicarrier frame keeps unit-scale engine tests quick; math is
# identical to the full profile
TINY = dict(n_subcarriers=64, cp_len=16, min_bits=10_000, max_bits=20_000,
            max_bit_errors=100, frame_payload_bits=100, frames_per_chunk=100)


def tiny_cfg(**over):
    params = dict(TINY)
    params.update(over)
    return SimConfig(**params)


class TestConfig:
    def test_defaults_match_full_profile(self):
        cfg = SimConfig()
        assert cfg.n_subcarriers == 6400
        assert cfg.cp_len == 1280
        assert cfg.snr_grid_db == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.modulations == ("qpsk", "8psk", "8qam", "16qam", "32qam", "64qam")
        assert cfg.n_rx == 4

    def test_fast_profile_changes_frame_only(self):
        cfg = fast_profile()
        assert (cfg.n_subcarriers, cfg.cp_len) == (256, 64)
        assert cfg.snr_grid_db == SimConfig().snr_grid_db

    def test_validation_errors(self, tmp_path):
        valid = SimConfig()
        path = tmp_path / "bad.cfg"
        for bad in (
            dict(snr_grid_db=(0.0, 0.0)),
            dict(snr_grid_db=()),
            dict(modulations=("qpsk", "qpsk")),
            dict(modulations=("512qam",)),
            dict(detector="mmse"),
            dict(min_bits=100),
            dict(max_bits=5_000, min_bits=10_000),
            dict(n_rx=5),
            dict(workers=0),
            dict(workers=MAX_WORKERS + 1),
            dict(seed=-1),
            dict(gain_at_snr_db=math.nan),
            dict(gain_reference="128qam"),
            # frames and chunks past the memory caps
            dict(n_subcarriers=MAX_SUBCARRIERS + 1),
            dict(frame_payload_bits=MAX_CHUNK_PAYLOAD_BITS + 1, frames_per_chunk=1),
            dict(frame_payload_bits=200, frames_per_chunk=1251),
        ):
            # a SimConfig cannot exist with these values, however it is built
            with pytest.raises(ConfigError):
                SimConfig(**bad)
            with pytest.raises(ConfigError):
                dataclasses.replace(valid, **bad)
            path.write_text("".join(
                f"{name} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                for name, v in bad.items()
            ))
            with pytest.raises(ConfigError):
                load_config(path)

    @pytest.mark.parametrize("bad", [
        dict(n_subcarriers=6400.0),
        dict(fec="no"),
        dict(workers=2.5),
        dict(n_rx=True),
        dict(seed="1"),
        dict(gain_at_snr_db=True),
        dict(snr_grid_db=-5.0),
        dict(modulations=("qpsk", 3)),
    ], ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()))
    def test_wrongly_typed_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            SimConfig(**bad)
        with pytest.raises(ConfigError):
            dataclasses.replace(SimConfig(), **bad)

    def test_values_stored_as_plain_python(self):
        cfg = SimConfig(seed=np.int64(3), snr_grid_db=[-5, 0], gain_at_snr_db=-5)
        assert type(cfg.seed) is int and cfg.seed == 3
        assert cfg.snr_grid_db == (-5.0, 0.0)
        assert all(type(v) is float for v in cfg.snr_grid_db)
        assert type(cfg.gain_at_snr_db) is float

    def test_frame_and_chunk_caps_are_inclusive(self):
        assert SimConfig(n_subcarriers=MAX_SUBCARRIERS).n_subcarriers == 65_536
        cfg = SimConfig(frame_payload_bits=200, frames_per_chunk=1250)
        assert cfg.chunk_payload_bits == MAX_CHUNK_PAYLOAD_BITS == 250_000
        assert SimConfig(workers=MAX_WORKERS).workers == 64

    def test_snr_grid_rejects_nan_and_minus_inf_keeps_plus_inf(self):
        for grid in ((math.nan,), (-5.0, math.nan), (-math.inf, 0.0)):
            with pytest.raises(ConfigError):
                SimConfig(snr_grid_db=grid)
        assert SimConfig(snr_grid_db=(0.0, math.inf)).snr_grid_db == (0.0, math.inf)

    def test_cli_exit_code_for_non_number_snr(self, tmp_path, capsys):
        from mclink.cli import main

        cfg_path = tmp_path / "sim.cfg"
        cfg_path.write_text("n_subcarriers = 64\ncp_len = 16\n")
        for snr in ("nan", "-inf", "0,nan"):
            assert main(["sweep", "--config", str(cfg_path), f"--snr={snr}",
                         "--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_modulation_names_canonicalized(self):
        cfg = SimConfig(modulations=("QPSK", "64-QAM"), gain_reference="64-QAM")
        assert cfg.modulations == ("qpsk", "64qam")
        assert cfg.gain_reference == "64qam"

    def test_effective_snr_reference(self):
        cfg = SimConfig()  # eb reference, fec on
        c6 = modem.get_constellation("64qam")
        c2 = modem.get_constellation("qpsk")
        assert effective_es_n0_db(cfg, c2, -5.0) == pytest.approx(-5.0)
        assert effective_es_n0_db(cfg, c6, -5.0) == pytest.approx(-5.0 + 10 * math.log10(3))
        nofec = dataclasses.replace(cfg, fec=False)
        assert effective_es_n0_db(nofec, c6, -5.0) == pytest.approx(-5.0 + 10 * math.log10(6))


class TestRunChain:
    def test_noise_off_is_error_free(self):
        for mod in ("qpsk", "32qam"):
            rec = run_chain(tiny_cfg(), mod, math.inf)
            assert rec.errors == 0 and rec.ber == 0.0
            assert rec.bits >= 10_000

    def test_deterministic_repeat(self):
        cfg = tiny_cfg()
        a = run_chain(cfg, "16qam", -5.0)
        b = run_chain(cfg, "16qam", -5.0)
        assert a == b

    def test_seed_changes_outcome(self):
        a = run_chain(tiny_cfg(seed=1), "qpsk", -5.0)
        b = run_chain(tiny_cfg(seed=2), "qpsk", -5.0)
        assert a != b

    def test_stop_rule_error_target(self):
        # plenty of errors at low SNR: stops at min_bits
        rec = run_chain(tiny_cfg(), "64qam", -10.0)
        assert rec.bits == 10_000
        assert rec.errors >= 100

    def test_stop_rule_bit_cap(self):
        # error-free run must stop at the cap, not min_bits
        rec = run_chain(tiny_cfg(), "qpsk", math.inf)
        assert rec.bits == 20_000

    def test_ci_formula(self):
        rec = run_chain(tiny_cfg(), "64qam", -5.0)
        expected = 1.96 * math.sqrt(rec.ber * (1 - rec.ber) / rec.bits)
        assert rec.ci95 == pytest.approx(expected, rel=1e-12)
        assert rec.ber == rec.errors / rec.bits

    def test_detectors_give_same_ber(self):
        # same substreams, algebraically identical detectors
        a = run_chain(tiny_cfg(detector="zf"), "qpsk", 0.0)
        b = run_chain(tiny_cfg(detector="realzf"), "qpsk", 0.0)
        assert a.errors == b.errors

    def test_full_profile_single_point(self):
        rec = run_chain(SimConfig(min_bits=10_000, max_bits=10_000), "qpsk", -5.0)
        assert rec.bits >= 10_000
        assert 0 < rec.ber < 0.05


class TestChunkSeed:
    def test_negative_zero_snr_draws_the_zero_stream(self):
        from mclink.engine import _chunk_seed

        a = _chunk_seed(7, "qpsk", -0.0, 3)
        b = _chunk_seed(7, "qpsk", 0.0, 3)
        assert a.entropy == b.entropy
        assert np.array_equal(a.generate_state(4), b.generate_state(4))
        assert run_chain(tiny_cfg(), "qpsk", -0.0) == run_chain(tiny_cfg(), "qpsk", 0.0)


class TestSweep:
    def test_cardinality_and_order(self):
        cfg = tiny_cfg(modulations=("qpsk", "8psk"), snr_grid_db=(-5.0, 0.0, 5.0))
        records = sweep(cfg)
        assert len(records) == 6
        assert [(r.modulation, r.snr_db) for r in records] == [
            ("qpsk", -5.0), ("qpsk", 0.0), ("qpsk", 5.0),
            ("8psk", -5.0), ("8psk", 0.0), ("8psk", 5.0),
        ]

    def test_worker_count_does_not_change_results(self):
        base = tiny_cfg(modulations=("qpsk", "8qam"), snr_grid_db=(-5.0, 0.0))
        seq = sweep(base)
        par = sweep(dataclasses.replace(base, workers=4))
        assert seq == par

    def test_ber_decreases_with_snr(self):
        cfg = tiny_cfg(modulations=("qpsk",), min_bits=20_000, max_bits=20_000,
                       snr_grid_db=(-10.0, -5.0, 0.0))
        r = sweep(cfg)
        assert r[0].ber > r[1].ber
        assert r[1].ber >= r[2].ber


class TestStageToggles:
    def test_coding_and_spreading_help_at_zero_db(self):
        full = run_chain(tiny_cfg(min_bits=50_000, max_bits=50_000), "qpsk", 0.0)
        bare = run_chain(
            tiny_cfg(min_bits=50_000, max_bits=50_000, fec=False, spreading=False),
            "qpsk", 0.0,
        )
        slack = 2 * (full.ci95 + bare.ci95)
        assert full.ber <= bare.ber + slack

    def test_diversity_order_two_by_four_vs_two_by_one(self):
        # uncoded slope between 0 and 10 dB is steeper with 4 receive antennas
        def slope(n_rx):
            cfg = tiny_cfg(min_bits=200_000, max_bits=200_000, fec=False,
                           spreading=False, n_rx=n_rx)
            lo = run_chain(cfg, "qpsk", 0.0)
            hi = run_chain(cfg, "qpsk", 10.0)
            floor = 0.5 / hi.bits
            return (math.log10(max(lo.ber, floor)) - math.log10(max(hi.ber, floor))) / 10.0

        assert slope(4) > slope(1)


class TestGains:
    def test_gain_of_reference_is_zero(self):
        cfg = tiny_cfg(modulations=("qpsk", "64qam"), snr_grid_db=(-10.0, -5.0, 0.0),
                       gain_at_snr_db=-5.0)
        records = sweep(cfg)
        gains = compute_gains(records, cfg)
        ref = next(g for g in gains if g.modulation == "64qam")
        assert ref.gain_db == 0.0
        assert ref.flag == ""

    def test_emit_and_reload(self, tmp_path):
        cfg = tiny_cfg(modulations=("qpsk",), snr_grid_db=(-5.0, 0.0))
        records = sweep(cfg)
        gains = compute_gains(records, cfg)
        paths = emit_results(records, gains, cfg, tmp_path / "out", 1.23)
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["config"] == json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert manifest["wall_time_s"] == 1.23
        with open(paths["ber"], newline="") as f:
            parsed = list(csv.DictReader(f))
        assert [(p["modulation"], float(p["snr_db"]), int(p["bits"]), int(p["errors"]))
                for p in parsed] == [(r.modulation, r.snr_db, r.bits, r.errors) for r in records]

    def test_manifest_bytes(self, tmp_path):
        from mclink import __version__

        cfg = tiny_cfg(modulations=("qpsk",), snr_grid_db=(-5.0, 0.0))
        records = sweep(cfg)
        paths = emit_results(records, compute_gains(records, cfg), cfg, tmp_path / "out", 1.23)
        expected = {
            "version": __version__,
            "seed": cfg.seed,
            "config": dataclasses.asdict(cfg),
            "wall_time_s": 1.23,
            "diagnostics": {"total_redraws": sum(r.redraws for r in records)},
        }
        assert paths["manifest"].read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_numpy_seed_writes_manifest(self, tmp_path):
        cfg = tiny_cfg(modulations=("qpsk",), snr_grid_db=(-5.0,), seed=np.int64(3))
        records = sweep(cfg)
        paths = emit_results(records, compute_gains(records, cfg), cfg, tmp_path / "out", 0.0)
        assert json.loads(paths["manifest"].read_text())["config"]["seed"] == 3

    def test_csv_byte_stability(self, tmp_path):
        cfg = tiny_cfg(modulations=("8psk",), snr_grid_db=(-5.0,))
        out1 = emit_results(sweep(cfg), [], cfg, tmp_path / "a", 0.0)
        out2 = emit_results(sweep(cfg), [], cfg, tmp_path / "b", 0.0)
        assert out1["ber"].read_bytes() == out2["ber"].read_bytes()

    def test_failed_write_leaves_whole_files_and_no_temp(self, tmp_path, monkeypatch):
        from pathlib import Path

        from mclink.results import BER_CSV_HEADER, csv_text

        cfg = tiny_cfg(modulations=("qpsk",), snr_grid_db=(-5.0,))
        records = sweep(cfg)
        out = tmp_path / "out"
        paths = emit_results(records, compute_gains(records, cfg), cfg, out, 0.0)
        before = {name: p.read_bytes() for name, p in paths.items()}
        write_text = Path.write_text

        def torn_gain_write(path, text, **kwargs):
            if path.name != ".gains.csv.tmp":
                return write_text(path, text, **kwargs)
            write_text(path, "modulation,refer", **kwargs)
            raise OSError("disk full")

        (tmp_path / "empty.csv").write_text(csv_text(BER_CSV_HEADER, []), newline="")
        monkeypatch.setattr(Path, "write_text", torn_gain_write)
        with pytest.raises(OSError, match="disk full"):
            emit_results([], [], cfg, out, 0.0)
        assert sorted(p.name for p in out.iterdir()) == ["ber.csv", "gains.csv", "manifest.json"]
        assert paths["ber"].read_bytes() in (before["ber"], (tmp_path / "empty.csv").read_bytes())
        assert paths["gains"].read_bytes() == before["gains"]
        assert paths["manifest"].read_bytes() == before["manifest"]

    def test_unwritable_path_raises_os_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError) as info:
            emit_results([], [], tiny_cfg(), blocker / "sub", 0.0)
        assert "file" in str(info.value)


class TestRedraws:
    def test_degenerate_blocks_redrawn_and_counted(self):
        from mclink.engine import _redraw_weak_blocks

        rng = np.random.default_rng(0)
        h = np.zeros((3, 4, 4, 2), dtype=complex)
        h[0], h[2] = 1.0, 1.0  # block row 1 is all-zero across all subcarriers
        redrawn = h.copy()
        count = _redraw_weak_blocks(redrawn, rng)
        assert count == 4  # one per subcarrier of the degenerate block
        assert np.all(np.sum(np.abs(redrawn) ** 2, axis=(-2, -1)) > 0)
        assert np.array_equal(redrawn[0], h[0])  # healthy blocks untouched


def detect_alamouti_untiled(cfg, frames, snr_db, rng):
    """The whole-frame link from its public stages: one call of each over
    every (pair, subcarrier) block at once, on the three child streams."""
    from mclink.channel import NoiseConfig, apply_channel, draw_channel
    from mclink.engine import _redraw_weak_blocks
    from mclink.mimo import build_effective, realzf_detect, stbc_encode, zf_detect
    from mclink.ofdm import ofdm_demodulate, ofdm_modulate

    gain_rng, noise_rng, redraw_rng = rng.spawn(3)
    amp = 1.0 / math.sqrt(2.0) if cfg.split_tx_power else 1.0
    x_freq = ofdm_demodulate(ofdm_modulate(stbc_encode(frames) * amp, cfg.cp_len), cfg.cp_len)
    n_slots = frames.shape[0]
    h = draw_channel(gain_rng, cfg.n_subcarriers, n_blocks=n_slots // 2, n_rx=cfg.n_rx)
    redraws = _redraw_weak_blocks(h, redraw_rng)
    y = apply_channel(x_freq, h, NoiseConfig(snr_db), noise_rng)
    h_blocks = h * amp
    y_blocks = y.reshape(cfg.n_rx, n_slots // 2, 2, cfg.n_subcarriers).transpose(1, 3, 0, 2)
    if cfg.detector == "realzf":
        out = realzf_detect(h_blocks, y_blocks)
    else:
        out = zf_detect(build_effective(h_blocks, y_blocks))
    return out.estimates.transpose(0, 2, 1).reshape(n_slots, cfg.n_subcarriers), redraws


class TestTiledDetection:
    # (subcarriers, slot pairs): a tile holds 292 and 8 pairs of the first two
    # frames, neither pair count a multiple of that, and one pair of the
    # 2500-subcarrier frame, which is wider than a tile
    FRAMES = [(7, 301), (256, 21), (2500, 3)]

    @pytest.mark.parametrize("n_sc,n_pairs", FRAMES)
    @pytest.mark.parametrize("detector", ["zf", "realzf"])
    @pytest.mark.parametrize("n_rx", [1, 4])
    @pytest.mark.parametrize("split", [False, True])
    def test_estimates_equal_untiled(self, monkeypatch, n_sc, n_pairs, detector, n_rx, split):
        from mclink import engine
        from mclink.channel import complex_normal

        step = max(1, engine.TILE_BLOCKS // n_sc)
        assert n_pairs > step and (n_pairs % step or step == 1)
        cfg = fast_profile(n_subcarriers=n_sc, cp_len=min(16, n_sc), detector=detector,
                           n_rx=n_rx, split_tx_power=split)
        frames = complex_normal(np.random.default_rng(n_sc), (2 * n_pairs, n_sc))

        def detect(tile_blocks):
            monkeypatch.setattr(engine, "TILE_BLOCKS", tile_blocks)
            rng = np.random.default_rng(40)
            est, redraws = engine._detect_alamouti(cfg, frames, 3.0, rng)
            return est, redraws, rng.standard_normal()

        est, redraws, position = detect(engine.TILE_BLOCKS)
        # one slot pair per tile, and the whole frame in one tile
        for tile_blocks in (1, n_pairs * n_sc):
            ref, ref_redraws, ref_position = detect(tile_blocks)
            assert est.shape == ref.shape == frames.shape
            assert np.array_equal(est, ref)
            assert redraws == ref_redraws
            assert position == ref_position
        # and the whole-frame link from the public stages
        rng = np.random.default_rng(40)
        ref, ref_redraws = detect_alamouti_untiled(cfg, frames, 3.0, rng)
        assert np.array_equal(est, ref)
        assert redraws == ref_redraws
        assert position == rng.standard_normal()

    def test_injected_zero_block_redrawn_without_moving_gains_or_noise(self, monkeypatch):
        from mclink import channel, engine

        cfg = fast_profile(n_subcarriers=64, cp_len=16)
        n_pairs = 40  # two tiles, of 32 and 8 slot pairs
        frames = channel.complex_normal(np.random.default_rng(2), (2 * n_pairs, 64))
        real_normal, real_draw, real_apply = (
            channel.complex_normal, channel.draw_channel, channel.apply_channel)

        def run(inject):
            draws, gains = [], []

            def record_normal(rng, shape):
                out = real_normal(rng, shape)
                draws.append(out.copy())
                return out

            def draw(rng, n_sc, n_blocks, n_rx):
                h = real_draw(rng, n_sc, n_blocks=n_blocks, n_rx=n_rx)
                if inject and len(draws) == 3:  # the second tile's gains
                    h[3, 5] = 0.0
                return h

            def apply(x, h, noise, rng):
                gains.append(h.copy())
                return real_apply(x, h, noise, rng)

            # gains and noise come through channel.complex_normal, redraws
            # through the engine's own binding
            monkeypatch.setattr(channel, "complex_normal", record_normal)
            monkeypatch.setattr(engine, "draw_channel", draw)
            monkeypatch.setattr(engine, "apply_channel", apply)
            est, redraws = engine._detect_alamouti(cfg, frames, 3.0, np.random.default_rng(40))
            return draws, np.concatenate(gains), est, redraws

        draws, gains, est, redraws = run(inject=False)
        hit_draws, hit_gains, hit_est, hit_redraws = run(inject=True)
        assert (redraws, hit_redraws) == (0, 1)
        # every gain and noise draw is unchanged: the redraw has its own stream
        assert len(hit_draws) == len(draws) == 4
        assert all(np.array_equal(a, b) for a, b in zip(hit_draws, draws))
        # the zeroed block holds the redraw stream's first draw, no other moved
        redraw_rng = np.random.default_rng(40).spawn(3)[2]
        assert np.array_equal(hit_gains[32 + 3, 5], real_normal(redraw_rng, (1, 4, 2))[0])
        other = np.ones(gains.shape[:2], dtype=bool)
        other[32 + 3, 5] = False
        assert np.array_equal(hit_gains[other], gains[other])
        # estimates move only in that block's two slots on that subcarrier
        moved = np.zeros(est.shape, dtype=bool)
        moved[2 * (32 + 3) : 2 * (32 + 3) + 2, 5] = True
        assert np.array_equal(hit_est[~moved], est[~moved])
        assert not np.array_equal(hit_est[moved], est[moved])


def mrc_rayleigh_ber(snr_db: float, branches: int) -> float:
    """Bit error rate of BPSK/Gray-QPSK with maximal-ratio combining over
    ``branches`` i.i.d. Rayleigh branches at per-branch Eb/N0 ``snr_db``
    (Proakis, Digital Communications, section 14.4)."""
    gamma = 10.0 ** (snr_db / 10.0)
    mu = math.sqrt(gamma / (1.0 + gamma))
    return ((1.0 - mu) / 2.0) ** branches * sum(
        math.comb(branches - 1 + k, k) * ((1.0 + mu) / 2.0) ** k for k in range(branches)
    )


class TestAnalyticOracle:
    # Uncoded, unspread QPSK through Alamouti and ZF is 2*n_rx-branch MRC;
    # splitting the transmit power halves each branch's SNR.  The seed and
    # the 4-standard-error tolerance are fixed, not tuned to the outcome.
    @pytest.mark.parametrize("n_rx,split,snr_db", [
        (1, False, 5.0), (2, False, 0.0), (4, False, -5.0),
        (1, True, 0.0), (2, True, 5.0), (4, True, 0.0),
    ])
    def test_uncoded_qpsk_matches_mrc_closed_form(self, n_rx, split, snr_db):
        from mclink.engine import _run_chunk

        cfg = fast_profile(fec=False, spreading=False, n_rx=n_rx, split_tx_power=split, seed=123)
        rates = []
        for chunk in range(20):
            bits, errors, _ = _run_chunk(cfg, "qpsk", snr_db, chunk)
            rates.append(errors / bits)
        gamma_db = snr_db - 10.0 * math.log10(2.0) if split else snr_db
        expected = mrc_rayleigh_ber(gamma_db, 2 * n_rx)
        # batch means: the spread of the 20 chunk BERs, which counts errors
        # that cluster within a fading block
        stderr = np.std(rates, ddof=1) / math.sqrt(len(rates))
        assert abs(np.mean(rates) - expected) <= 4.0 * stderr


class TestChunkMemory:
    # Bounds, not figures: one benchmark-sized chunk peaked at 37.66 MiB
    # (qpsk) and 13.99 MiB (64qam) of traced numpy memory while the receive
    # path held chunk-sized gains and received samples, and at 9.49 and
    # 5.41 MiB once the link runs tile by tile; each bound is about 15% above
    # the second figure.
    PEAK_MIB = {"qpsk": 11.0, "64qam": 6.2}

    def chunk_peak_mib(self, modulation):
        import tracemalloc

        from mclink.engine import _run_chunk

        cfg = fast_profile(frames_per_chunk=125, frame_payload_bits=200, seed=20240)
        _run_chunk(cfg, modulation, -5.0, 0)  # warm-up: imports and lazy tables
        tracemalloc.start()
        try:
            _run_chunk(cfg, modulation, -5.0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def test_qpsk_chunk_peak_memory(self):
        peak = self.chunk_peak_mib("qpsk")
        assert peak <= self.PEAK_MIB["qpsk"], f"{peak:.2f} MiB"

    def test_64qam_chunk_peak_memory(self):
        peak = self.chunk_peak_mib("64qam")
        assert peak <= self.PEAK_MIB["64qam"], f"{peak:.2f} MiB"
