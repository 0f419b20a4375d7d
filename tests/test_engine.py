import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from mclink import BerRecord, SimConfig, fast_profile, load_config, run_chain, sweep
from mclink.config import MAX_CHUNK_PAYLOAD_BITS, MAX_SUBCARRIERS, MAX_WORKERS
from mclink.engine import compute_gains, effective_es_n0_db, emit_results
from mclink.errors import ConfigError
from mclink import modem

# tiny multicarrier frame keeps unit-scale engine tests quick; math is
# identical to the full profile
TINY = dict(n_subcarriers=64, cp_len=16, min_bits=10_000, max_bits=20_000,
            frame_payload_bits=100, frames_per_chunk=100)


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
        dict(workers=2.5),
        dict(n_rx=True),
        dict(seed="1"),
        dict(snr_grid_db=(-5.0, True)),
        dict(snr_grid_db=-5.0),
        dict(modulations=("qpsk", 3)),
    ], ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()))
    def test_wrongly_typed_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            SimConfig(**bad)
        with pytest.raises(ConfigError):
            dataclasses.replace(SimConfig(), **bad)

    def test_values_stored_as_plain_python(self):
        cfg = SimConfig(seed=np.int64(3), snr_grid_db=[-5, 0])
        assert type(cfg.seed) is int and cfg.seed == 3
        assert cfg.snr_grid_db == (-5.0, 0.0)
        assert all(type(v) is float for v in cfg.snr_grid_db)

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
        cfg = SimConfig(modulations=("QPSK", "64-QAM"))
        assert cfg.modulations == ("qpsk", "64qam")

    def test_effective_snr_reference(self):
        # energy per payload bit through the rate-1/2 code
        c6 = modem.get_constellation("64qam")
        c2 = modem.get_constellation("qpsk")
        assert effective_es_n0_db(c2, -5.0) == pytest.approx(-5.0)
        assert effective_es_n0_db(c6, -5.0) == pytest.approx(-5.0 + 10 * math.log10(3))


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


class TestStopRule:
    """``run_chain`` on scripted chunks: stop once min_bits is reached and
    either ``MAX_BIT_ERRORS`` errors or max_bits."""

    def run_scripted(self, monkeypatch, chunks, **over):
        """``run_chain`` with chunk i returning ``chunks[i]`` as (bits, errors,
        redraws); returns its record and the chunk indices it ran."""
        from mclink import engine

        ran = []

        def scripted(cfg, modulation, snr_db, chunk):
            ran.append(chunk)
            return chunks[chunk]

        monkeypatch.setattr(engine, "_run_chunk", scripted)
        return run_chain(tiny_cfg(**over), "QPSK", 0.0), ran

    def test_error_target_after_min_bits_stops_below_the_cap(self, monkeypatch):
        from mclink.engine import MAX_BIT_ERRORS

        assert MAX_BIT_ERRORS == 100
        # 99 errors after four chunks, 100 after the fifth; a sixth is never run
        chunks = [(4_000, e, 0) for e in (30, 30, 30, 9, 1, 50)]
        rec, ran = self.run_scripted(monkeypatch, chunks, max_bits=100_000)
        assert ran == [0, 1, 2, 3, 4]
        assert rec == BerRecord("qpsk", 0.0, 20_000, 100, 0)

    def test_error_target_before_min_bits_runs_to_min_bits(self, monkeypatch):
        chunks = [(4_000, 100, 0)] * 4
        rec, ran = self.run_scripted(monkeypatch, chunks, max_bits=100_000)
        assert ran == [0, 1, 2]
        assert (rec.bits, rec.errors) == (12_000, 300)

    def test_short_of_the_target_stops_at_the_first_chunk_past_the_cap(self, monkeypatch):
        chunks = [(4_000, e, 0) for e in (30, 30, 30, 9, 0, 50)]
        rec, ran = self.run_scripted(monkeypatch, chunks, max_bits=18_000)
        assert ran == [0, 1, 2, 3, 4]
        assert (rec.bits, rec.errors) == (20_000, 99)

    def test_redraws_are_summed(self, monkeypatch):
        chunks = [(4_000, 0, r) for r in (2, 0, 5, 1, 3)]
        rec, ran = self.run_scripted(monkeypatch, chunks)  # to max_bits = 20,000
        assert ran == [0, 1, 2, 3, 4]
        assert rec == BerRecord("qpsk", 0.0, 20_000, 0, 11)


class TestChunkSeed:
    def test_negative_zero_snr_draws_the_zero_stream(self):
        from mclink.engine import _chunk_rng

        a = _chunk_rng(7, "qpsk", -0.0, 3)
        b = _chunk_rng(7, "qpsk", 0.0, 3)
        assert a.bit_generator.seed_seq.entropy == b.bit_generator.seed_seq.entropy
        assert np.array_equal(a.bit_generator.random_raw(4), b.bit_generator.random_raw(4))
        assert run_chain(tiny_cfg(), "qpsk", -0.0) == run_chain(tiny_cfg(), "qpsk", 0.0)

    def test_chunk_generator_is_sfc64_on_the_chunk_seed(self):
        from mclink.engine import _chunk_rng

        rng = _chunk_rng(7, "qpsk", -5.0, 3)
        assert type(rng.bit_generator) is np.random.SFC64
        name_word = int.from_bytes(b"qpsk", "big")
        snr_word = int(np.float64(-5.0).view(np.uint64))
        ref = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence([7, name_word, snr_word, 3])))
        assert np.array_equal(rng.bit_generator.random_raw(4), ref.bit_generator.random_raw(4))
        # the three child streams are SFC64 too
        assert all(type(child.bit_generator) is np.random.SFC64 for child in rng.spawn(3))


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


def uncoded_chunk(cfg, modulation, snr_db, chunk):
    """Chunk ``chunk``'s payload sent unspread and uncoded, straight through
    the link on the chunk's own stream, at Es/N0 = snr + 10*log10(bits per
    symbol); returns (bits, errors)."""
    from mclink.bits import PRBS_DEGREE, Prbs
    from mclink.engine import _chunk_rng, _detect_alamouti

    c = modem.get_constellation(modulation)
    rng = _chunk_rng(cfg.seed, c.name, snr_db, chunk)
    payload = Prbs(int(rng.integers(1, 1 << PRBS_DEGREE))).generate(cfg.chunk_payload_bits)
    groups = payload.reshape(-1, c.bits_per_symbol)
    es_n0_db = snr_db + 10.0 * math.log10(c.bits_per_symbol)
    hard, _ = _detect_alamouti(cfg, c, groups, es_n0_db, rng)
    return payload.size, int(np.count_nonzero(hard != groups))


def uncoded_record(cfg, modulation, snr_db):
    """The uncoded link's record over the chunks of a fixed-work point
    (``min_bits == max_bits``)."""
    counts = [uncoded_chunk(cfg, modulation, snr_db, chunk)
              for chunk in range(-(-cfg.max_bits // cfg.chunk_payload_bits))]
    return BerRecord(modulation, snr_db, *map(sum, zip(*counts)))


class TestUncodedLink:
    def test_coding_and_spreading_help_at_zero_db(self):
        full = run_chain(tiny_cfg(min_bits=50_000, max_bits=50_000), "qpsk", 0.0)
        bare = uncoded_record(tiny_cfg(min_bits=50_000, max_bits=50_000), "qpsk", 0.0)
        slack = 2 * (full.ci95 + bare.ci95)
        assert full.ber <= bare.ber + slack

    def test_diversity_order_two_by_four_vs_two_by_one(self):
        # uncoded slope between 0 and 10 dB is steeper with 4 receive antennas
        def slope(n_rx):
            cfg = tiny_cfg(min_bits=200_000, max_bits=200_000, n_rx=n_rx)
            lo = uncoded_record(cfg, "qpsk", 0.0)
            hi = uncoded_record(cfg, "qpsk", 10.0)
            floor = 0.5 / hi.bits
            return (math.log10(max(lo.ber, floor)) - math.log10(max(hi.ber, floor))) / 10.0

        assert slope(4) > slope(1)


class TestGains:
    def test_gain_of_reference_is_zero(self):
        cfg = tiny_cfg(modulations=("qpsk", "64qam"), snr_grid_db=(-10.0, -5.0, 0.0))
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
        from mclink.channel import complex_normal
        from mclink.engine import _redraw_weak_blocks

        # 3 slot pairs x 5 subcarriers, in C order and in draw_channel's
        # layout (slot pairs, antennas, columns, subcarriers), where a mask
        # built on the wrong axes would miss or move the zero blocks
        for h in (np.zeros((3, 5, 4, 2), dtype=complex),
                  np.zeros((3, 4, 2, 5), dtype=complex).transpose(0, 3, 1, 2)):
            h[0], h[2] = 1.0, 1.0  # block row 1 is all-zero across all subcarriers
            h[2, 3] = 0.0  # and one more block
            redrawn = h.copy(order="K")
            count = _redraw_weak_blocks(redrawn, chunk_stream(0))
            assert count == 6  # one per zero block
            assert np.all(np.sum(np.abs(redrawn) ** 2, axis=(-2, -1)) > 0)
            assert np.array_equal(redrawn[0], h[0])  # healthy blocks untouched
            assert np.array_equal(redrawn[2, :3], h[2, :3])
            assert np.array_equal(redrawn[2, 4], h[2, 4])
            # the redraws are the stream's first draws, in block order
            ref = complex_normal(chunk_stream(0), (6, 4, 2))
            assert np.array_equal(redrawn[1], ref[:5])
            assert np.array_equal(redrawn[2, 3], ref[5])


def chunk_stream(seed):
    """A chunk's generator as ``_run_chunk`` makes it, here on a seed of the
    test's own, for tests that hand the engine's stages a stream."""
    from mclink.engine import _chunk_rng

    return _chunk_rng(seed, "16qam", 3.0, 0)


def detect_alamouti_untiled(cfg, c, groups, snr_db, rng):
    """The whole-stream link from its public stages: the bit groups mapped
    with ``map_bits``, zero-padded to whole slot pairs of frames, and one
    call of each stage over every (pair, subcarrier) block at once, on the
    three child streams.  Returns the estimates of the groups' symbols in
    stream order and the redraw count."""
    from mclink.channel import NoiseConfig, apply_channel, draw_channel
    from mclink.engine import _redraw_weak_blocks
    from mclink.mimo import build_effective, realzf_detect, stbc_encode, zf_detect
    from mclink.ofdm import ofdm_demodulate, ofdm_modulate

    symbols = modem.map_bits(groups.reshape(-1), c)
    n_sc = cfg.n_subcarriers
    frames = np.zeros((-(-symbols.size // (2 * n_sc)) * 2, n_sc), dtype=complex)
    frames.reshape(-1)[: symbols.size] = symbols
    gain_rng, noise_rng, redraw_rng = rng.spawn(3)
    x = ofdm_modulate(stbc_encode(frames), cfg.cp_len)
    x_freq = ofdm_demodulate(x, cfg.cp_len)
    h = draw_channel(gain_rng, n_sc, n_blocks=frames.shape[0] // 2, n_rx=cfg.n_rx)
    redraws = _redraw_weak_blocks(h, redraw_rng)
    y = apply_channel(x_freq, h, NoiseConfig(snr_db), noise_rng)
    if cfg.detector == "realzf":
        out = realzf_detect(h, y)
    else:
        out = zf_detect(build_effective(h, y))
    return out.estimates.transpose(0, 2, 1).reshape(-1)[: symbols.size], redraws


def detect_tiled(monkeypatch, cfg, c, groups, snr_db, rng):
    """``engine._detect_alamouti`` and the estimates it hands the demapper,
    joined into one stream in symbol order: (estimates, hard bits, redraws)."""
    from mclink import engine

    demap = modem.demap_symbols
    seen = []

    def record(symbols, c):
        seen.append(np.array(symbols))
        return demap(symbols, c)

    monkeypatch.setattr(modem, "demap_symbols", record)
    try:
        hard, redraws = engine._detect_alamouti(cfg, c, groups, snr_db, rng)
    finally:
        monkeypatch.setattr(modem, "demap_symbols", demap)
    return np.concatenate(seen), hard, redraws


def random_groups(seed, n_symbols, c):
    """Random coded bits, one row of ``c.bits_per_symbol`` per symbol."""
    return np.random.default_rng(seed).integers(
        0, 2, (n_symbols, c.bits_per_symbol), dtype=np.uint8)


class TestTiledDetection:
    # (subcarriers, slot pairs): a tile holds 292 and 8 pairs of the first two
    # frames, neither pair count a multiple of that, and one pair of the
    # 2500-subcarrier frame, which is wider than a tile.  The stream stops
    # one symbol into the last pair's second slot, so the last tile is
    # zero-padded.
    FRAMES = [(7, 301), (256, 21), (2500, 3)]

    @pytest.mark.parametrize("n_sc,n_pairs", FRAMES)
    @pytest.mark.parametrize("detector", ["zf", "realzf"])
    @pytest.mark.parametrize("n_rx", [1, 4])
    def test_estimates_equal_untiled(self, monkeypatch, n_sc, n_pairs, detector, n_rx):
        from mclink import engine

        step = max(1, engine.TILE_BLOCKS // n_sc)
        assert n_pairs > step and (n_pairs % step or step == 1)
        cfg = fast_profile(n_subcarriers=n_sc, cp_len=min(16, n_sc), detector=detector,
                           n_rx=n_rx)
        c = modem.get_constellation("16qam")
        n_symbols = (2 * n_pairs - 1) * n_sc + 1
        groups = random_groups(n_sc, n_symbols, c)

        def detect(tile_blocks):
            monkeypatch.setattr(engine, "TILE_BLOCKS", tile_blocks)
            rng = chunk_stream(40)
            est, hard, redraws = detect_tiled(monkeypatch, cfg, c, groups, 3.0, rng)
            return est, hard, redraws, rng.standard_normal()

        est, hard, redraws, position = detect(engine.TILE_BLOCKS)
        assert est.shape == (n_symbols,) and hard.shape == groups.shape
        # one slot pair per tile, and the whole frame in one tile
        for tile_blocks in (1, n_pairs * n_sc):
            ref, ref_hard, ref_redraws, ref_position = detect(tile_blocks)
            assert np.array_equal(est, ref)
            assert np.array_equal(hard, ref_hard)
            assert redraws == ref_redraws
            assert position == ref_position
        # and the whole-stream link from the public stages
        rng = chunk_stream(40)
        ref, ref_redraws = detect_alamouti_untiled(cfg, c, groups, 3.0, rng)
        assert np.array_equal(est, ref)
        assert np.array_equal(hard, modem.demap_symbols(ref, c).reshape(groups.shape))
        assert redraws == ref_redraws
        assert position == rng.standard_normal()

    def test_injected_zero_block_redrawn_without_moving_gains_or_noise(self, monkeypatch):
        from mclink import channel, engine

        cfg = fast_profile(n_subcarriers=64, cp_len=16)
        c = modem.get_constellation("16qam")
        n_pairs = 40  # two tiles, of 32 and 8 slot pairs
        groups = random_groups(2, 2 * n_pairs * 64, c)
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
            est, _, redraws = detect_tiled(monkeypatch, cfg, c, groups, 3.0, chunk_stream(40))
            return draws, np.concatenate(gains), est.reshape(2 * n_pairs, 64), redraws

        draws, gains, est, redraws = run(inject=False)
        hit_draws, hit_gains, hit_est, hit_redraws = run(inject=True)
        assert (redraws, hit_redraws) == (0, 1)
        # every gain and noise draw is unchanged: the redraw has its own stream
        assert len(hit_draws) == len(draws) == 4
        assert all(np.array_equal(a, b) for a, b in zip(hit_draws, draws))
        # the zeroed block holds the redraw stream's first draw, no other moved
        redraw_rng = chunk_stream(40).spawn(3)[2]
        assert np.array_equal(hit_gains[32 + 3, 5], real_normal(redraw_rng, (1, 4, 2))[0])
        other = np.ones(gains.shape[:2], dtype=bool)
        other[32 + 3, 5] = False
        assert np.array_equal(hit_gains[other], gains[other])
        # estimates move only in that block's two slots on that subcarrier
        moved = np.zeros(est.shape, dtype=bool)
        moved[2 * (32 + 3) : 2 * (32 + 3) + 2, 5] = True
        assert np.array_equal(hit_est[~moved], est[~moved])
        assert not np.array_equal(hit_est[moved], est[moved])


def run_chunk_untiled(cfg, modulation, snr_db, chunk):
    """``_run_chunk`` from the public stages, with the whole chunk's link in
    one pass; returns (bits, errors, redraws) and the decoder's input."""
    from mclink.bits import PRBS_DEGREE, Prbs, conv_encode, despread, spread, viterbi_decode
    from mclink.engine import _chunk_rng

    c = modem.get_constellation(modulation)
    rng = _chunk_rng(cfg.seed, c.name, snr_db, chunk)
    payload = Prbs(int(rng.integers(1, 1 << PRBS_DEGREE))).generate(cfg.chunk_payload_bits)
    payload = payload.reshape(cfg.frames_per_chunk, cfg.frame_payload_bits)
    coded = conv_encode(spread(payload))
    coded_len = coded.shape[-1]
    pad = np.zeros((cfg.frames_per_chunk, -coded_len % c.bits_per_symbol), dtype=np.uint8)
    coded = np.concatenate([coded, pad], axis=-1)
    est, redraws = detect_alamouti_untiled(cfg, c, coded, effective_es_n0_db(c, snr_db), rng)
    rx_coded = modem.demap_symbols(est, c).reshape(coded.shape)[:, :coded_len]
    errors = int(np.count_nonzero(despread(viterbi_decode(rx_coded)) != payload))
    return (payload.size, errors, redraws), rx_coded


class TestChunkTiling:
    # 300 subcarriers: a default tile is 6 slot pairs, 3,600 symbols, which
    # cuts across the frame rows (1,602 QPSK symbols each) and leaves a
    # partial last tile; 2,500 subcarriers are wider than a tile.  32qam's
    # 3,204 coded bits per row take one pad bit.
    @pytest.mark.parametrize("n_sc", [300, 2500])
    @pytest.mark.parametrize("modulation", modem.SCHEMES)
    def test_chunk_results_do_not_depend_on_tiling(self, monkeypatch, modulation, n_sc):
        from mclink import engine

        cfg = fast_profile(n_subcarriers=n_sc, cp_len=16, frame_payload_bits=200,
                           frames_per_chunk=10, seed=8)
        decode = engine.viterbi_decode

        def run(tile_blocks):
            seen = []

            def record(bits):
                seen.append(np.array(bits))
                return decode(bits)

            monkeypatch.setattr(engine, "TILE_BLOCKS", tile_blocks)
            monkeypatch.setattr(engine, "viterbi_decode", record)
            return engine._run_chunk(cfg, modulation, -5.0, 3), seen[0]

        result, rx_coded = run(engine.TILE_BLOCKS)
        assert result[1] > 0  # the comparison counts real errors
        for tile_blocks in (1, 10**9):
            ref, ref_coded = run(tile_blocks)
            assert ref == result
            assert np.array_equal(ref_coded, rx_coded)
        ref, ref_coded = run_chunk_untiled(cfg, modulation, -5.0, 3)
        assert ref == result
        assert np.array_equal(ref_coded, rx_coded)


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
    # ``uncoded_chunk`` sends each chunk's payload through the link alone.
    # A ``split`` point is one of unit total power split across the two
    # transmit antennas, which halves each branch's SNR: it runs on the grid
    # 10*log10(2) dB lower (README "SNR reference").  The seed and the
    # 4-standard-error tolerance are fixed, not tuned to the outcome.
    @pytest.mark.parametrize("n_rx,split,snr_db", [
        (1, False, 5.0), (2, False, 0.0), (4, False, -5.0),
        (1, True, 0.0), (2, True, 5.0), (4, True, 0.0),
    ])
    def test_uncoded_qpsk_matches_mrc_closed_form(self, n_rx, split, snr_db):
        cfg = fast_profile(n_rx=n_rx, seed=123)
        grid_db = snr_db - 10.0 * math.log10(2.0) if split else snr_db
        rates = []
        for chunk in range(20):
            bits, errors = uncoded_chunk(cfg, "qpsk", grid_db, chunk)
            rates.append(errors / bits)
        expected = mrc_rayleigh_ber(grid_db, 2 * n_rx)
        # batch means: the spread of the 20 chunk BERs, which counts errors
        # that cluster within a fading block
        stderr = np.std(rates, ddof=1) / math.sqrt(len(rates))
        assert abs(np.mean(rates) - expected) <= 4.0 * stderr


class TestChunkMemory:
    # Bounds, not figures: one benchmark-sized chunk peaked at 37.66 MiB
    # (qpsk) and 13.99 MiB (64qam) of traced numpy memory while the receive
    # path held chunk-sized gains and received samples, at 9.49 and 5.41 MiB
    # once the link ran tile by tile between chunk-sized symbols and
    # estimates, at 3.87 MiB on both once each tile runs from bits to bits,
    # and at 3.66 and 3.63 MiB once the ZF weights stopped copying the
    # stacked channel's columns.  The bound sits below the 3.87 MiB of the
    # column copies, 4% above the last figure.
    PEAK_MIB = {"qpsk": 3.8, "64qam": 3.8}

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
