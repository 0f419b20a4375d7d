"""Chain assembly, the Monte Carlo loop and the sweep; the engine writes no file.

Transmit chain per frame: message bits -> chip spreading -> rate-1/2
convolutional encoding -> constellation mapping -> serial/parallel framing ->
Alamouti pairing per subcarrier over two consecutive multicarrier symbols ->
IDFT + cyclic prefix per antenna.  The receiver mirrors it: prefix strip +
DFT, per-subcarrier linear detection, demapping, Viterbi decoding,
majority-vote despreading, payload comparison.

Fading is flat per subcarrier and quasi-static over each Alamouti pair, so
the channel acts on the frequency-domain symbols directly; the multicarrier
transform round-trips every sample to keep the chain faithful and the energy
bookkeeping exact.

Work is split into fixed-size chunks of whole FEC frames.  Each chunk derives
its own RNG substream from (seed, modulation, SNR, chunk index), and the stop
rule consumes chunks strictly in index order, which makes every output
independent of worker count and scheduling.  A chunk's stream draws the
source seed, then spawns three children: the fading gains, the noise and the
weak-block redraws.  Gains and noise are drawn pair-major (see ``channel``),
so the link runs one tile of slot pairs at a time, from STBC to detection,
and its bytes do not depend on the tile size.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import modem
from .bits import PRBS_DEGREE, Prbs, conv_encode, despread, spread, viterbi_decode
from .channel import NoiseConfig, apply_channel, complex_normal, draw_channel
from .config import SimConfig
from .mimo import build_effective, realzf_detect, stbc_encode, zf_detect
from .ofdm import ofdm_demodulate, ofdm_modulate
from .results import BerRecord, compute_gains, emit_results  # noqa: F401 - re-exported for tests

#: Blocks whose total channel energy falls below this are redrawn; with
#: continuous fading this never fires, it guards injected degenerate cases.
GRAM_FLOOR = 1e-12

#: Alamouti blocks (subcarrier x slot pair) per tile of the link.  With 4
#: receive antennas a tile's gains, stacked channel and ZF weights are
#: 256-512 KiB each, so its working set stays near a 2 MiB per-core L2 cache.
#: A tile holds whole slot pairs, at least one.
TILE_BLOCKS = 2048


def _chunk_seed(seed: int, modulation: str, snr_db: float, chunk: int) -> np.random.SeedSequence:
    name_word = int.from_bytes(modulation.encode("ascii"), "big")
    # + 0.0 maps -0.0 to 0.0, so both name the same grid point and stream
    snr_word = int(np.float64(snr_db + 0.0).view(np.uint64))
    return np.random.SeedSequence([seed, name_word, snr_word, chunk])


def effective_es_n0_db(cfg: SimConfig, c: modem.Constellation, snr_db: float) -> float:
    """Symbol-level Es/N0 for a grid SNR read as energy per coded payload
    bit: snr + 10*log10(bits per symbol * code rate)."""
    code_rate = 0.5 if cfg.fec else 1.0
    return snr_db + 10.0 * math.log10(c.bits_per_symbol * code_rate)


def _redraw_weak_blocks(h: np.ndarray, rng: np.random.Generator) -> int:
    """Replace blocks of ``h`` with numerically zero energy in place; returns
    the redraw count."""
    total = 0
    while True:
        # per-block sum of re^2 + im^2, as one dot product over the float view
        parts = np.ascontiguousarray(h).view(np.float64)
        parts = parts.reshape(parts.shape[:-2] + (-1,))
        g = np.vecdot(parts, parts)
        bad = ~(g > GRAM_FLOOR)
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            return total
        total += n_bad
        h[bad] = complex_normal(rng, (n_bad,) + h.shape[-2:])


def _frame_grid(stream: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Zero-pad a symbol stream into (n_slots, n_subcarriers) frames, with
    n_slots rounded up to whole Alamouti slot pairs."""
    n_slots = 2 * -(-stream.size // (2 * n_subcarriers))
    grid = np.zeros(n_slots * n_subcarriers, dtype=complex)
    grid[: stream.size] = stream
    return grid.reshape(n_slots, n_subcarriers)


def _detect_alamouti(cfg: SimConfig, frames: np.ndarray, snr_db: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Frames through STBC, OFDM, fading and linear detection; returns the
    per-slot symbol estimates and the weak-channel redraw count."""
    # under split_tx_power each antenna sends half the unit symbol energy
    amp = 1.0 / math.sqrt(2.0)
    gain_rng, noise_rng, redraw_rng = rng.spawn(3)
    noise = NoiseConfig(snr_db)

    # every (pair, subcarrier) block is independent from transmit to
    # detection, so the link runs a tile of whole slot pairs at a time and
    # only the frames and the estimates are chunk-sized
    n_slots, n_sc = frames.shape
    est = np.empty((n_slots // 2, 2, n_sc), dtype=complex)
    redraws = 0
    step = max(1, TILE_BLOCKS // n_sc)
    for p in range(0, n_slots // 2, step):
        x = stbc_encode(frames[2 * p : 2 * (p + step)])
        if cfg.split_tx_power:
            x *= amp
        x = ofdm_modulate(x, cfg.cp_len)
        x = ofdm_demodulate(x, cfg.cp_len)
        n_pairs = x.shape[1] // 2
        h = draw_channel(gain_rng, n_sc, n_blocks=n_pairs, n_rx=cfg.n_rx)
        redraws += _redraw_weak_blocks(h, redraw_rng)
        y = apply_channel(x, h, noise, noise_rng)
        if cfg.split_tx_power:
            h *= amp  # the detector sees the gains with the transmit scaling
        y = y.reshape(cfg.n_rx, n_pairs, 2, n_sc).transpose(1, 3, 0, 2)
        if cfg.detector == "realzf":
            out = realzf_detect(h, y)
        else:
            out = zf_detect(build_effective(h, y))
        est[p : p + n_pairs] = out.estimates.transpose(0, 2, 1)
    return est.reshape(n_slots, n_sc), redraws


def _run_chunk(cfg: SimConfig, modulation: str, snr_db: float, chunk: int) -> tuple[int, int, int]:
    """One deterministic batch of frames; returns (bits, errors, redraws)."""
    c = modem.get_constellation(modulation)
    rng = np.random.default_rng(_chunk_seed(cfg.seed, c.name, snr_db, chunk))

    source = Prbs(int(rng.integers(1, 1 << PRBS_DEGREE)))
    payload = source.generate(cfg.frames_per_chunk * cfg.frame_payload_bits)
    payload = payload.reshape(cfg.frames_per_chunk, cfg.frame_payload_bits)

    tx_bits = spread(payload) if cfg.spreading else payload
    coded = conv_encode(tx_bits) if cfg.fec else tx_bits
    coded_len = coded.shape[-1]
    pad = (-coded_len) % c.bits_per_symbol
    if pad:
        coded = np.concatenate(
            [coded, np.zeros(coded.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    symbols = modem.map_bits(coded, c)
    # past framing only the symbols' shape is needed
    symbols_shape, n_symbols = symbols.shape, symbols.size
    frames = _frame_grid(symbols.reshape(-1), cfg.n_subcarriers)
    del symbols
    est, redraws = _detect_alamouti(cfg, frames, effective_es_n0_db(cfg, c, snr_db), rng)
    del frames

    est_stream = est.reshape(-1)[:n_symbols].reshape(symbols_shape)
    rx_coded = modem.demap_symbols(est_stream, c)[..., :coded_len]
    rx_bits = viterbi_decode(rx_coded) if cfg.fec else rx_coded
    rx_payload = despread(rx_bits) if cfg.spreading else rx_bits

    errors = int(np.count_nonzero(rx_payload != payload))
    return payload.size, errors, redraws


def run_chain(cfg: SimConfig, modulation: str, snr_db: float) -> BerRecord:
    """Accumulate chunks until min_bits is reached and either the error
    target is met or the bit cap is hit.  Deterministic in (cfg, seed)."""
    name = modem.get_constellation(modulation).name
    bits = errors = redraws = 0
    chunk = 0
    while True:
        b, e, r = _run_chunk(cfg, name, snr_db, chunk)
        bits += b
        errors += e
        redraws += r
        chunk += 1
        if bits >= cfg.min_bits and (errors >= cfg.max_bit_errors or bits >= cfg.max_bits):
            break
    return BerRecord(name, float(snr_db), bits, errors, redraws)


def sweep(cfg: SimConfig) -> list[BerRecord]:
    """Every modulation at every grid SNR, in deterministic row order."""
    points = [(mod, snr) for mod in cfg.modulations for snr in cfg.snr_grid_db]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(lambda p: run_chain(cfg, p[0], p[1]), points))
