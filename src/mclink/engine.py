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

Work is split into fixed-size chunks of whole FEC frames.  Each chunk seeds
its own SFC64 generator from (seed, modulation, SNR, chunk index), and the
stop rule consumes chunks strictly in index order, which makes every output
independent of worker count and scheduling.  A chunk's stream draws the
source seed, then spawns three children: the fading gains, the noise and the
weak-block redraws.  Gains and noise are drawn pair-major, both as (slot
pair, receive antenna, 2, subcarrier), in polar form one slot pair at a time
(see ``channel``), so the link runs one tile of slot pairs at a time, from
mapping to demapping, and its bytes do not depend on the tile size.  A chunk
holds its bits, coded and hard-decided, and no complex array larger than one
tile.
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

#: Bit errors that stop a point once it has ``min_bits``: the fixed error target.
MAX_BIT_ERRORS = 100

#: Alamouti blocks (subcarrier x slot pair) per tile of the link.  With 4
#: receive antennas a tile's gains, stacked channel and ZF weights are
#: 256-512 KiB each, so its working set stays near a 2 MiB per-core L2 cache;
#: each of their ufuncs runs along the tile's blocks, a few hundred
#: contiguous subcarriers per slot pair.  A tile holds whole slot pairs, at
#: least one.
TILE_BLOCKS = 2048

# glibc gives the heap's free top back to the kernel above twice the largest
# mmapped block freed so far (mallopt(3)).  A tile's arrays are at most
# 0.5 MiB but add up to a few MiB, so each tile would fault its memory in
# again: 16,000 minor faults, a fifth of a fast-qpsk chunk's time.  One freed
# 8 MiB block keeps it mapped; other allocators see one allocation.
np.empty(8 << 20, dtype=np.uint8)


def _chunk_rng(seed: int, modulation: str, snr_db: float, chunk: int) -> np.random.Generator:
    """The chunk's generator: SFC64 seeded from (seed, modulation, SNR, chunk)."""
    name_word = int.from_bytes(modulation.encode("ascii"), "big")
    # + 0.0 maps -0.0 to 0.0, so both name the same grid point and stream
    snr_word = int(np.float64(snr_db + 0.0).view(np.uint64))
    seq = np.random.SeedSequence([seed, name_word, snr_word, chunk])
    return np.random.Generator(np.random.SFC64(seq))


def effective_es_n0_db(c: modem.Constellation, snr_db: float) -> float:
    """Symbol-level Es/N0 for a grid SNR read as energy per coded payload
    bit: snr + 10*log10(bits per symbol * 1/2, the code rate)."""
    return snr_db + 10.0 * math.log10(c.bits_per_symbol * 0.5)


def _redraw_weak_blocks(h: np.ndarray, rng: np.random.Generator) -> int:
    """Replace blocks of ``h`` with numerically zero energy in place; returns
    the redraw count."""
    total = 0
    while True:
        # per-block channel energy, the sum of |h|^2 over its n_rx x 2 gains
        energy = (np.square(h.real) + np.square(h.imag)).sum(axis=(-2, -1))
        bad = ~(energy > GRAM_FLOOR)
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            return total
        total += n_bad
        h[bad] = complex_normal(rng, (n_bad,) + h.shape[-2:])


def _detect_alamouti(cfg: SimConfig, c: modem.Constellation, groups: np.ndarray,
                     es_n0_db: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Coded bit groups, one row per symbol, through mapping, STBC, OFDM,
    fading, linear detection and demapping; returns the hard bits in the
    groups' shape and the weak-channel redraw count."""
    gain_rng, noise_rng, redraw_rng = rng.spawn(3)

    # every (pair, subcarrier) block is independent from transmit to
    # detection, so the link runs a tile of whole slot pairs at a time, from
    # bits to bits; the symbol stream fills (slot, subcarrier) frames row by
    # row, and the last tile is zero-padded to whole slot pairs
    n_sc = cfg.n_subcarriers
    hard = np.empty_like(groups)
    redraws = 0
    step = 2 * n_sc * max(1, TILE_BLOCKS // n_sc)
    for start in range(0, len(groups), step):
        tile = groups[start : start + step]
        frames = np.zeros((-(-len(tile) // (2 * n_sc)) * 2, n_sc), dtype=complex)
        frames.reshape(-1)[: len(tile)] = modem.map_bits(tile.reshape(-1), c)
        x = stbc_encode(frames)
        x = ofdm_modulate(x, cfg.cp_len)
        x = ofdm_demodulate(x, cfg.cp_len)
        h = draw_channel(gain_rng, n_sc, n_blocks=x.shape[1] // 2, n_rx=cfg.n_rx)
        redraws += _redraw_weak_blocks(h, redraw_rng)
        y = apply_channel(x, h, NoiseConfig(es_n0_db), noise_rng)
        if cfg.detector == "realzf":
            out = realzf_detect(h, y)
        else:
            out = zf_detect(build_effective(h, y))
        est = out.estimates.transpose(0, 2, 1).reshape(-1)[: len(tile)]
        hard[start : start + len(tile)] = modem.demap_symbols(est, c).reshape(tile.shape)
    return hard, redraws


def _run_chunk(cfg: SimConfig, modulation: str, snr_db: float, chunk: int) -> tuple[int, int, int]:
    """One deterministic batch of frames through the one chain: spread,
    encode, the link, Viterbi, despread; returns (bits, errors, redraws)."""
    c = modem.get_constellation(modulation)
    rng = _chunk_rng(cfg.seed, c.name, snr_db, chunk)

    source = Prbs(int(rng.integers(1, 1 << PRBS_DEGREE)))
    payload = source.generate(cfg.chunk_payload_bits)
    payload = payload.reshape(cfg.frames_per_chunk, cfg.frame_payload_bits)

    coded = conv_encode(spread(payload))
    coded_len = coded.shape[-1]
    pad = (-coded_len) % c.bits_per_symbol
    if pad:
        coded = np.concatenate(
            [coded, np.zeros(coded.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    groups = coded.reshape(-1, c.bits_per_symbol)
    hard, redraws = _detect_alamouti(cfg, c, groups, effective_es_n0_db(c, snr_db), rng)

    rx_coded = hard.reshape(coded.shape)[..., :coded_len]
    rx_payload = despread(viterbi_decode(rx_coded))

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
        if bits >= cfg.min_bits and (errors >= MAX_BIT_ERRORS or bits >= cfg.max_bits):
            break
    return BerRecord(name, float(snr_db), bits, errors, redraws)


def sweep(cfg: SimConfig) -> list[BerRecord]:
    """Every modulation at every grid SNR, in deterministic row order."""
    points = [(mod, snr) for mod in cfg.modulations for snr in cfg.snr_grid_db]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(lambda p: run_chain(cfg, p[0], p[1]), points))
