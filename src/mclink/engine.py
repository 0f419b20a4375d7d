"""Chain assembly, the Monte Carlo loop and the sweep; the engine writes no file.

Transmit chain per frame: message bits -> chip spreading -> rate-1/2
convolutional encoding -> constellation mapping -> serial/parallel framing ->
Alamouti pairing per subcarrier over two consecutive multicarrier symbols ->
IDFT + cyclic prefix per antenna.  The receiver mirrors it: prefix strip +
DFT, per-subcarrier linear detection, demapping, Viterbi decoding,
majority-vote despreading, payload comparison.

Fading is flat per subcarrier and quasi-static over each Alamouti pair at the
``N_RX`` = 4 receive antennas, so the channel acts on the frequency-domain
symbols directly; the multicarrier transform round-trips every sample to keep
the chain faithful and the energy bookkeeping exact.

Work is split into fixed-size chunks of whole FEC frames.  Each chunk seeds
its own SFC64 generator from (seed, modulation, SNR, chunk index), and the
stop rule, which lives in ``_stop_rule`` alone, consumes chunks strictly in
index order and pulls none past the stop, which makes every output
independent of worker count and scheduling.  A chunk's stream gives one raw
word for the source seed, then spawns three children: the fading gains, the
noise and the weak-block redraws.  Gains and noise are drawn pair-major, both
as (slot pair, receive antenna, 2, subcarrier), one raw word per sample in C
order (see ``channel``), so the link runs one tile of slot pairs at a time,
from mapping to demapping, and its bytes do not depend on the tile size.
Its random numbers come from numpy only through ``SeedSequence``, ``spawn``
and SFC64's raw words, which NEP 19 keeps stable across releases.  A chunk
holds its bits, coded and hard-decided, and no complex array larger than one
tile, which runs in complex64 from the draws through ZF detection; the
demapper, the realzf cross-check and the singular-block recheck stay in float64.
"""
from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

import numpy as np

from . import modem
from .bits import PRBS_DEGREE, Prbs, conv_encode, despread, spread, viterbi_decode
from .channel import NoiseConfig, apply_channel, complex_normal, draw_channel
from .config import SimConfig
from .mimo import build_effective, realzf_detect, stbc_encode, zf_detect
from .ofdm import ofdm_demodulate, ofdm_modulate
from .results import BerRecord, compute_gains, emit_results  # noqa: F401 - re-exported for tests

#: Blocks whose total channel energy falls below this are redrawn, once: a
#: drawn gain's |z|^2 is at least 1.16e-10, so a drawn block carries at least
#: 2 N_RX 1.16e-10, 233x this at one antenna; only injected blocks fall below.
GRAM_FLOOR = 1e-12

#: Bit errors that stop a point once it has ``min_bits``: the fixed error target.
MAX_BIT_ERRORS = 100

#: The link's complex dtype: float32 rounding sits orders of magnitude below
#: the noise, and an Alamouti Gram matrix has condition number 1.
LINK_DTYPE = np.complex64

#: Receive antennas: the paper's 2x4 link.  Tests set 1 and 2 to compare.
N_RX = 4

#: Alamouti blocks (subcarrier x slot pair) per tile of the link.  With 4
#: receive antennas and 8-byte complex64 samples a tile's gains, stacked
#: channel and ZF weights are 128-256 KiB each, so its working set stays
#: within a 2 MiB per-core L2 cache; each of their ufuncs runs along the
#: tile's blocks, a few hundred contiguous subcarriers per slot pair.  A tile
#: holds whole slot pairs, at least one.
TILE_BLOCKS = 2048

# glibc gives the heap's free top back to the kernel above twice the largest
# mmapped block freed so far (mallopt(3)).  A tile's arrays are at most
# 0.25 MiB but add up to a few MiB, so each tile would fault its memory in
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
    # per-block channel energy, the sum of |h|^2 over its N_RX x 2 gains
    energy = (np.square(h.real) + np.square(h.imag)).sum(axis=(-2, -1))
    bad = ~(energy > GRAM_FLOOR)
    n_bad = int(np.count_nonzero(bad))
    if n_bad:  # one pass: a drawn block clears GRAM_FLOOR, so no redraw is weak
        h[bad] = complex_normal(rng, (n_bad,) + h.shape[-2:], dtype=h.dtype)
    return n_bad


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
        frames = np.zeros((-(-len(tile) // (2 * n_sc)) * 2, n_sc), dtype=LINK_DTYPE)
        frames.reshape(-1)[: len(tile)] = modem.map_bits(tile.reshape(-1), c)
        x = stbc_encode(frames)
        x = ofdm_modulate(x, cfg.cp_len)
        x = ofdm_demodulate(x, cfg.cp_len)
        h = draw_channel(gain_rng, n_sc, n_blocks=x.shape[1] // 2, n_rx=N_RX, dtype=LINK_DTYPE)
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

    # the source seed is one raw word mapped into [1, 2^23 - 1]
    source = Prbs(1 + rng.bit_generator.random_raw() % ((1 << PRBS_DEGREE) - 1))
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


def _stop_rule(cfg: SimConfig, name: str, snr_db: float, chunks) -> BerRecord:
    """The one stop rule: consume (bits, errors, redraws) in chunk order until
    min_bits is reached and either the error target is met or the bit cap is
    hit.  Pulls no item past the stop; a stream that ends first raises."""
    bits = errors = redraws = 0
    for b, e, r in chunks:
        bits += b
        errors += e
        redraws += r
        if bits >= cfg.min_bits and (errors >= MAX_BIT_ERRORS or bits >= cfg.max_bits):
            return BerRecord(name, float(snr_db), bits, errors, redraws)
    raise RuntimeError(f"{name} at {snr_db} dB: the chunk stream ended before the point stopped")


def run_chain(cfg: SimConfig, modulation: str, snr_db: float, *, stop=None) -> BerRecord:
    """One point, deterministic in (cfg, seed): its chunks fed lazily to the
    stop rule, until a set ``stop`` event ends the stream before its next chunk."""
    name = modem.get_constellation(modulation).name
    ks = itertools.takewhile(lambda _: stop is None or not stop.is_set(), itertools.count())
    return _stop_rule(cfg, name, snr_db, (_run_chunk(cfg, name, snr_db, k) for k in ks))


def sweep(cfg: SimConfig) -> list[BerRecord]:
    """Every grid point in row order on min(workers, usable CPUs) threads; a failure raises at once."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    stop = threading.Event()
    with ThreadPoolExecutor(min(cfg.workers, cpus)) as pool:
        try:
            points = [pool.submit(run_chain, cfg, mod, snr, stop=stop)
                      for mod in cfg.modulations for snr in cfg.snr_grid_db]
            done, _ = wait(points, return_when=FIRST_EXCEPTION)  # all of them unless one failed
            return [p.result() for p in points if p in done]
        finally:  # running points end before their next chunk; queued ones never start
            stop.set()
            pool.shutdown(wait=False, cancel_futures=True)
