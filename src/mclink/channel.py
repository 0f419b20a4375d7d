"""Per-subcarrier Rayleigh block fading and AWGN injection.

Every subcarrier of every Alamouti block sees an independent n_rx x 2
matrix of unit-variance circularly-symmetric complex Gaussian gains, held
constant over the block's two time slots (quasi-static).  Noise is i.i.d.
across antennas, slots and subcarriers with variance sigma2 per complex
sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseConfig:
    """Noise level from an Es/N0 target, with unit received symbol energy."""

    snr_db: float

    @property
    def sigma2(self) -> float:
        return 10.0 ** (-self.snr_db / 10.0)


#: Alamouti blocks (subcarrier x slot pair) per tile of the channel mix and
#: of detection.  With 4 receive antennas a tile's gains, stacked channel and
#: ZF weights are 256-512 KiB each, so its working set stays near a 2 MiB
#: per-core L2 cache.  A tile holds whole slot pairs, at least one.
TILE_BLOCKS = 2048

#: float64 normals per draw; real and imaginary parts are drawn tile by tile
#: into one reused buffer this size (256 KiB), so no full-size draw exists.
_NORMAL_TILE_VALUES = 1 << 15


def _normal_tiles(rng: np.random.Generator, out: np.ndarray):
    """Yield (destination, draw) tiles covering ``out.real`` and then
    ``out.imag`` of a C-contiguous complex ``out`` in C order, each draw
    freshly filled with N(0, 1) values.

    The draws consume the stream exactly as one draw of ``(2,) + out.shape``
    would: all real parts first, then all imaginary parts.  The draw buffer
    is reused, so a consumer must be done with one tile before the next.
    """
    flat = out.reshape(-1)
    buf = np.empty(min(_NORMAL_TILE_VALUES, flat.size))
    for part in (flat.real, flat.imag):
        for start in range(0, part.size, _NORMAL_TILE_VALUES):
            draw = buf[: min(_NORMAL_TILE_VALUES, part.size - start)]
            rng.standard_normal(out=draw)
            yield part[start : start + draw.size], draw


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) samples: real and imaginary parts each with variance 1/2.

    Consumes the stream exactly as a draw of the real parts followed by a
    draw of the imaginary parts.
    """
    out = np.empty(shape, dtype=complex)
    for dst, draw in _normal_tiles(rng, out):
        np.multiply(draw, np.sqrt(0.5), out=dst)
    return out


def draw_channel(rng: np.random.Generator, n_subcarriers: int, n_blocks: int,
                 n_rx: int = 4) -> np.ndarray:
    """Independent fading per block and subcarrier: gains with shape
    (n_blocks, n_subcarriers, n_rx, 2), where h[..., j, i] links transmit
    antenna i to receive antenna j."""
    return complex_normal(rng, (n_blocks, n_subcarriers, n_rx, 2))


def apply_channel(
    x: np.ndarray,
    h: np.ndarray,
    noise: NoiseConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """y_j = h_j0 a_0 + h_j1 a_1 + n_j per subcarrier and slot.

    ``x`` holds the two antennas' frequency-domain frames with shape
    (2, n_slots, n_subcarriers), and ``h`` one gain matrix per slot pair,
    i.e. n_slots = 2 * n_blocks.  Returns the received frames, shape
    (n_rx, n_slots, n_subcarriers).
    """
    x = np.asarray(x)
    if h.ndim != 4 or h.shape[-1] != 2 or x.shape != (2, 2 * h.shape[0], h.shape[1]):
        raise ValueError(
            f"stream shape {x.shape} and gains {h.shape} are not "
            "(2, 2 * n_blocks, n_sc) and (n_blocks, n_sc, n_rx, 2)"
        )
    n_blocks, n_sc, n_rx, _ = h.shape
    xb = x.reshape(2, n_blocks, 2, n_sc)
    y = np.empty((n_rx,) + xb.shape[1:], dtype=complex)
    # a tile of whole slot pairs keeps its gains in cache across the antennas
    step = max(1, TILE_BLOCKS // n_sc)
    term = np.empty((min(step, n_blocks), 2, n_sc), dtype=complex)
    for p in range(0, n_blocks, step):
        tile = slice(p, p + step)
        x0, x1 = xb[0, tile], xb[1, tile]
        t = term[: x0.shape[0]]
        for j in range(n_rx):
            # gains into antenna j, (tile, 1, n_sc), broadcast over the two
            # slots of a block
            hj = h[tile, None, :, j, :]
            np.multiply(hj[..., 0], x0, out=y[j, tile])
            y[j, tile] += np.multiply(hj[..., 1], x1, out=t)
    y = y.reshape(n_rx, 2 * n_blocks, n_sc)
    if noise.sigma2 > 0.0:
        # CN(0, sigma2) noise, scaled in the same two steps as
        # complex_normal(rng, y.shape) * sqrt(sigma2), one tile at a time
        for dst, draw in _normal_tiles(rng, y):
            draw *= np.sqrt(0.5)
            draw *= np.sqrt(noise.sigma2)
            dst += draw
    return y
