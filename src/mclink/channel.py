"""Per-subcarrier Rayleigh block fading and AWGN injection.

Every subcarrier of every space-time block sees an independent n_rx x n_tx
matrix of unit-variance circularly-symmetric complex Gaussian gains, held
constant over the block's ``coherence`` time slots (quasi-static).  Noise is
i.i.d. across antennas, slots and subcarriers with variance sigma2 per
complex sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseConfig:
    """Noise level from an Es/N0 target, with unit received symbol energy."""

    snr_db: float

    @property
    def sigma2(self) -> float:
        if math.isinf(self.snr_db) and self.snr_db > 0:
            return 0.0
        return 10.0 ** (-self.snr_db / 10.0)


@dataclass
class ChannelRealization:
    """Gains with shape (..., n_subcarriers, n_rx, n_tx); h[..., j, i] links
    transmit antenna i to receive antenna j."""

    h: np.ndarray
    coherence: int = 2

    @property
    def n_rx(self) -> int:
        return self.h.shape[-2]

    @property
    def n_tx(self) -> int:
        return self.h.shape[-1]


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


def draw_channel(
    rng: np.random.Generator,
    n_subcarriers: int,
    n_blocks: int | None = None,
    n_rx: int = 4,
    n_tx: int = 2,
    coherence: int = 2,
) -> ChannelRealization:
    """Independent fading per subcarrier (and per block when batched)."""
    shape = (n_subcarriers, n_rx, n_tx)
    if n_blocks is not None:
        shape = (n_blocks,) + shape
    return ChannelRealization(complex_normal(rng, shape), coherence)


def apply_channel(
    x: np.ndarray,
    ch: ChannelRealization,
    noise: NoiseConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """y_j = sum_i h_ij a_i + n_j per subcarrier and slot.

    ``x`` holds per-antenna frequency-domain frames with shape
    (n_tx, n_slots, n_subcarriers); the realization must be batched with one
    gain matrix per coherence interval, i.e. n_slots = coherence * n_blocks.
    Returns the received frames, shape (n_rx, n_slots, n_subcarriers).
    """
    x = np.asarray(x)
    if x.ndim != 3 or ch.h.ndim != 4:
        raise ValueError("expected x (n_tx, n_slots, n_sc) and batched gains")
    n_tx, n_slots, n_sc = x.shape
    n_blocks = ch.h.shape[0]
    if n_tx != ch.n_tx or n_sc != ch.h.shape[1] or n_slots != n_blocks * ch.coherence:
        raise ValueError(
            f"stream shape {x.shape} does not match gains {ch.h.shape} "
            f"with coherence {ch.coherence}"
        )
    xb = x.reshape(n_tx, n_blocks, ch.coherence, n_sc)
    y = np.empty((ch.n_rx,) + xb.shape[1:], dtype=complex)
    term = np.empty_like(y[0]) if n_tx > 1 else None
    for j in range(ch.n_rx):
        # gains into antenna j, (n_blocks, 1, n_sc), broadcast over the
        # slots of a coherence interval
        h = ch.h[:, None, :, j, :]
        np.multiply(h[..., 0], xb[0], out=y[j])
        for i in range(1, n_tx):
            y[j] += np.multiply(h[..., i], xb[i], out=term)
    y = y.reshape(ch.n_rx, n_slots, n_sc)
    if noise.sigma2 > 0.0:
        # CN(0, sigma2) noise, scaled in the same two steps as
        # complex_normal(rng, y.shape) * sqrt(sigma2), one tile at a time
        for dst, draw in _normal_tiles(rng, y):
            draw *= np.sqrt(0.5)
            draw *= np.sqrt(noise.sigma2)
            dst += draw
    return y
