"""Per-subcarrier Rayleigh block fading and AWGN injection.

Every subcarrier of every Alamouti block sees an independent n_rx x 2
matrix of unit-variance circularly-symmetric complex Gaussian gains, held
constant over the block's two time slots (quasi-static).  Noise is i.i.d.
across antennas, slots and subcarriers with variance sigma2 per complex
sample.

Both draws are pair-major, as (n_blocks, n_rx, 2, n_subcarriers) with the 2
the transmit antenna (gains) or the slot (noise), each sample's real part
drawn before its imaginary part.  Drawing consecutive runs of slot pairs
therefore consumes a stream exactly as one draw over all of them, so a
caller may run the link a tile of slot pairs at a time and get the same
bytes for any tile.

Gains and received samples have the shape (n_blocks, n_subcarriers, n_rx, 2):
each block is y = H a + n, with the n_rx x 2 received slots beside the
n_rx x 2 gain matrix H, which is how both detectors read a block.  Both are
transposed views of the draw layout, so in memory the subcarriers stay
innermost and the mix and the detector's ufuncs run along them.
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


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) samples: real and imaginary parts each with variance 1/2.

    Each sample's real part is drawn and then its imaginary part, in C order,
    so draws of consecutive slices along the first axis concatenate to one
    draw of the whole.
    """
    out = np.empty(shape, dtype=complex)
    parts = out.reshape(-1).view(np.float64)
    rng.standard_normal(out=parts)
    parts *= np.sqrt(0.5)
    return out


def draw_channel(rng: np.random.Generator, n_subcarriers: int, n_blocks: int,
                 n_rx: int = 4) -> np.ndarray:
    """Independent fading per block and subcarrier: gains with shape
    (n_blocks, n_subcarriers, n_rx, 2), where h[..., j, i] links transmit
    antenna i to receive antenna j; a view of the draw layout."""
    return complex_normal(rng, (n_blocks, n_rx, 2, n_subcarriers)).transpose(0, 3, 1, 2)


def apply_channel(x: np.ndarray, h: np.ndarray, noise: NoiseConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """y[..., j, s] = h[..., j, 0] a_0[s] + h[..., j, 1] a_1[s] + n per block.

    ``x`` holds the two antennas' frequency-domain frames with shape
    (2, n_slots, n_subcarriers), and ``h`` one gain matrix per slot pair,
    i.e. n_slots = 2 * n_blocks.  Returns the received samples in h's shape,
    (n_blocks, n_subcarriers, n_rx, 2), the last axis being the slot, so
    each block's slots sit beside its gains as the detectors read them; a
    view of the noise's draw layout.
    """
    x = np.asarray(x)
    if h.ndim != 4 or h.shape[-1] != 2 or x.shape != (2, 2 * h.shape[0], h.shape[1]):
        raise ValueError(
            f"stream shape {x.shape} and gains {h.shape} are not "
            "(2, 2 * n_blocks, n_sc) and (n_blocks, n_sc, n_rx, 2)"
        )
    n_blocks, n_sc, n_rx, _ = h.shape
    # the mix in the noise's draw layout (n_blocks, n_rx, 2, n_sc), so every
    # product runs along the subcarriers: antenna i's gains (n_blocks, n_rx,
    # 1, n_sc) times its slots (n_blocks, 1, 2, n_sc)
    g = h.transpose(3, 0, 2, 1)[:, :, :, None, :]
    xb = x.reshape(2, n_blocks, 1, 2, n_sc)
    y = g[0] * xb[0]
    y += g[1] * xb[1]
    if noise.sigma2 > 0.0:
        # CN(0, sigma2) noise drawn pair-major, so calls on consecutive runs
        # of slot pairs draw what one call on all of them would
        n = complex_normal(rng, y.shape)
        n *= np.sqrt(noise.sigma2)
        y += n
    return y.transpose(0, 3, 1, 2)
