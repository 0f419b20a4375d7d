"""Multicarrier modulation: unitary (I)DFT framing with cyclic prefix.

The subcarrier count is the width of the frames passed in, so the only
framing parameter is the prefix length ``cp_len``.  The unitary scaling keeps
symbol energy identical on both sides of the transform, so SNR bookkeeping is
the same in time and frequency domain.  The transform must handle
non-power-of-two sizes (the full profile uses 6400 subcarriers); numpy's
pocketfft is mixed-radix.
"""
from __future__ import annotations

import numpy as np

from .errors import FramingError


def _check_framing(n: int, cp_len: int) -> None:
    """A symbol is n >= 1 subcarriers behind a prefix of 0 <= cp_len <= n."""
    if n < 1 or not 0 <= cp_len <= n:
        raise FramingError(f"{n} subcarriers with cyclic prefix {cp_len}: need n >= 1, 0 <= CP <= n")


def ofdm_modulate(freq_frames: np.ndarray, cp_len: int) -> np.ndarray:
    """Per frame: unitary IDFT, then prepend the last cp_len samples."""
    frames = np.asarray(freq_frames)
    n = frames.shape[-1]
    _check_framing(n, cp_len)
    # the IDFT is written behind its prefix, then the prefix copied in front
    out = np.empty(frames.shape[:-1] + (n + cp_len,), dtype=np.result_type(frames, np.complex64))
    np.fft.ifft(frames, axis=-1, norm="ortho", out=out[..., cp_len:])
    out[..., :cp_len] = out[..., n:]
    return out


def ofdm_demodulate(time_symbols: np.ndarray, cp_len: int) -> np.ndarray:
    """Strip the prefix and apply the unitary DFT; inverse of ofdm_modulate."""
    sym = np.asarray(time_symbols)
    _check_framing(sym.shape[-1] - cp_len, cp_len)
    return np.fft.fft(sym[..., cp_len:], axis=-1, norm="ortho")
