"""Constellation mapping and hard-decision demapping.

Six schemes: QPSK, 8-PSK, two-ring 8-QAM, square 16/64-QAM and cross 32-QAM,
all normalized to unit average symbol energy.  Labels are Gray coded wherever
the geometry allows; the two-ring and cross constellations carry best-effort
labelings (perfect Gray codes do not exist on them).

Decisions are made in an unnormalized "grid" domain where QAM points sit on
exact odd-integer coordinates, so nearest-point ties are exact in floating
point and resolve to the numerically smaller label.  The square schemes
(QPSK, 16- and 64-QAM) are sliced per Gray PAM axis by sign tests on folded
coordinates; a strict ``x < 0`` sends each tie to the smaller axis label, and
with I as the high bits that is the smaller combined label.  The other three
scan the point table in label order, which breaks ties the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FramingError


@dataclass(frozen=True)
class Constellation:
    name: str
    bits_per_symbol: int
    grid: np.ndarray   # unnormalized decision points, indexed by label
    scale: float       # points = grid / scale
    pam_bits: int      # bits per axis when grid == _grid_square(n), else 0

    @property
    def order(self) -> int:
        return 1 << self.bits_per_symbol

    @property
    def points(self) -> np.ndarray:
        return self.grid / self.scale


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _pam_axis(n_bits: int) -> np.ndarray:
    """Gray-labeled amplitude levels: label 0..0 maps to the most positive."""
    levels = 1 << n_bits
    axis = np.zeros(levels)
    for rank in range(levels):
        axis[_gray(rank)] = (levels - 1) - 2 * rank
    return axis


def _grid_square(n_bits: int) -> np.ndarray:
    """Square QAM grid: label ``(i << n_bits) | q`` is ``axis[i] + 1j * axis[q]``."""
    axis = _pam_axis(n_bits)
    return (axis[:, None] + 1j * axis[None, :]).reshape(-1)


def _grid_psk(n_bits: int) -> np.ndarray:
    m = 1 << n_bits
    grid = np.empty(m, dtype=complex)
    for rank in range(m):
        grid[_gray(rank)] = np.exp(2j * np.pi * rank / m)
    return grid


# Two-ring 8-QAM: inner square at (+-1 +-1j), outer points at (+-3, +-3j).
# The inner square alone forms the minimum-distance pairs (d = 2/sqrt(5.5),
# larger than 8-PSK's), so the dominant errors are Gray; half of the
# second-tier inner/outer pairs are Gray as well.  A rectangular 2x4 grid was
# tried first but its higher neighbor count makes it lose to 8-PSK at low
# SNR, inverting the required modulation ordering.
def _grid_tworing8() -> np.ndarray:
    grid = np.empty(8, dtype=complex)
    inner = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)     # at 45 + 90k degrees
    outer = (3 + 0j, 3j, -3 + 0j, -3j)             # at 90k degrees
    for rank in range(4):
        grid[_gray(rank)] = inner[rank]
        grid[0b100 | _gray(rank)] = outer[rank]
    return grid


# Cross 32-QAM: 6x6 odd-integer grid minus the (+-5, +-5) corners.  Two Gray
# quadrant bits pick the signs; three bits walk a Gray path through the eight
# first-quadrant points.  Mirrored quadrants keep every boundary-crossing
# neighbor pair at one differing bit; two chord pairs per quadrant remain
# non-Gray, which is the unavoidable defect of the cross shape.
_CROSS_PATH = ((1, 1), (1, 3), (1, 5), (3, 5), (3, 3), (3, 1), (5, 1), (5, 3))


def _grid_cross32() -> np.ndarray:
    grid = np.empty(32, dtype=complex)
    for quad in range(4):
        sx = -1 if quad & 1 else 1
        sy = -1 if quad & 2 else 1
        for rank, (x, y) in enumerate(_CROSS_PATH):
            grid[(quad << 3) | _gray(rank)] = sx * x + 1j * sy * y
    return grid


def _build(name: str, n_bits: int, grid: np.ndarray, pam_bits: int = 0) -> Constellation:
    scale = float(np.sqrt(np.mean(np.abs(grid) ** 2)))
    return Constellation(name, n_bits, grid, scale, pam_bits)


def _build_square(name: str, pam_bits: int) -> Constellation:
    return _build(name, 2 * pam_bits, _grid_square(pam_bits), pam_bits)


CONSTELLATIONS: dict[str, Constellation] = {
    "qpsk": _build_square("qpsk", 1),
    "8psk": _build("8psk", 3, _grid_psk(3)),
    "8qam": _build("8qam", 3, _grid_tworing8()),
    "16qam": _build_square("16qam", 2),
    "32qam": _build("32qam", 5, _grid_cross32()),
    "64qam": _build_square("64qam", 3),
}

SCHEMES = tuple(CONSTELLATIONS)


def get_constellation(name: str) -> Constellation:
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in CONSTELLATIONS:
        raise KeyError(f"unknown modulation {name!r}; known: {', '.join(SCHEMES)}")
    return CONSTELLATIONS[key]


def map_bits(data: np.ndarray, c: Constellation) -> np.ndarray:
    """Group log2(M) bits (MSB first) into one unit-energy complex symbol."""
    data = np.asarray(data, dtype=np.uint8)
    b = c.bits_per_symbol
    if data.shape[-1] % b:
        raise FramingError(
            f"{data.shape[-1]} bits do not fill whole {c.name} symbols of {b} bits"
        )
    groups = data.reshape(data.shape[:-1] + (data.shape[-1] // b, b))
    labels = groups[..., 0].copy()  # at most 6 bits: uint8 labels
    for k in range(1, b):
        labels <<= 1
        labels |= groups[..., k]
    return c.points.take(labels)


def _bits_shape(shape: tuple[int, ...], c: Constellation) -> tuple[int, ...]:
    """The bits' shape for symbols of ``shape``: the last axis times the bits
    per symbol, and one symbol's bits for a 0-d symbol."""
    return shape[:-1] + (math.prod(shape[-1:]) * c.bits_per_symbol,)


def demap_symbols(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Hard decisions: nearest point in Euclidean distance, MSB-first bits.

    Square schemes are sliced per axis: bit 0 of an n-bit Gray PAM axis is
    ``x < 0``, and bit k is ``x < 0`` after ``x <- |x| - 2**(n-k)``.  Every
    fold is exact on the grid, so this is the nearest level.  I fills the
    first n bits of a symbol and Q the last n.
    """
    n = c.pam_bits
    if not n:
        return _demap_nearest(symbols, c)
    shape = np.shape(symbols)
    # I and Q side by side, (N, 2): bit k of both axes fills columns k and n + k
    x = np.ascontiguousarray(symbols, dtype=complex).reshape(-1, 1).view(float) * c.scale
    bits = np.empty((x.shape[0], 2 * n), dtype=np.uint8)
    np.less(x, 0, out=bits[:, 0::n])
    for k in range(1, n):
        np.abs(x, out=x)
        x -= 1 << (n - k)
        np.less(x, 0, out=bits[:, k::n])
    return bits.reshape(_bits_shape(shape, c))


#: Distances computed per table-demap chunk: two work arrays of this many
#: float64 values (256 KiB each) stay inside a per-core L2 cache.
_DEMAP_CHUNK_VALUES = 1 << 15


def _demap_nearest(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Table search: the label of the nearest grid point, lowest on a tie.

    Distances are taken into reused work arrays of ``_DEMAP_CHUNK_VALUES``
    values, a chunk of symbols at a time: 4,096 symbols for 8-PSK and 8-QAM,
    1,024 for 32-QAM.
    """
    chunk = _DEMAP_CHUNK_VALUES // c.order
    flat = np.asarray(symbols).reshape(-1) * c.scale
    labels = np.empty(flat.size, dtype=np.intp)
    work_re = np.empty((min(chunk, flat.size), c.order))
    work_im = np.empty_like(work_re)
    for start in range(0, flat.size, chunk):
        z = flat[start : start + chunk]
        d = work_re[: z.size]
        e = work_im[: z.size]
        np.subtract(z.real[:, None], c.grid.real, out=d)
        np.subtract(z.imag[:, None], c.grid.imag, out=e)
        np.multiply(d, d, out=d)
        np.multiply(e, e, out=e)
        d += e
        np.argmin(d, axis=1, out=labels[start : start + z.size])
    b = c.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1, dtype=np.uint8)
    bits = (labels.astype(np.uint8)[:, None] >> shifts) & 1
    return bits.reshape(_bits_shape(np.shape(symbols), c))
