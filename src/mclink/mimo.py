"""Alamouti space-time coding and linear detection.

Two detectors solve the same per-subcarrier least-squares problem:

* ``zf_detect`` takes the ``(h_eff, y_eff)`` pair from ``build_effective``:
  the two received slots (second slot conjugated) stacked into an effective
  tall complex system y_eff = H_eff a.  It applies the pseudo-inverse weights
  W = (H^H H)^-1 H^H.
* ``realzf_detect`` rewrites the raw slot equations over the reals as the
  ``(h_hat, y_hat)`` pair from ``real_decomposition``, stacking
  [a1_re, a2_re, a1_im, a2_im], and solves the real normal equations; each
  row of H_hat is a signed permutation of the gains' parts, from a sign table.

They must agree to numerical precision; keeping the constructions independent
makes that agreement a meaningful cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FramingError, SingularChannelError

#: Largest channel condition number ``zf_weights`` inverts.  An Alamouti
#: block with non-zero energy has condition number 1; the engine redraws
#: zero-energy blocks before detection.
COND_CAP = 1e8

# The Gram eigenvalues lo <= hi have lo * hi = det and lo + hi = tr, so with
# r = hi / lo = cond(H)**2, det / tr**2 = r / (1 + r)**2, which falls as r
# grows: cond(H) > C exactly when det / tr**2 < C**2 / (1 + C**2)**2.
_DET_FLOOR = COND_CAP**2 / (1.0 + COND_CAP**2) ** 2

#: Blocks with det <= this * tr**2 (cond(H) above about 1e6) recompute det
#: exactly before the cap is tested.  An Alamouti block has det = tr**2 / 4.
_DET_RECHECK = 1e-12


def stbc_encode(frames: np.ndarray) -> np.ndarray:
    """Alamouti arrangement over slot pairs along the leading axis.

    For each symbol pair (a1, a2): antenna 1 sends [a1, -conj(a2)] and
    antenna 2 sends [a2, conj(a1)].  Output shape is (2,) + frames.shape.
    Transmit power weighting is left to the caller.
    """
    frames = np.asarray(frames)
    if frames.shape[0] % 2:
        raise FramingError(f"{frames.shape[0]} slots do not form whole Alamouti pairs")
    a1 = frames[0::2]
    a2 = frames[1::2]
    out = np.empty((2,) + frames.shape, dtype=complex)
    out[0, 0::2] = a1
    np.conjugate(a2, out=out[0, 1::2])
    np.negative(out[0, 1::2], out=out[0, 1::2])
    out[1, 0::2] = a2
    np.conjugate(a1, out=out[1, 1::2])
    return out


@dataclass
class DetectorOutput:
    estimates: np.ndarray       # (..., 2) complex symbol estimates per block


def alamouti_effective(h: np.ndarray) -> np.ndarray:
    """Stack per-antenna rows [h1j, h2j] and [conj(h2j), -conj(h1j)].

    ``h`` has shape (..., n_rx, 2).  The result's Gram matrix is
    (sum |h|^2) * I, the Alamouti orthogonality property.
    """
    h = np.asarray(h)
    n_rx = h.shape[-2]
    # a view of a (column, row, ...) buffer: each copy runs along the blocks
    h1, h2 = h.transpose((-1, -2) + tuple(range(h.ndim - 2)))
    heff = np.empty((2, 2 * n_rx) + h.shape[:-2], dtype=complex)
    heff[0, 0::2] = h1
    heff[1, 0::2] = h2
    np.conjugate(h2, out=heff[0, 1::2])
    np.conjugate(h1, out=heff[1, 1::2])
    np.negative(heff[1, 1::2], out=heff[1, 1::2])
    return heff.transpose(tuple(range(2, heff.ndim)) + (1, 0))


def build_effective(h: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(h_eff, y_eff)`` of shapes (..., 2*n_rx, 2) and (..., 2*n_rx), from
    gains (..., n_rx, 2) and received slots (..., n_rx, 2)."""
    if np.shape(h)[-1] != 2 or np.shape(y)[-1] != 2:
        raise ValueError("expected 2 transmit streams and 2 time slots")
    y = np.asarray(y)
    y1, y2 = y.transpose((-1, -2) + tuple(range(y.ndim - 2)))
    y_eff = np.empty((2 * y.shape[-2],) + y.shape[:-2], dtype=complex)
    y_eff[0::2] = y1
    np.conjugate(y2, out=y_eff[1::2])
    return alamouti_effective(h), y_eff.transpose(tuple(range(1, y_eff.ndim)) + (0,))


def zf_weights(h_eff: np.ndarray) -> np.ndarray:
    """Left pseudo-inverse W = (H^H H)^-1 H^H for 2-column channels.

    Raises when any block's condition number exceeds ``COND_CAP``, tested on
    the Gram determinant and trace alone; the caller is expected to redraw
    such channels and account for them in diagnostics.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    if h_eff.shape[-1] != 2:
        raise ValueError("weights are defined for 2 transmit streams")
    # the columns with the row axis first, (2*n_rx, ...): every ufunc below
    # runs along the blocks, and the sums over rows add whole block arrays
    h0, h1 = h_eff.transpose((-1, -2) + tuple(range(h_eff.ndim - 2)))
    # Gram entries; g00 and g11 are real and g10 = conj(g01)
    g00 = np.square(h0.real).sum(0) + np.square(h0.imag).sum(0)
    g11 = np.square(h1.real).sum(0) + np.square(h1.imag).sum(0)
    g01 = (np.conj(h0) * h1).sum(0)
    det = np.asarray(g00 * g11 - (g01.real * g01.real + g01.imag * g01.imag))
    tr2 = (g00 + g11) ** 2
    # det cancels to a few ulp of tr**2, as large as the cap's floor, so
    # near-singular blocks take det exactly by Lagrange's identity,
    # sum_{i<j} |h0_i h1_j - h0_j h1_i|**2, each minor exact to an ulp of |h|**2
    near = det <= _DET_RECHECK * tr2
    if near.any():
        a, b = h0[:, near], h1[:, near]
        minors = a[:, None] * b - a * b[:, None]
        det[near] = (minors.real**2 + minors.imag**2).sum(axis=(0, 1)) / 2
    # <= also refuses the all-zero block, where det = tr = 0
    bad = det <= _DET_FLOOR * tr2
    if bad.any():
        n_bad = int(np.count_nonzero(bad))
        raise SingularChannelError(
            f"{n_bad} channel block(s) exceed condition cap {COND_CAP:g}"
        )
    # (H^H H)^-1 = [[g11, -g01], [-g10, g00]] / det; row i of W is
    # conj(sum_k conj(inv[i, k]) h_k), and conj(inv[0, 1]) = inv[1, 0].
    # W is a view of a (row, column, ...) buffer.
    a01 = -g01 / det
    w = np.empty((2,) + h0.shape, dtype=complex)
    np.multiply(h0, g11 / det, out=w[0])
    np.multiply(h1, g00 / det, out=w[1])
    w[0] += h1 * np.conj(a01)
    w[1] += h0 * a01
    np.conjugate(w, out=w)
    return w.transpose(tuple(range(2, w.ndim)) + (0, 1))


def zf_detect(eff: tuple[np.ndarray, np.ndarray]) -> DetectorOutput:
    """Apply the pseudo-inverse weights to the stacked receive vector."""
    h_eff, y_eff = eff
    # weights (2, 2*n_rx, ...) times the receive vector (2*n_rx, ...)
    w = zf_weights(h_eff)
    blocks = tuple(range(w.ndim - 2))
    y = np.asarray(y_eff).transpose((-1,) + blocks)
    est = (w.transpose((-2, -1) + blocks) * y).sum(axis=1)
    return DetectorOutput(est.transpose(tuple(range(1, est.ndim)) + (0,)))


#: Row r of an antenna's real block is ``_SIGN[r] * parts[_IDX[r]]``, over
#: the gains' parts [h1_re, h1_im, h2_re, h2_im].
_IDX = np.array([[0, 2, 1, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 1, 2, 0]])
_SIGN = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0],
                  [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])


def real_decomposition(h: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real-valued stacking of the raw two-slot equations, y_hat = H_hat u:
    ``(h_hat, y_hat)`` of shapes (..., 4*n_rx, 4) and (..., 4*n_rx).

    Per receive antenna j the four rows are Re/Im of slot 1 and Re/Im of
    slot 2, acting on u = [a1_re, a2_re, a1_im, a2_im]; y's own parts are in
    that order.  Conjugations in the Alamouti slot-2 transmission are linear
    over the reals, so no slot needs pre-conjugation here.
    """
    parts = np.ascontiguousarray(h, dtype=complex).view(float)
    y = np.ascontiguousarray(y, dtype=complex).view(float)
    n_rx = parts.shape[-2]
    h_hat = (parts[..., _IDX] * _SIGN).reshape(parts.shape[:-2] + (4 * n_rx, 4))
    return h_hat, y.reshape(y.shape[:-2] + (4 * n_rx,))


def realzf_detect(h: np.ndarray, y: np.ndarray) -> DetectorOutput:
    """Solve the real normal equations (H_hat^T H_hat) u = H_hat^T y_hat."""
    h_hat, y_hat = real_decomposition(h, y)
    h_t = h_hat.swapaxes(-1, -2)
    try:
        u = np.linalg.solve(h_t @ h_hat, h_t @ y_hat[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError("real-valued channel matrix is singular") from exc
    return DetectorOutput(u[..., 0:2] + 1j * u[..., 2:4])
