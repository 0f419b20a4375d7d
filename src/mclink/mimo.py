"""Alamouti space-time coding and linear detection.

Two detectors solve the same per-subcarrier least-squares problem:

* ``zf_detect`` takes the ``(h_eff, y_eff)`` pair from ``build_effective``:
  the two received slots (second slot conjugated) stacked into an effective
  tall complex system y_eff = H_eff a.  It applies the pseudo-inverse weights
  W = (H^H H)^-1 H^H.
* ``realzf_detect`` rewrites the raw slot equations over the reals as the
  ``(h_hat, y_hat)`` pair from ``real_decomposition``, stacking
  [a1_re, a2_re, a1_im, a2_im], and solves the real normal equations.

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
    out[0, 1::2] = -np.conj(a2)
    out[1, 0::2] = a2
    out[1, 1::2] = np.conj(a1)
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
    h1 = h[..., 0]
    h2 = h[..., 1]
    heff = np.empty(h.shape[:-2] + (2 * n_rx, 2), dtype=complex)
    heff[..., 0::2, 0] = h1
    heff[..., 0::2, 1] = h2
    heff[..., 1::2, 0] = np.conj(h2)
    heff[..., 1::2, 1] = -np.conj(h1)
    return heff


def build_effective(h: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(h_eff, y_eff)`` of shapes (..., 2*n_rx, 2) and (..., 2*n_rx), from
    gains (..., n_rx, 2) and received slots (..., n_rx, 2)."""
    if np.shape(h)[-1] != 2 or np.shape(y)[-1] != 2:
        raise ValueError("expected 2 transmit streams and 2 time slots")
    y = np.asarray(y)
    y_eff = np.empty(y.shape[:-2] + (2 * y.shape[-2],), dtype=complex)
    y_eff[..., 0::2] = y[..., 0]
    y_eff[..., 1::2] = np.conj(y[..., 1])
    return alamouti_effective(h), y_eff


def zf_weights(h_eff: np.ndarray) -> np.ndarray:
    """Left pseudo-inverse W = (H^H H)^-1 H^H for 2-column channels.

    Raises when any block's condition number exceeds ``COND_CAP``, tested on
    the Gram determinant and trace alone; the caller is expected to redraw
    such channels and account for them in diagnostics.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    if h_eff.shape[-1] != 2:
        raise ValueError("weights are defined for 2 transmit streams")
    # contiguous column copies keep every ufunc below on long inner loops
    h0 = h_eff[..., 0].copy()
    h1 = h_eff[..., 1].copy()
    # Gram entries; g00 and g11 are real and g10 = conj(g01)
    g00 = np.vecdot(h0, h0).real
    g11 = np.vecdot(h1, h1).real
    g01 = np.vecdot(h0, h1)
    det = g00 * g11 - (g01.real * g01.real + g01.imag * g01.imag)
    # tr = g00 + g11; <= also refuses the all-zero block, where det = tr = 0
    bad = det <= _DET_FLOOR * (g00 + g11) ** 2
    if np.any(bad):
        n_bad = int(np.count_nonzero(bad))
        raise SingularChannelError(
            f"{n_bad} channel block(s) exceed condition cap {COND_CAP:g}"
        )
    # (H^H H)^-1 = [[g11, -g01], [-g10, g00]] / det; row i of W is
    # conj(sum_k conj(inv[i, k]) h_k), and conj(inv[0, 1]) = inv[1, 0].
    # The column copies are scaled in place once they are no longer needed.
    a01 = (-g01 / det)[..., None]
    w = np.empty((2,) + h0.shape, dtype=complex)
    np.multiply(h0, (g11 / det)[..., None], out=w[0])
    np.multiply(h1, (g00 / det)[..., None], out=w[1])
    h0 *= a01
    h1 *= np.conj(a01)
    w[0] += h1
    w[1] += h0
    np.conjugate(w, out=w)
    return np.moveaxis(w, 0, -2)


def zf_detect(eff: tuple[np.ndarray, np.ndarray]) -> DetectorOutput:
    """Apply the pseudo-inverse weights to the stacked receive vector."""
    h_eff, y_eff = eff
    return DetectorOutput(np.einsum("...ij,...j->...i", zf_weights(h_eff), y_eff))


def real_decomposition(h: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real-valued stacking of the raw two-slot equations, y_hat = H_hat u:
    ``(h_hat, y_hat)`` of shapes (..., 4*n_rx, 4) and (..., 4*n_rx).

    Per receive antenna j the four rows are Re/Im of slot 1 and Re/Im of
    slot 2, acting on u = [a1_re, a2_re, a1_im, a2_im].  Conjugations in the
    Alamouti slot-2 transmission are linear over the reals, so no slot needs
    pre-conjugation here.
    """
    h = np.asarray(h)
    y = np.asarray(y)
    n_rx = h.shape[-2]
    h1r, h1i = h[..., 0].real, h[..., 0].imag
    h2r, h2i = h[..., 1].real, h[..., 1].imag

    hh = np.empty(h.shape[:-2] + (4 * n_rx, 4))
    hh[..., 0::4, 0], hh[..., 0::4, 1], hh[..., 0::4, 2], hh[..., 0::4, 3] = h1r, h2r, -h1i, -h2i
    hh[..., 1::4, 0], hh[..., 1::4, 1], hh[..., 1::4, 2], hh[..., 1::4, 3] = h1i, h2i, h1r, h2r
    hh[..., 2::4, 0], hh[..., 2::4, 1], hh[..., 2::4, 2], hh[..., 2::4, 3] = h2r, -h1r, h2i, -h1i
    hh[..., 3::4, 0], hh[..., 3::4, 1], hh[..., 3::4, 2], hh[..., 3::4, 3] = h2i, -h1i, -h2r, h1r

    yh = np.empty(y.shape[:-2] + (4 * n_rx,))
    yh[..., 0::4] = y[..., 0].real
    yh[..., 1::4] = y[..., 0].imag
    yh[..., 2::4] = y[..., 1].real
    yh[..., 3::4] = y[..., 1].imag
    return hh, yh


def realzf_detect(h: np.ndarray, y: np.ndarray) -> DetectorOutput:
    """Solve the real normal equations (H_hat^T H_hat) u = H_hat^T y_hat."""
    h_hat, y_hat = real_decomposition(h, y)
    a = np.einsum("...ji,...jk->...ik", h_hat, h_hat)
    b = np.einsum("...ji,...j->...i", h_hat, y_hat)
    try:
        u = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError("real-valued channel matrix is singular") from exc
    return DetectorOutput(u[..., 0:2] + 1j * u[..., 2:4])
