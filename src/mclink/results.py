"""Result records, gain metric, and persistence (CSV + JSON manifest).

CSV schemas are fixed:

* BER table:    ``modulation,snr_db,bits,errors,ber,ci95``
* gain report:  ``modulation,reference,at_snr_db,gain_db,flag``

Floats are written with ``repr`` so a rerun with the same seed is
byte-identical.  The manifest additionally stores wall time, which is the one
field allowed to differ between reruns.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from . import __version__
from .config import SimConfig


@dataclass(frozen=True)
class BerRecord:
    modulation: str
    snr_db: float
    bits: int
    errors: int
    redraws: int = 0

    @property
    def ber(self) -> float:
        return self.errors / self.bits if self.bits else 0.0

    @property
    def ci95(self) -> float:
        return 1.96 * math.sqrt(self.ber * (1.0 - self.ber) / self.bits) if self.bits else 0.0


@dataclass(frozen=True)
class GainRecord:
    modulation: str
    reference: str
    at_snr_db: float
    gain_db: float
    flag: str = ""


EXTRAPOLATION_FLAG = "extrapolation-required"


def _curve(records, modulation):
    pts = sorted(
        (r for r in records if r.modulation == modulation), key=lambda r: r.snr_db
    )
    if not pts:
        raise ValueError(f"no records for modulation {modulation!r}")
    return pts


def gain_vs_reference(
    records, target: str, reference: str, at_snr_db: float
) -> GainRecord:
    """SNR offset at equal BER: how many dB less the target needs to match
    the reference's BER at ``at_snr_db``.

    The target curve is interpolated linearly in (snr, log10 ber).  When the
    reference BER lies outside the target's achieved range the record is
    flagged rather than extrapolated.
    """
    ref_curve = _curve(records, reference)
    try:
        ref_ber = next(r.ber for r in ref_curve if r.snr_db == at_snr_db)
    except StopIteration:
        raise ValueError(f"{reference!r} has no record at {at_snr_db} dB") from None

    pts = [(r.snr_db, r.ber) for r in _curve(records, target) if r.ber > 0.0]
    if ref_ber <= 0.0 or not pts:
        return GainRecord(target, reference, at_snr_db, math.nan, EXTRAPOLATION_FLAG)
    for snr, ber in pts:
        if ber == ref_ber:
            return GainRecord(target, reference, at_snr_db, at_snr_db - snr)
    for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
        if (b0 - ref_ber) * (b1 - ref_ber) < 0.0:
            frac = (math.log10(ref_ber) - math.log10(b0)) / (
                math.log10(b1) - math.log10(b0)
            )
            snr_star = s0 + frac * (s1 - s0)
            return GainRecord(target, reference, at_snr_db, at_snr_db - snr_star)
    return GainRecord(target, reference, at_snr_db, math.nan, EXTRAPOLATION_FLAG)


BER_CSV_HEADER = "modulation,snr_db,bits,errors,ber,ci95"
GAIN_CSV_HEADER = "modulation,reference,at_snr_db,gain_db,flag"


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def write_ber_csv(records, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(BER_CSV_HEADER + "\n")
        for r in records:
            f.write(
                f"{r.modulation},{_fmt(r.snr_db)},{r.bits},{r.errors},"
                f"{_fmt(r.ber)},{_fmt(r.ci95)}\n"
            )


def write_gain_csv(gains, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(GAIN_CSV_HEADER + "\n")
        for g in gains:
            f.write(
                f"{g.modulation},{g.reference},{_fmt(g.at_snr_db)},"
                f"{_fmt(g.gain_db)},{g.flag}\n"
            )


def write_manifest(cfg: SimConfig, path, wall_time_s: float, diagnostics=None) -> None:
    payload = {
        "version": __version__,
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
        "wall_time_s": wall_time_s,
        "diagnostics": diagnostics or {},
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

