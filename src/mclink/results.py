"""Result records, gain metric and gains, and every output file.

CSV schemas are fixed:

* BER table:    ``modulation,snr_db,bits,errors,ber,ci95``
* gain report:  ``modulation,reference,at_snr_db,gain_db,flag``

Floats are written with ``repr`` so a rerun with the same seed is
byte-identical.  The manifest additionally stores wall time, which is the one
field allowed to differ between reruns, and spells a non-finite config float
as ``ber.csv`` does (``"inf"``), so it stays strict JSON.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

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


def compute_gains(records: list[BerRecord], cfg: SimConfig) -> list[GainRecord]:
    """Gain of each swept modulation against the configured reference."""
    ref, at = cfg.gain_reference, cfg.gain_at_snr_db
    if not any(r.modulation == ref and r.snr_db == at for r in records):
        return []
    have = {r.modulation for r in records}
    return [
        gain_vs_reference(records, mod, ref, at)
        for mod in cfg.modulations
        if mod in have
    ]


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def csv_text(header: str, items) -> str:
    """``header``, then one line per item: its attributes that ``header`` names."""
    names = header.split(",")
    rows = [",".join(_fmt(getattr(item, name)) for name in names) for item in items]
    return "".join(line + "\n" for line in [header, *rows])


def _json_value(value):
    """``value``, a tuple as a list, with a non-finite float as ``_fmt`` spells it."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


def manifest_text(cfg: SimConfig, records, wall_time_s: float) -> str:
    payload = {
        "version": __version__,
        "seed": cfg.seed,
        "config": {k: _json_value(v) for k, v in dataclasses.asdict(cfg).items()},
        "wall_time_s": wall_time_s,
        "diagnostics": {"total_redraws": sum(r.redraws for r in records)},
    }
    # allow_nan=False: any other non-finite value fails here, not in a reader
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


#: The files ``emit_results`` writes into the output directory, by key.
OUTPUT_FILES = {"ber": "ber.csv", "gains": "gains.csv", "manifest": "manifest.json"}


def _write_replacing(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it over
    ``path``, so a crash leaves the old file or the new one, never part of one."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def emit_results(records, gains, cfg: SimConfig, out_dir, wall_time_s: float) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in OUTPUT_FILES.items()}
    _write_replacing(paths["ber"], csv_text(BER_CSV_HEADER, records))
    _write_replacing(paths["gains"], csv_text(GAIN_CSV_HEADER, gains))
    _write_replacing(paths["manifest"], manifest_text(cfg, records, wall_time_s))
    return paths
