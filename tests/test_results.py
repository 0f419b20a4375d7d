import ast
import csv
import dataclasses
import math
from pathlib import Path

import pytest

import mclink
from mclink.results import (
    BER_CSV_HEADER,
    BerRecord,
    EXTRAPOLATION_FLAG,
    csv_text,
    gain_vs_reference,
)


def synthetic_curve(modulation, offset_db, snrs):
    """Analytic log-linear BER curve: one decade per 5 dB, shifted by offset."""
    return [
        BerRecord(
            modulation, float(s), 10**9,
            min(10**9, round(10**9 * 10 ** (-(s - offset_db + 10) / 5))),
        )
        for s in snrs
    ]


def test_shifted_curves_recover_offset():
    snrs = list(range(-10, 21, 5))
    table = synthetic_curve("a", 0.0, snrs) + synthetic_curve("b", 3.0, snrs)
    # curve b needs 3 dB more SNR for the same BER: gain of a over b is +3
    gain = gain_vs_reference(table, target="a", reference="b", at_snr_db=0.0)
    assert gain.gain_db == pytest.approx(3.0, abs=0.1)
    assert gain.flag == ""
    inverse = gain_vs_reference(table, target="b", reference="a", at_snr_db=0.0)
    assert inverse.gain_db == pytest.approx(-3.0, abs=0.1)


def test_self_gain_is_exactly_zero():
    table = synthetic_curve("a", 0.0, range(-10, 21, 5))
    gain = gain_vs_reference(table, target="a", reference="a", at_snr_db=-5.0)
    assert gain.gain_db == 0.0


def test_extrapolation_flagged_not_extrapolated():
    # target only measured down to 1e-2; reference sits at 1e-4 there
    table = synthetic_curve("coarse", 0.0, [-10, -5, 0]) + synthetic_curve(
        "sharp", -10.0, [0]
    )
    gain = gain_vs_reference(table, target="coarse", reference="sharp", at_snr_db=0.0)
    assert gain.flag == EXTRAPOLATION_FLAG
    assert math.isnan(gain.gain_db)


def test_missing_reference_point_raises():
    table = synthetic_curve("a", 0.0, [0, 5])
    with pytest.raises(ValueError):
        gain_vs_reference(table, target="a", reference="a", at_snr_db=2.5)
    with pytest.raises(ValueError):
        gain_vs_reference(table, target="a", reference="zzz", at_snr_db=0.0)


def test_ber_csv_header_and_roundtrip():
    records = [
        BerRecord("qpsk", -5.0, 100_000, 1673),
        BerRecord("64qam", -5.0, 100_000, 27_960),
    ]
    lines = csv_text(BER_CSV_HEADER, records).splitlines()
    assert lines[0] == BER_CSV_HEADER == "modulation,snr_db,bits,errors,ber,ci95"
    assert lines[1].startswith("qpsk,-5.0,100000,1673,0.01673,")
    back = list(csv.DictReader(lines))
    assert [(r["modulation"], int(r["bits"]), int(r["errors"])) for r in back] == [
        ("qpsk", 100_000, 1673),
        ("64qam", 100_000, 27_960),
    ]
    assert float(back[0]["ber"]) == pytest.approx(0.01673)


def test_ci_half_width_closed_form():
    rec = BerRecord("qpsk", 0.0, 40_000, 123)
    ber = 123 / 40_000
    assert rec.ci95 == pytest.approx(1.96 * math.sqrt(ber * (1 - ber) / 40_000), rel=1e-12)
    zero = BerRecord("qpsk", 0.0, 40_000, 0)
    assert zero.ber == 0.0 and zero.ci95 == 0.0


def test_ber_and_ci_follow_the_counts():
    rec = dataclasses.replace(BerRecord("qpsk", 0.0, 40_000, 123), errors=400)
    assert rec.ber == 400 / 40_000
    assert rec.ci95 == pytest.approx(1.96 * math.sqrt(0.01 * 0.99 / 40_000), rel=1e-12)


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``os.replace``, ``.write_text``, ``.write_bytes``,
    or an ``open`` whose mode writes (a mode not spelled out counts)."""
    fn = call.func
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
    if isinstance(fn, ast.Attribute) and getattr(fn.value, "id", None) == "os":
        return name == "replace"
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(path, mode) or path.open(mode)
    modes = call.args[1:2] if isinstance(fn, ast.Name) else call.args[:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def test_only_results_writes_files():
    package = Path(mclink.__file__).parent
    writers = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py")
        if path.name != "results.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    )
    assert writers == []
