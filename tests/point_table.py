"""The labeled point table ``tests/data/constellations.csv``.

The committed table is the demapper's file-based oracle.  Running this file
regenerates it from ``mclink.modem``:

    PYTHONPATH=src python tests/point_table.py
"""
import csv
from pathlib import Path

import numpy as np

from mclink import modem

COMMITTED = Path(__file__).resolve().parent / "data" / "constellations.csv"


def write_point_table(path) -> None:
    """Dump every scheme's labeled points as CSV with round-trip-exact floats."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["scheme", "label_bits", "real", "imag"])
        for name in modem.SCHEMES:
            c = modem.CONSTELLATIONS[name]
            points = c.points
            for label in range(c.order):
                writer.writerow([
                    name,
                    format(label, f"0{c.bits_per_symbol}b"),
                    repr(float(points[label].real)),
                    repr(float(points[label].imag)),
                ])


def read_point_table(path) -> dict[str, np.ndarray]:
    """Parse the table back into label-indexed point arrays."""
    tables: dict[str, list] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            tables.setdefault(row["scheme"], []).append(
                (int(row["label_bits"], 2), float(row["real"]), float(row["imag"]))
            )
    out = {}
    for name, rows in tables.items():
        arr = np.empty(len(rows), dtype=complex)
        for label, re, im in rows:
            arr[label] = re + 1j * im
        out[name] = arr
    return out


def min_distance(c: modem.Constellation) -> float:
    """Smallest distance between two distinct unit-energy points."""
    p = c.points
    d = np.abs(p[:, None] - p[None, :])
    return float(d[d > 0].min())


if __name__ == "__main__":
    write_point_table(COMMITTED)
