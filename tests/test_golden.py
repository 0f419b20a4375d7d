"""Byte gate on sweep output: ber.csv and gains.csv for a fixed (config, seed).

The golden files under tests/data/golden were written by the code before its
hot-path kernels were reworked; a kernel change that moves one error count
or one printed digit fails here.  A change that alters RNG
consumption on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
from pathlib import Path

import pytest

from mclink import compute_gains, emit_results, fast_profile, sweep

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
FILES = ("ber.csv", "gains.csv")


def golden_config():
    return fast_profile(
        modulations=("qpsk", "16qam", "64qam"),
        snr_grid_db=(-5.0, 0.0, 5.0),
        min_bits=50_000,
        max_bits=50_000,
        seed=411,
        workers=1,
    )


def write_sweep(out_dir: Path) -> None:
    cfg = golden_config()
    records = sweep(cfg)
    emit_results(records, compute_gains(records, cfg), cfg, out_dir, 0.0)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    write_sweep(out)
    return out


@pytest.mark.parametrize("name", FILES)
def test_sweep_bytes_match_golden(fresh, name):
    assert (fresh / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    write_sweep(GOLDEN)
    (GOLDEN / "manifest.json").unlink()
