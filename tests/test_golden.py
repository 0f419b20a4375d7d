"""Byte gate on sweep output: ber.csv and gains.csv for fixed (config, seed).

Two goldens live under tests/data:

* ``golden``: a fast-profile zf sweep (qpsk/16qam/64qam x -5/0/5 dB);
* ``golden_realzf``: the paths the first one misses -- the ``realzf``
  detector, two receive antennas and a 2560-subcarrier frame, wider than one
  tile of the link, at -3 and 2 dB, where every point counts errors.  Its
  grid has no -5 dB point, so no gain against the fixed reference (64-QAM at
  -5 dB) can be read and its gains.csv is the header line alone.

Both were written by the code that runs the link one tile of slot pairs at a
time, on one SFC64 generator per chunk, with each chunk's gains, noise and
weak-block redraws on three spawned child streams and the gains and noise
drawn pair-major as (slot pair, receive antenna, 2, subcarrier), in polar
form: per slot pair, every sample's exponential |z|^2, then its uniform
phase.

A kernel change that moves one error count or one printed digit fails here.
A change that alters RNG consumption on purpose regenerates both with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
from pathlib import Path

import pytest

from mclink import compute_gains, emit_results, fast_profile, sweep

DATA = Path(__file__).resolve().parent / "data"
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


def realzf_golden_config():
    return fast_profile(
        modulations=("qpsk", "16qam", "64qam"),
        snr_grid_db=(-3.0, 2.0),
        n_subcarriers=2560,
        cp_len=64,
        detector="realzf",
        n_rx=2,
        min_bits=25_000,
        max_bits=25_000,
        seed=977,
        workers=1,
    )


GOLDENS = {"golden": golden_config, "golden_realzf": realzf_golden_config}


def write_sweep(cfg, out_dir: Path) -> None:
    records = sweep(cfg)
    emit_results(records, compute_gains(records, cfg), cfg, out_dir, 0.0)


def _fresh(tmp_path_factory, name):
    out = tmp_path_factory.mktemp(name)
    write_sweep(GOLDENS[name](), out)
    return out


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return _fresh(tmp_path_factory, "golden")


@pytest.fixture(scope="module")
def fresh_realzf(tmp_path_factory):
    return _fresh(tmp_path_factory, "golden_realzf")


@pytest.mark.parametrize("name", FILES)
def test_sweep_bytes_match_golden(fresh, name):
    assert (fresh / name).read_bytes() == (DATA / "golden" / name).read_bytes()


@pytest.mark.parametrize("name", FILES)
def test_realzf_wide_frame_bytes_match_golden(fresh_realzf, name):
    assert (fresh_realzf / name).read_bytes() == (DATA / "golden_realzf" / name).read_bytes()


if __name__ == "__main__":
    for name, make_config in GOLDENS.items():
        out = DATA / name
        write_sweep(make_config(), out)
        (out / "manifest.json").unlink()
