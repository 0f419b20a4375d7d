"""Byte gate on sweep output: ber.csv and gains.csv for fixed (config, seed).

Two goldens live under tests/data:

* ``golden``: a fast-profile zf sweep (qpsk/16qam/64qam x -5/0/5 dB);
* ``golden_realzf``: the paths the first one misses -- the ``realzf``
  detector, two receive antennas (``engine.N_RX`` set to 2 while it runs)
  and a 2560-subcarrier frame, wider than one tile of the link, at -3 and
  2 dB, where every point counts errors.  Its grid has no -5 dB point, so no
  gain against the fixed reference (64-QAM at -5 dB) can be read and its
  gains.csv is the header line alone.

Both were written by the code that runs the link one tile of slot pairs at a
time, on one SFC64 generator per chunk, with each chunk's gains, noise and
weak-block redraws on three spawned child streams, the source seeded from
one raw word, and the gains and noise drawn pair-major as (slot pair,
receive antenna, 2, subcarrier), in polar form from one raw word of the bit
generator per sample: |z|^2 = -ln((k + 1/2) 2^-32) from its low 32 bits k
and the phase 2 pi j 2^-32 from its high 32 bits j.

A kernel change that moves one error count or one printed digit fails here.
A change that alters RNG consumption on purpose regenerates both with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
from pathlib import Path

import pytest

from mclink import compute_gains, emit_results, engine, fast_profile, sweep

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
        min_bits=25_000,
        max_bits=25_000,
        seed=977,
        workers=1,
    )


#: Each golden's config and the receive antenna count ``engine.N_RX`` it runs at.
GOLDENS = {"golden": (golden_config, 4), "golden_realzf": (realzf_golden_config, 2)}


def write_sweep(name, out_dir: Path) -> None:
    make_config, n_rx = GOLDENS[name]
    cfg = make_config()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "N_RX", n_rx)
        records = sweep(cfg)
    emit_results(records, compute_gains(records, cfg), cfg, out_dir, 0.0)


def _fresh(tmp_path_factory, name):
    out = tmp_path_factory.mktemp(name)
    write_sweep(name, out)
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
    for name in GOLDENS:
        out = DATA / name
        write_sweep(name, out)
        (out / "manifest.json").unlink()
