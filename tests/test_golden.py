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
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mclink import compute_gains, emit_results, engine, fast_profile, sweep

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
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


def tile_digest() -> str:
    """sha256 of one complex64 ``complex_normal`` tile of the fast frame's
    link, (slot pairs, receive antennas, 2, subcarriers) = (8, 4, 2, 256)."""
    from mclink.channel import complex_normal

    rng = np.random.Generator(np.random.SFC64(411))
    return hashlib.sha256(complex_normal(rng, (8, 4, 2, 256), np.complex64).tobytes()).hexdigest()


#: Both goldens written in a child process that runs the given numpy SIMD
#: dispatch or OpenBLAS kernel; it prints the groups it was told to disable
#: that are still on ("-" for none), then the tile digest.
CHILD = f"""
import os, sys
sys.path.insert(0, {str(TESTS)!r})
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from test_golden import GOLDENS, tile_digest, write_sweep
for name in GOLDENS:
    write_sweep(name, Path(sys.argv[1]) / name)
off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
print(" ".join(n for n in off if __cpu_features__.get(n)) or "-")
print(tile_digest())
"""

_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.parametrize("env", [
    {"NPY_DISABLE_CPU_FEATURES": _AVX512},
    {"NPY_DISABLE_CPU_FEATURES": _AVX512 + " X86_V3"},
    {"OPENBLAS_CORETYPE": "Haswell"},
], ids=["no_avx512", "no_avx2", "openblas_haswell"])
def test_goldens_hold_across_simd_levels_and_blas_kernels(env, tmp_path, record_property):
    from numpy._core._multiarray_umath import __cpu_dispatch__

    # numpy refuses to import when told to disable a group it does not dispatch
    missing = set(env.get("NPY_DISABLE_CPU_FEATURES", "").split()) - set(__cpu_dispatch__)
    if missing:
        pytest.skip(f"numpy dispatches no {', '.join(sorted(missing))} here")
    if "OPENBLAS_CORETYPE" in env and platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("OpenBLAS's Haswell kernels are x86-64 only")
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    src = str(TESTS.parent / "src")
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child_env.update(env)
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    still_on, digest = done.stdout.split("\n")[-3:-1]
    assert still_on == "-", f"numpy kept {still_on} on"
    for name in GOLDENS:
        for file in FILES:
            assert (tmp_path / name / file).read_bytes() == (DATA / name / file).read_bytes(), \
                f"{name}/{file}"
    # reported, not asserted: the draw's float32 cos and sin may round
    # differently at another SIMD level
    kept = digest == tile_digest()
    record_property("complex64_tile_bytes", "kept" if kept else "changed")
    print(f"{'/'.join(env.values())}: one complex64 complex_normal tile's bytes",
          "kept" if kept else "changed")


if __name__ == "__main__":
    for name in GOLDENS:
        out = DATA / name
        write_sweep(name, out)
        (out / "manifest.json").unlink()
