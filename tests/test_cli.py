import csv
import json
from pathlib import Path

import pytest

from mclink.cli import main
from mclink.config import SimConfig, load_config, parse_snr_grid
from mclink.errors import ConfigError


def write_tiny_config(path):
    path.write_text(
        "# sweep setup\n"
        "modulations = qpsk, 8psk\n"
        "snr_grid_db = -5:5:0\n"
        "n_subcarriers = 64\n"
        "cp_len = 16\n"
        "min_bits = 10000\n"
        "max_bits = 10000\n"
        "frame_payload_bits = 100\n"
        "frames_per_chunk = 100\n"
        "conv_generators = 7,5   # octal\n"
        "seed = 99\n"
    )


def test_snr_grid_parsing():
    assert parse_snr_grid("-10:5:20") == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    assert parse_snr_grid("-5,0,5") == (-5.0, 0.0, 5.0)
    with pytest.raises(ConfigError):
        parse_snr_grid("0:-1:10")
    with pytest.raises(ConfigError):
        parse_snr_grid("0:5")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "sim.cfg"
    write_tiny_config(path)
    cfg = load_config(path)
    assert cfg.modulations == ("qpsk", "8psk")
    assert cfg.snr_grid_db == (-5.0, 0.0)
    assert cfg.conv_generators == (0o7, 0o5)
    assert cfg.seed == 99
    assert cfg.cp_len == 16


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("unknown_field = 3\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    # fields that were removed
    for line in ("cond_cap = 1e8", "tx_mode = siso", "snr_reference = es"):
        bad.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"unknown key '{line.split()[0]}'"):
            load_config(bad)
    bad.write_text("min_bits = lots\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_cli_sweep_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    out = tmp_path / "results"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader((out / "ber.csv").read_text().splitlines()))
    assert len(rows) == 4  # 2 modulations x 2 SNRs
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["n_subcarriers"] == 64
    assert (out / "gains.csv").exists()
    stdout = capsys.readouterr().out
    assert "qpsk" in stdout and "ber=" in stdout


def test_cli_flag_overrides(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    out = tmp_path / "r2"
    code = main([
        "sweep", "--config", str(cfg_path), "--mod", "16qam", "--snr", "0,5",
        "--detector", "realzf", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    rows = csv.DictReader((out / "ber.csv").read_text().splitlines())
    assert {row["modulation"] for row in rows} == {"16qam"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["detector"] == "realzf"
    assert manifest["seed"] == 3


def test_cli_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["sweep", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("detector = mmse\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_bad_flag_value_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    assert main(["sweep", "--config", str(cfg_path), "--mod", "128qam"]) == 1
    capsys.readouterr()


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    blocker = tmp_path / "occupied"
    blocker.write_text("x")
    code = main(["sweep", "--config", str(cfg_path), "--out", str(blocker / "sub")])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_default_profile_is_full_size(tmp_path):
    # config defaults must carry the full-size frame
    assert SimConfig().n_subcarriers == 6400


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: What each committed config loads to.  table1 and comparison are the
#: configurations that the former run_table1.py and modulation_comparison.py
#: scripts built by default.
COMMITTED = {
    "example.cfg": SimConfig(n_subcarriers=256, cp_len=64, workers=4),
    "table1.cfg": SimConfig(min_bits=100_000, max_bits=200_000, seed=412, workers=4),
    "comparison.cfg": SimConfig(
        n_subcarriers=256, cp_len=64, snr_grid_db=(-10.0, -5.0, 0.0, 5.0),
        min_bits=100_000, max_bits=200_000, gain_at_snr_db=-5.0, seed=411, workers=4,
    ),
}


@pytest.mark.parametrize("name", sorted({p.name for p in CONFIGS.glob("*.cfg")} | set(COMMITTED)))
def test_committed_example_config_loads(name):
    assert load_config(CONFIGS / name) == COMMITTED[name]


def test_comparison_recipe_runs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["sweep", "--config", str(CONFIGS / "comparison.cfg"),
                 "--mod", "16qam,64qam", "--workers", "2", "--out", str(out)])
    assert code == 0
    gain_lines = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("gain ")]
    assert len(gain_lines) == 2
    assert all("vs 64qam @ -5.0 dB" in line for line in gain_lines)
    for name in ("ber.csv", "gains.csv", "manifest.json"):
        assert (out / name).exists()


def assert_fails_before_the_sweep(tmp_path, capsys, line):
    """The tiny config plus ``line`` exits 1 and writes no output."""
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    with open(cfg_path, "a") as f:
        f.write(line + "\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_gain_reference_fails_before_the_sweep(tmp_path, capsys):
    assert_fails_before_the_sweep(tmp_path, capsys, "gain_reference = 128qam")


@pytest.mark.parametrize("line", [
    # removed fields
    "tx_mode = siso",
    "snr_reference = es",
    # no gain can be read at NaN: the sweep ran and wrote a header-only gains.csv
    "gain_at_snr_db = nan",
])
def test_unservable_config_fails_before_the_sweep(tmp_path, capsys, line):
    assert_fails_before_the_sweep(tmp_path, capsys, line)


@pytest.mark.parametrize("snr", ["0:inf:1", "-inf:1:0", "0:5:inf", "0:1e-300:1", "0:nan:1"])
def test_unbounded_snr_range_fails_fast(tmp_path, snr):
    # a separate process with a timeout and a 1 GiB address-space cap, so a
    # parser that loops forever on a growing list fails this test instead of
    # hanging the suite or filling the memory
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    proc = subprocess.run(
        [sys.executable, "-m", "mclink", "sweep", "--config", str(cfg_path), f"--snr={snr}",
         "--out", str(out)],
        capture_output=True, text=True, timeout=10, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    assert not out.exists()


def test_unreadable_snr_grid_is_a_config_error(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    for snr in ("a:1:2", "0,x"):
        with pytest.raises(ConfigError):
            parse_snr_grid(snr)
        assert main(["sweep", "--config", str(cfg_path), f"--snr={snr}",
                     "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
