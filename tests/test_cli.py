import csv
import dataclasses
import json
import math
import re
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
        "seed = 99   # inline comment\n"
    )


def test_snr_grid_parsing():
    assert parse_snr_grid("-10:5:20") == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    assert parse_snr_grid("-5,0,5") == (-5.0, 0.0, 5.0)
    # a descending range has no points, and a config cannot sweep nothing
    assert parse_snr_grid("5:1:0") == ()
    assert parse_snr_grid("1e308:1:-1e308") == ()  # the span overflows to -inf
    with pytest.raises(ConfigError):
        SimConfig(snr_grid_db=parse_snr_grid("5:1:0"))
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
    for line in ("spreading = true", "fec = false",
                 "split_tx_power = true", "cond_cap = 1e8", "tx_mode = siso",
                 "snr_reference = es", "spreading_chips = 1,0,1,1,0,0,1,0",
                 "conv_constraint_length = 3", "conv_generators = 7,5",
                 "message_taps = 40000041", "n_rx = 4"):
        bad.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"unknown key '{line.split()[0]}'"):
            load_config(bad)
    bad.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match=r":2: repeated key 'seed'"):
        load_config(bad)
    bad.write_text("min_bits = lots\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_antenna_count_is_an_unknown_key(tmp_path, capsys):
    # the link is the paper's 2x4 (engine.N_RX), not a config field
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    with open(cfg_path, "a") as f:
        f.write("n_rx = 4\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {cfg_path}:11: unknown key 'n_rx'\n"
    assert not out.exists()


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # editors that save "UTF-8 with BOM" put U+FEFF before the first key
    path = tmp_path / "bom.cfg"
    path.write_bytes("\ufeffseed = 3\nworkers = 2\n".encode("utf-8"))
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(path) == SimConfig(seed=3, workers=2)


def test_every_default_written_as_text_loads_back(tmp_path):
    # each value is read as the type of its field's default
    defaults = dataclasses.asdict(SimConfig())
    assert {type(v) for v in defaults.values()} == {int, str, tuple}
    path = tmp_path / "defaults.cfg"
    path.write_text("".join(
        f"{name} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}\n"
        for name, value in defaults.items()
    ))
    loaded = load_config(path)
    assert loaded == SimConfig()
    for name, value in defaults.items():
        assert type(getattr(loaded, name)) is type(value), name


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


@pytest.mark.parametrize("args", [
    "sweep --mod 128qam",
    "sweep --seed abc",
    "sweep --workers x",
    "sweep --workers 0",
    "sweep --detector foo",
    "sweep --bogus 1",
    "sweep --snr=",  # an empty value is read, not ignored
    pytest.param("", id="no subcommand"),
])
def test_cli_bad_flag_value_exit_code(tmp_path, capsys, args):
    # usage errors and unreadable flag values are config errors: main
    # returns 1 (argparse alone would raise SystemExit(2)) and writes nothing
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    out = tmp_path / "out"
    argv = args.split()
    if argv:
        argv += ["--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", ["--help", "sweep --help", "--version"])
def test_cli_help_and_version_exit_0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args.split())
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("flag, value, line", [pytest.param(*case, id=case[2]) for case in [
    ("--snr", "-5:5:0", "snr_grid_db = -5:5:0"),
    ("--snr", "0, inf", "snr_grid_db = 0, inf"),
    ("--mod", "qpsk,", "modulations = qpsk,"),
    ("--mod", " QPSK, 64-QAM ", "modulations = QPSK, 64-QAM"),
    ("--detector", "realzf", "detector = realzf"),
    ("--seed", "7", "seed = 7"),
    ("--workers", "2", "workers = 2"),
]])
def test_flag_reads_like_its_config_line(tmp_path, monkeypatch, flag, value, line):
    seen = []
    monkeypatch.setattr("mclink.cli.sweep", lambda cfg: seen.append(cfg) or [])
    path = tmp_path / "line.cfg"
    path.write_text(line + "\n")
    assert main(["sweep", f"{flag}={value}", "--out", str(tmp_path / "out")]) == 0
    assert seen == [load_config(path)]


@pytest.mark.parametrize("value", ["-5:5:0", "-5,0"])
def test_space_separated_negative_value_reads_like_joined(tmp_path, monkeypatch, value):
    seen = []
    monkeypatch.setattr("mclink.cli.sweep", lambda cfg: seen.append(cfg) or [])
    out = str(tmp_path / "out")
    assert main(["sweep", "--snr", value, "--out", out]) == 0
    assert main(["sweep", f"--snr={value}", "--out", out]) == 0
    assert seen[0] == seen[1] and seen[0].snr_grid_db[0] == -5.0


def test_flag_without_value_exit_code(capsys):
    assert main(["sweep", "--snr"]) == 1
    assert "--snr: expected one argument" in capsys.readouterr().err


def test_flag_is_never_read_as_a_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--out", "--seed=3"]) == 1
    assert "argument --out: expected one argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_manifest_of_an_inf_grid_is_strict_json(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--mod", "qpsk", "--snr", "0,inf",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    assert manifest["config"]["snr_grid_db"] == [0.0, "inf"]


def test_gains_missing_their_reference_point_are_named_on_stderr(tmp_path, capsys):
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    out = tmp_path / "out"
    # the default reference, 64qam at -5 dB, is not on this grid
    assert main(["sweep", "--config", str(cfg_path), "--mod", "qpsk", "--snr", "0,inf",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: no gains: 64qam at -5.0 dB is not a swept point\n"
    assert not any(line.startswith("gain ") for line in captured.out.splitlines())
    assert (out / "gains.csv").read_text() == "modulation,reference,at_snr_db,gain_db,flag\n"
    # with the reference point swept there are gains and no note
    assert main(["sweep", "--config", str(cfg_path), "--mod", "qpsk,64qam", "--snr", "-5",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sum(line.startswith("gain ") for line in captured.out.splitlines()) == 2


def test_cli_runtime_error_exit_code(tmp_path, capsys, monkeypatch):
    # a failure while the results are written, after the whole sweep ran
    def disk_full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("mclink.cli.emit_results", disk_full)
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    undecodable = tmp_path / "latin.cfg"
    undecodable.write_bytes(b"seed = 1\n\xff\n")
    out = tmp_path / "out"
    for path in (tmp_path, undecodable, tmp_path / "missing.cfg"):
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_config(path)
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: {path}: cannot read" in capsys.readouterr().err
    assert not out.exists()


def test_unusable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def entered(cfg):
        raise AssertionError("sweep entered")

    monkeypatch.setattr("mclink.cli.sweep", entered)
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    occupied = tmp_path / "occupied"
    occupied.write_text("x")
    for out in (occupied, occupied / "sub"):
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"config error: --out {out}" in capsys.readouterr().err
    assert occupied.read_text() == "x"


@pytest.mark.parametrize("name", ["ber.csv", "gains.csv", "manifest.json"])
def test_unreplaceable_output_fails_before_the_sweep(tmp_path, capsys, monkeypatch, name):
    def entered(cfg):
        raise AssertionError("sweep entered")

    monkeypatch.setattr("mclink.cli.sweep", entered)
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error: --out {out}: {name}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [name]
    assert not any((out / name).iterdir())


def test_interrupt_exits_130_without_traceback(tmp_path, capsys, monkeypatch):
    def ctrl_c(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr("mclink.cli.sweep", ctrl_c)
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_sigint_stops_a_threaded_sweep_within_a_chunk(tmp_path):
    # one child process on two sweep threads, with four points of about 15 s
    # each: Ctrl-C a second in cancels the two queued points and ends the two
    # running ones before their next chunk (about 0.1 s), not at their last
    import os
    import signal
    import subprocess
    import sys
    import time

    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text("modulations = qpsk\nsnr_grid_db = -5:1:-2\nn_subcarriers = 256\n"
                        "cp_len = 64\nmin_bits = 5000000\nmax_bits = 5000000\nworkers = 2\n")
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "mclink", "sweep", "--config", str(cfg_path), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    try:
        # --out is made after the imports, just before the sweep starts
        deadline = time.monotonic() + 30
        while not out.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert out.exists() and proc.poll() is None
        time.sleep(1.0)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        stdout, stderr = proc.communicate(timeout=30)
        elapsed = time.monotonic() - sent
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert elapsed < 2.0
    assert (stdout, stderr) == ("", "interrupted\n")
    assert list(out.iterdir()) == []


def test_cli_runtime_error_without_message_is_named(tmp_path, capsys, monkeypatch):
    def out_of_memory(cfg):
        raise MemoryError()

    monkeypatch.setattr("mclink.cli.sweep", out_of_memory)
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "runtime error: MemoryError" in capsys.readouterr().err


def test_default_profile_is_full_size(tmp_path):
    # config defaults must carry the full-size frame
    assert SimConfig().n_subcarriers == 6400


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: What each committed config loads to.  table1 and comparison are the
#: configurations that the former run_table1.py and modulation_comparison.py
#: scripts built by default.
COMMITTED = {
    "example.cfg": SimConfig(n_subcarriers=256, cp_len=64, workers=4,
                             snr_grid_db=(-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)),
    "table1.cfg": SimConfig(min_bits=100_000, max_bits=200_000, seed=412, workers=4),
    "comparison.cfg": SimConfig(
        n_subcarriers=256, cp_len=64, snr_grid_db=(-15.0, -10.0, -5.0, 0.0, 5.0),
        min_bits=100_000, max_bits=200_000, seed=411, workers=4,
    ),
}


@pytest.mark.parametrize("name", sorted({p.name for p in CONFIGS.glob("*.cfg")} | set(COMMITTED)))
def test_committed_example_config_loads(name):
    assert load_config(CONFIGS / name) == COMMITTED[name]


def test_example_config_sets_every_field():
    # its header says any SimConfig field can be set, so it shows each one
    lines = (CONFIGS / "example.cfg").read_text().splitlines()
    keys = {line.split("#", 1)[0].partition("=")[0].strip() for line in lines}
    assert {f.name for f in dataclasses.fields(SimConfig)} <= keys


def test_comparison_recipe_runs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["sweep", "--config", str(CONFIGS / "comparison.cfg"),
                 "--mod", "qpsk,16qam,64qam", "--workers", "2", "--out", str(out)])
    assert code == 0
    gain_lines = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("gain ")]
    assert len(gain_lines) == 3
    assert all("vs 64qam @ -5.0 dB" in line for line in gain_lines)
    # qpsk's BER crosses 64qam's -5 dB BER only below -10 dB: the grid
    # reaches it, so its gain is read, not flagged for extrapolation
    qpsk = next(line for line in gain_lines if line.startswith("gain   qpsk "))
    assert math.isfinite(float(qpsk.split(": ")[1].split()[0])), qpsk
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


@pytest.mark.parametrize("line", [
    # removed fields; the error target and the gain reference are constants
    "max_bit_errors = 100",
    "gain_reference = 64qam",
    "gain_at_snr_db = -5",
    "spreading = true",
    "fec = false",
    "split_tx_power = true",
    "tx_mode = siso",
    "snr_reference = es",
    "spreading_chips = 1,0,1,1,0,0,1,0",
    "conv_constraint_length = 3",
    "conv_generators = 7,5",
    "message_taps = 40000041",
    # just past the memory caps, so a missing cap runs a sweep that fits
    "n_subcarriers = 65537",
    "frames_per_chunk = 2501",  # 250,100 bits in 100-bit frames
    # just past the thread cap; the tiny grid has two points, so a missing
    # cap starts two threads, not 65
    "workers = 65",
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


def test_snr_without_a_finite_noise_variance_is_a_config_error(tmp_path, capsys, monkeypatch):
    # sigma2 = 10^(-snr/10) overflows at -4000 dB and is 0 at 1e308 dB
    def entered(cfg):
        raise AssertionError("sweep entered")

    monkeypatch.setattr("mclink.cli.sweep", entered)
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    out = tmp_path / "out"
    for snr in ("-4000,0", "0,1e308", "-300.0001", "300.0001"):
        assert main(["sweep", "--config", str(cfg_path), f"--snr={snr}", "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
    assert not out.exists()
    grid = (-300.0, 0.0, 300.0, math.inf)
    assert SimConfig(snr_grid_db=grid).snr_grid_db == grid


def test_unreadable_snr_grid_is_a_config_error(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    write_tiny_config(cfg_path)
    for snr in ("a:1:2", "0,x"):
        with pytest.raises(ConfigError):
            parse_snr_grid(snr)
        assert main(["sweep", "--config", str(cfg_path), f"--snr={snr}",
                     "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
