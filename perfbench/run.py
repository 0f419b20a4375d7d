"""mclink benchmark: fixed-work BER sweeps through the public API.

    python3 perfbench/run.py --workload fast-qpsk --seed 1 --seconds 55 --trace 0

A run writes the workload's config with ``seed = --seed`` and
``min_bits == max_bits``, so every sweep simulates the same payload bits.
Until --seconds have passed it starts one fresh process per sweep
(``child.py``), which loads the config and runs ``sweep`` ->
``compute_gains`` -> ``emit_results`` as ``sim sweep`` does.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``throughput_kbps``: payload bits / wall seconds of the sweep call, median
  over the run's sweeps;
* ``setup_s``: process launch to sweep start, median over the run's sweeps;
* ``peak_rss_mb``: peak resident memory of a sweep process, median;
* ``points_passed_frac``: points that passed the correctness gate / points
  attempted.

With ``--trace 1`` sweeps alternate between untraced and traced processes,
and the run reports the per-layer metrics of ``tracer.Tracer`` (ms per
25k-bit chunk, median over the traced sweeps) and the tracing overhead.

Every sweep goes through the correctness gate: each point simulated exactly the
configured bits, its BER lies in ``BER_BANDS``, and its ber.csv row is
byte-identical to the run's first sweep, traced or not.  In a traced sweep
every span of ``STAGES`` must have been entered in each point, so a layer
that is renamed, removed or no longer called fails the run instead of
reading zero; and, as a consistency check on ``STAGES`` itself, the stage
times it reports must add up to the run_chain span.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (points) and ``metrics``.  The line before it, ``report {...}``,
holds provenance, ber.csv digests and the per-sweep samples.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"

NPROC = len(os.sched_getaffinity(0))
#: A run ends with an error rather than overrun this many seconds.
HARD_LIMIT_S = 170.0

#: Why each workload exists is recorded in BENCHMARK.json.  ``chunks`` is the
#: fixed work per point in 25k-bit chunks; a sweep takes a few seconds, so a
#: run holds about a dozen and reports their median.
WORKLOADS = {
    "fast-qpsk": dict(n_subcarriers=256, cp_len=64, modulations=("qpsk",),
                      snr_grid_db=(-5.0,), workers=1, chunks=8),
    "fast-64qam": dict(n_subcarriers=256, cp_len=64, modulations=("64qam",),
                       snr_grid_db=(-5.0,), workers=1, chunks=12),
}
FRAME_PAYLOAD_BITS = 200
FRAMES_PER_CHUNK = 125
CHUNK_BITS = FRAME_PAYLOAD_BITS * FRAMES_PER_CHUNK

#: Accepted BER per (modulation, SNR dB), for any seed and any whole number
#: of chunks: the mean of single 25k-bit chunks over seeds 0-39 at the
#: benchmark's first commit, +- (8 standard deviations + 10 errors per
#: chunk), rounded outwards (baseline.json).  Each band excludes BER 0 and
#: 0.5.
BER_BANDS = {
    ("qpsk", -5.0): (0.0024, 0.015),
    ("64qam", -5.0): (0.27, 0.34),
}

ROOT_SPAN = "engine.run_chain"


def stage_metric(span: str, kind: str) -> str:
    return f"{span}.{'self_ms' if kind == 'self' else 'ms'}_per_chunk"


#: Traced spans and the time each one's metric reports: a span with traced
#: children reports its self time, a leaf its whole duration (equal to its
#: self time).  Together they cover every traced span under run_chain.
STAGES = {
    ROOT_SPAN: "self",
    "bits.Prbs.generate": "total",
    "bits.spread": "total",
    "bits.conv_encode": "total",
    "bits.viterbi_decode": "total",
    "bits.despread": "total",
    "modem.map_bits": "total",
    "modem.demap_symbols": "total",
    "mimo.stbc_encode": "total",
    "mimo.build_effective": "total",
    "mimo.zf_weights": "total",
    "mimo.zf_detect": "self",
    "ofdm.ofdm_modulate": "total",
    "ofdm.ofdm_demodulate": "total",
    "channel.complex_normal": "total",
    "channel.draw_channel": "self",
    "channel.apply_channel": "self",
}

END_TO_END_UNITS = {
    "throughput_kbps": "kbit/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_passed_frac": "frac",
}
PER_LAYER_UNITS = {
    "engine.chunks": "count",
    "engine.redraws": "count",
    "engine.run_chain.ms_per_chunk": "ms",
    **{stage_metric(span, kind): "ms" for span, kind in STAGES.items()},
    "engine.sweep.cpu_per_wall": "ratio",
    "engine.sweep.worker_idle_frac": "frac",
    "modem.symbols_per_chunk": "count",
    "mimo.blocks_per_chunk": "count",
    "results.emit_ms": "ms",
    "trace_overhead_frac": "frac",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def write_config(path: Path, workload: dict, seed: int, chunks: int) -> None:
    bits = chunks * CHUNK_BITS
    fields = {
        "n_subcarriers": workload["n_subcarriers"],
        "cp_len": workload["cp_len"],
        "modulations": ",".join(workload["modulations"]),
        "snr_grid_db": ",".join(repr(s) for s in workload["snr_grid_db"]),
        "detector": "zf",
        "seed": seed,
        "min_bits": bits,
        "max_bits": bits,
        "workers": workload["workers"],
        "frame_payload_bits": FRAME_PAYLOAD_BITS,
        "frames_per_chunk": FRAMES_PER_CHUNK,
    }
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))


def launch(cfg_path: Path, out_dir: Path, flags: list[str], deadline: float) -> dict:
    """Run child.py to completion; returns its result or {"error": ...}."""
    out_dir.mkdir()
    start = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(cfg_path), str(out_dir), *flags],
            capture_output=True, text=True, timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return {"error": "sweep process timed out"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0]}
    result = json.loads((out_dir / "child.json").read_text())
    result["setup_s"] = result["sweep_start"] - start
    return result


def run_sweeps(cfg_path: Path, tmp: Path, seconds: float, trace: bool,
               deadline: float) -> list[dict]:
    """Sweeps until the next one would end after ``seconds``; with ``trace``
    they alternate untraced/traced, starting untraced, at least one each."""
    modes = (False, True) if trace else (False,)
    start = _now()
    sweeps = []
    while True:
        traced = modes[len(sweeps) % len(modes)]
        result = launch(cfg_path, tmp / f"sweep{len(sweeps)}",
                        ["--trace"] if traced else [], deadline)
        result["traced"] = traced
        sweeps.append(result)
        if "error" in result:
            return sweeps
        elapsed = _now() - start
        if len(sweeps) >= len(modes) and elapsed * (1 + 1 / len(sweeps)) > seconds:
            return sweeps


def stage_sum_error(point: dict) -> float:
    """Reported stage times of one traced point minus its run_chain span.

    Self times add up to the root span by construction, so this checks only
    that ``STAGES`` reports each span's self time wherever it has traced
    children; ``missing_stages`` is what catches a lost layer.
    """
    reported = sum(point[kind].get(span, 0.0) for span, kind in STAGES.items())
    return reported - point["total"][ROOT_SPAN]


def missing_stages(point: dict) -> list[str]:
    """Spans of ``STAGES`` that one traced point never entered."""
    return [span for span in STAGES if not point["calls"].get(span)]


def gate(workload: dict, chunks: int, sweeps: list[dict]) -> tuple[int, list[str]]:
    """Failed point count and the reasons, over every sweep of the run."""
    expected = [(m, s) for m in workload["modulations"] for s in workload["snr_grid_db"]]
    bits = chunks * CHUNK_BITS
    reference = None
    failed = 0
    reasons = []
    for i, sweep in enumerate(sweeps):
        if "error" in sweep:
            failed += len(expected)
            reasons.append(f"sweep {i}: {sweep['error']}")
            continue
        rows = sweep["ber_csv"].splitlines()[1:]
        if [(r[0], r[1]) for r in sweep["records"]] != expected or len(rows) != len(expected):
            failed += len(expected)
            reasons.append(f"sweep {i}: points {[r[:2] for r in sweep['records']]}")
            continue
        reference = reference or rows
        traced = {tuple(p["key"]): p for p in sweep["trace"] or []}
        for (mod, snr, n_bits, errors, _), row, ref_row in zip(sweep["records"], rows, reference):
            lo, hi = BER_BANDS[(mod, snr)]
            problems = []
            if n_bits != bits:
                problems.append(f"{n_bits} bits, configured {bits}")
            ber = errors / n_bits if n_bits else float("nan")
            if not lo <= ber <= hi:
                problems.append(f"BER {ber:.5f} outside [{lo}, {hi}]")
            if row != ref_row:
                problems.append(f"ber.csv row {row!r} differs from {ref_row!r}")
            if sweep["traced"]:
                point = traced.get((mod, snr))
                if point is None:
                    problems.append("no trace")
                elif missing_stages(point):
                    problems.append(f"spans never entered: {', '.join(missing_stages(point))}")
                elif abs(stage_sum_error(point)) > 1e-6:
                    problems.append(f"stage times miss run_chain by {stage_sum_error(point):.3g} s")
            if problems:
                failed += 1
                reasons.append(f"sweep {i} {mod}@{snr}: " + "; ".join(problems))
    return failed, reasons


def trace_sums(sweep: dict) -> tuple[float, Counter, Counter, Counter]:
    """Chunks, and total seconds, self seconds and counts per span name,
    summed over the points of one traced sweep."""
    chunks = sum(r[2] for r in sweep["records"]) / sweep["chunk_bits"]
    total, self_, counts = Counter(), Counter(), Counter()
    for point in sweep["trace"]:
        total.update(point["total"])
        self_.update(point["self"])
        counts.update(point["counts"])
    return chunks, total, self_, counts


def span_totals(sweep: dict) -> dict[str, float]:
    """Whole span durations in ms per chunk, children included."""
    chunks, total, _, _ = trace_sums(sweep)
    return {span: 1e3 * seconds / chunks for span, seconds in total.items()}


def layer_metrics(sweep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (``trace_overhead_frac`` aside)."""
    chunks, total, self_, counts = trace_sums(sweep)
    metrics = {
        "engine.chunks": chunks,
        "engine.redraws": sum(r[4] for r in sweep["records"]),
        "engine.run_chain.ms_per_chunk": 1e3 * total[ROOT_SPAN] / chunks,
        "engine.sweep.cpu_per_wall": sweep["cpu_s"] / sweep["sweep_s"],
        "engine.sweep.worker_idle_frac":
            1.0 - total[ROOT_SPAN] / (sweep["workers"] * sweep["sweep_s"]),
        "modem.symbols_per_chunk": counts["modem.symbols"] / chunks,
        "mimo.blocks_per_chunk": counts["mimo.blocks"] / chunks,
        "results.emit_ms": 1e3 * sweep["emit_s"],
    }
    for span, kind in STAGES.items():
        times = self_ if kind == "self" else total
        metrics[stage_metric(span, kind)] = 1e3 * times[span] / chunks
    return metrics


def throughput_kbps(sweep: dict) -> float:
    return sum(r[2] for r in sweep["records"]) / sweep["sweep_s"] / 1e3


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240,
                        help="workload seed, written into the generated config")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long the run starts new sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chunks", type=int,
                        help="chunks per point instead of the workload's own (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    if args.chunks is not None and args.chunks < 1:
        parser.error("--chunks must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mclink" / "__init__.py").is_file():
        print(f"error: no mclink package under {SRC}", file=sys.stderr)
        return 2
    start = _now()
    deadline = start + HARD_LIMIT_S
    workload = WORKLOADS[args.workload]
    chunks = args.chunks or workload["chunks"]
    load_start = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)
        cfg_path = tmp / "workload.cfg"
        write_config(cfg_path, workload, args.seed, chunks)
        sweeps = run_sweeps(cfg_path, tmp, args.seconds, bool(args.trace), deadline)
        done = [s for s in sweeps if "error" not in s]
        if not done:
            print(f"error: {sweeps[0]['error']}", file=sys.stderr)
            return 1
    failed, reasons = gate(workload, chunks, sweeps)
    attempted = len(sweeps) * len(workload["modulations"]) * len(workload["snr_grid_db"])

    untraced = [throughput_kbps(s) for s in done if not s["traced"]]
    setups = [s["setup_s"] for s in done]
    if args.trace:
        traced = [s for s in done if s["traced"]]
        if not traced or not untraced:
            print("error: the run has no traced and untraced sweep pair", file=sys.stderr)
            return 1
        per_sweep = [layer_metrics(s) for s in traced]
        values = {name: statistics.median(m[name] for m in per_sweep)
                  for name in per_sweep[0]}
        values["trace_overhead_frac"] = (
            statistics.median(throughput_kbps(s) for s in traced)
            / statistics.median(untraced) - 1.0)
        units = PER_LAYER_UNITS
        totals = [span_totals(s) for s in traced]
        extra = {"span_total_ms_per_chunk": {
            span: statistics.median(t.get(span, 0.0) for t in totals) for span in totals[0]}}
    else:
        values = {
            "throughput_kbps": statistics.median(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in done),
            "points_passed_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        extra = {}

    first = done[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "bits_per_point": chunks * CHUNK_BITS,
        "sweeps": len(sweeps),
        "throughput_kbps_untraced": untraced,
        "throughput_kbps_traced": [throughput_kbps(s) for s in done if s["traced"]],
        "setup_s": setups,
        "ber_sha256": sorted({s["ber_sha256"] for s in done}),
        "ber": [[r[0], r[1], r[3] / r[2] if r[2] else None] for r in first["records"]],
        "gate_failures": reasons,
        **extra,
        "provenance": {
            "nproc": NPROC,
            "python": first["python"],
            "numpy": first["numpy"],
            "blas": first["blas"],
            "platform": platform.platform(),
            "git_describe": git_describe(),
            "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg()),
            "run_s": _now() - start,
        },
    }
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
