"""One fixed-work sweep in a fresh process, through the path `sim sweep` takes.

    python3 perfbench/child.py CONFIG OUT_DIR [--trace]

Set-up (interpreter start, importing numpy and mclink, which builds the
constellation tables, and loading and validating CONFIG) ends at the
``sweep_start`` stamp, read from CLOCK_MONOTONIC so that the parent process
can subtract its own launch stamp.  Then ``sweep`` -> ``compute_gains`` ->
``emit_results`` write ber.csv, gains.csv and manifest.json to OUT_DIR, and
the timings go to OUT_DIR/child.json.  With --trace the layer calls are
timed by ``tracer.Tracer``.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def main(argv: list[str]) -> int:
    config, out_dir = Path(argv[0]), Path(argv[1])
    sys.path.insert(0, str(SRC))
    import mclink

    cfg = mclink.load_config(config)
    sweep_start = time.clock_gettime(time.CLOCK_MONOTONIC)

    import hashlib
    import json
    import platform
    import resource

    import numpy as np

    if Path(mclink.__file__).resolve().parent != SRC / "mclink":
        raise RuntimeError(f"imported mclink from {mclink.__file__}, not from the checkout")
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    records = mclink.sweep(cfg)
    sweep_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    t1 = time.perf_counter()
    gains = mclink.compute_gains(records, cfg)
    paths = mclink.emit_results(records, gains, cfg, out_dir, sweep_s)
    emit_s = time.perf_counter() - t1
    ber_csv = paths["ber"].read_bytes()
    result = dict(
        sweep_start=sweep_start,
        sweep_s=sweep_s,
        cpu_s=cpu_s,
        emit_s=emit_s,
        workers=cfg.workers,
        chunk_bits=cfg.chunk_payload_bits,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        records=[[r.modulation, r.snr_db, r.bits, r.errors, r.redraws] for r in records],
        ber_csv=ber_csv.decode("ascii"),
        ber_sha256=hashlib.sha256(ber_csv).hexdigest(),
        trace=tracer.points if tracer else None,
        numpy=np.__version__,
        blas=_blas(np),
        python=platform.python_version(),
    )
    (out_dir / "child.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
