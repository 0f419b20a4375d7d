"""Command line front end.

    sim sweep [--config FILE] [--snr a:step:b] [--mod qpsk,64qam,...]
              [--detector zf|realzf] [--seed N] [--workers N] [--out DIR]

Exit codes: 0 success, 1 configuration error, 2 runtime/numeric error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import __version__
from .config import SimConfig, load_config, parse_snr_grid, validate
from .engine import compute_gains, emit_results, sweep
from .errors import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="run a BER sweep over modulations x SNR grid")
    sw.add_argument("--config", help="flat key=value config file")
    sw.add_argument("--snr", help="SNR grid, 'start:step:stop' or comma list (dB)")
    sw.add_argument("--mod", help="comma-separated modulation names")
    sw.add_argument("--detector", choices=("zf", "realzf"))
    sw.add_argument("--seed", type=int)
    sw.add_argument("--workers", type=int)
    sw.add_argument("--out", default="results", help="output directory (default: results)")
    return parser


def _configure(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    overrides = {}
    if args.snr:
        overrides["snr_grid_db"] = parse_snr_grid(args.snr)
    if args.mod:
        overrides["modulations"] = tuple(m.strip() for m in args.mod.split(","))
    if args.detector:
        overrides["detector"] = args.detector
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    return validate(dataclasses.replace(cfg, **overrides))


def _run_sweep(args) -> int:
    cfg = _configure(args)
    start = time.perf_counter()
    records = sweep(cfg)
    wall = time.perf_counter() - start
    gains = compute_gains(records, cfg)
    paths = emit_results(records, gains, cfg, args.out, wall)
    for r in records:
        print(
            f"{r.modulation:>6s} @ {r.snr_db:+6.1f} dB: "
            f"ber={r.ber:.6e} ({r.errors}/{r.bits} bits, ci95={r.ci95:.2e})"
        )
    for g in gains:
        note = f"  [{g.flag}]" if g.flag else ""
        print(
            f"gain {g.modulation:>6s} vs {g.reference} @ {g.at_snr_db:+.1f} dB: "
            f"{g.gain_db:.3f} dB{note}"
        )
    print(f"wrote {paths['ber']}, {paths['gains']}, {paths['manifest']} ({wall:.1f} s)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _run_sweep(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
