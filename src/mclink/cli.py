"""Command line front end.

    sim sweep [--config FILE] [--snr a:step:b] [--mod qpsk,64qam,...]
              [--detector zf|realzf] [--seed N] [--workers N] [--out DIR]

Each value flag is read exactly like its field's line in a config file.
Exit codes: 0 success, 1 usage or configuration error, 2 runtime/numeric error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import __version__
from .config import SimConfig, _parse_value, load_config
from .engine import sweep
from .errors import ConfigError
from .results import OUTPUT_FILES, compute_gains, emit_results


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, like a bad config value
        raise ConfigError(f"{self.prog}: {message}")


#: The flags of ``sweep`` that take a value.
_VALUE_FLAGS = ("--config", "--snr", "--mod", "--detector", "--seed", "--workers", "--out")


def _join_values(argv: list[str]) -> list[str]:
    """Read ``--flag value`` as ``--flag=value`` for every value flag, so a
    value starting with one ``-`` (``--snr -5:5:0``) is not taken for a flag.
    A flag followed by nothing or by a ``--`` argument is left for argparse."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in _VALUE_FLAGS and not arg.startswith("--"):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="run a BER sweep over modulations x SNR grid")
    sw.add_argument("--config", help="flat key=value config file")
    # a value flag's dest is the SimConfig field it sets (see _configure)
    sw.add_argument("--snr", dest="snr_grid_db", help="SNR grid, 'start:step:stop' or comma list (dB)")
    sw.add_argument("--mod", dest="modulations", help="comma-separated modulation names")
    sw.add_argument("--detector", help="zf or realzf")
    sw.add_argument("--seed")
    sw.add_argument("--workers")
    sw.add_argument("--out", default="results", help="output directory (default: results)")
    return parser


def _configure(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cfg)}
    return dataclasses.replace(cfg, **{
        name: _parse_value(name, text, getattr(cfg, name))
        for name, text in flags.items() if text is not None
    })


def _run_sweep(args) -> int:
    cfg = _configure(args)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot use as the output directory: {exc}") from exc
    for name in OUTPUT_FILES.values():
        if (out / name).is_dir():
            raise ConfigError(f"--out {out}: {name} is a directory and cannot be replaced")
    start = time.perf_counter()
    records = sweep(cfg)
    wall = time.perf_counter() - start
    gains = compute_gains(records, cfg)
    paths = emit_results(records, gains, cfg, out, wall)
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
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser().parse_args(_join_values(argv))
        return _run_sweep(args)  # "sweep" is the only subcommand
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
