"""Simulation configuration: a self-checking dataclass and its text reader.

The dataclass defaults are the full-size system (6400 subcarriers,
1280-sample prefix, -10..20 dB sweep, Alamouti 2x4).  ``fast_profile``
shrinks only the multicarrier frame so smoke tests and statistical checks run
at desk scale with identical math.  The bit stages (PRBS-23 source, 8-chip
spreading, K=3 (7,5) code) are fixed constants of ``bits`` and not fields:
every run spreads and codes.  The measurement protocol is fixed too: a point
stops on ``engine.MAX_BIT_ERRORS`` errors, and ``results.GAIN_REFERENCE`` at
``results.GAIN_AT_SNR_DB`` is the reference of every gain.

A ``SimConfig`` checks itself when built (constructor, ``dataclasses.replace``
or ``load_config``) and raises ``ConfigError``.  Config file values and CLI
flags are both read by ``_parse_value``, as the type of the field's default;
the two list fields as comma lists (the SNR grid also as 'start:step:stop').
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from . import modem
from .errors import ConfigError

#: Largest frame and chunk a ``SimConfig`` accepts.  One QPSK chunk (the most
#: symbols per payload bit) peaked in a fresh process at 41 MiB RSS on the fast
#: frame, 67 MiB at 250,000 payload bits (95 at 500,000) and 125 MiB at
#: 65,536 subcarriers (372 at 262,144), 30 MiB of each being the imports.
MAX_SUBCARRIERS = 65_536
MAX_CHUNK_PAYLOAD_BITS = 250_000

#: Most sweep threads a ``SimConfig`` accepts.  The sweep pool starts one thread
#: per busy grid point, up to ``workers``, and a sweep can have thousands of
#: points.  This bounds threads, not memory: each in-flight chunk holds its
#: own arrays, 17 MiB above the imports for a QPSK chunk at the default size.
MAX_WORKERS = 64

#: Largest finite |SNR| in dB a grid accepts.  The noise variance
#: 10^(-snr/10) overflows below about -3,083 dB and reaches 0, which switches
#: the noise off unasked, near +3,240 dB; within +-300 dB it and the symbol
#: Es/N0 stay finite and non-zero.  +inf stays valid: it switches the noise off.
MAX_SNR_DB = 300.0

#: What a field accepts, by the type of its default; a bool is no number here.
_KINDS = {int: numbers.Integral, float: numbers.Real, str: str, tuple: (tuple, list)}


def _plain(name: str, value, default):
    """``value`` as a plain value of ``default``'s type (tuple items as its
    first item's); ConfigError if it is of another kind."""
    if isinstance(default, tuple) and isinstance(value, (tuple, list)):
        return tuple(_plain(name, v, default[0]) for v in value)
    kind = type(default)
    if not isinstance(value, _KINDS[kind]) or isinstance(value, bool):
        raise ConfigError(f"{name} must be {kind.__name__}, not {type(value).__name__} {value!r}")
    return kind(value)


@dataclass(frozen=True)
class SimConfig:
    modulations: tuple[str, ...] = modem.SCHEMES
    snr_grid_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_subcarriers: int = 6400
    cp_len: int = 1280
    detector: str = "zf"               # zf | realzf
    seed: int = 20240
    min_bits: int = 100_000
    max_bits: int = 1_000_000
    workers: int = 1
    # receive antennas (n_rx = 1 is the Alamouti 2x1 reference)
    n_rx: int = 4
    # Monte Carlo batching: payload bits per FEC frame and frames per chunk;
    # results are deterministic in (config, seed) including these two.
    frame_payload_bits: int = 200
    frames_per_chunk: int = 125

    def __post_init__(self):
        """ConfigError on a mistyped or inconsistent field; stores plain values and canonical names."""
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _plain(f.name, getattr(self, f.name), f.default))
        try:
            mods = tuple(modem.get_constellation(m).name for m in self.modulations)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        if not mods:
            raise ConfigError("at least one modulation is required")
        if len(set(mods)) != len(mods):
            raise ConfigError("duplicate modulations in list")
        if not self.snr_grid_db or any(
            b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])
        ):
            raise ConfigError("snr_grid_db must be non-empty and strictly increasing")
        if not all(abs(snr) <= MAX_SNR_DB or snr == math.inf for snr in self.snr_grid_db):
            raise ConfigError(f"snr_grid_db values must lie within +-{MAX_SNR_DB:g} dB or be +inf")
        if not 1 <= self.n_subcarriers <= MAX_SUBCARRIERS or not 0 <= self.cp_len <= self.n_subcarriers:
            raise ConfigError(f"invalid subcarrier/CP sizes (at most {MAX_SUBCARRIERS} subcarriers)")
        if self.detector not in ("zf", "realzf"):
            raise ConfigError(f"unknown detector {self.detector!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 1 <= self.n_rx <= 4:
            raise ConfigError("n_rx must be between 1 and 4")
        if self.min_bits < 10_000:
            raise ConfigError("min_bits must be at least 10000")
        if self.max_bits < self.min_bits:
            raise ConfigError("max_bits must be >= min_bits")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must be between 1 and {MAX_WORKERS}")
        if self.frame_payload_bits < 1 or self.frames_per_chunk < 1:
            raise ConfigError("chunking sizes must be positive")
        if self.chunk_payload_bits > MAX_CHUNK_PAYLOAD_BITS:
            raise ConfigError(f"a chunk holds at most {MAX_CHUNK_PAYLOAD_BITS} payload bits")
        object.__setattr__(self, "modulations", mods)

    @property
    def chunk_payload_bits(self) -> int:
        return self.frame_payload_bits * self.frames_per_chunk


def fast_profile(**overrides) -> SimConfig:
    """Desk-scale frame (256 subcarriers, 64 CP); everything else unchanged."""
    base = dict(n_subcarriers=256, cp_len=64)
    base.update(overrides)
    return SimConfig(**base)


#: Most grid points an 'a:step:b' SNR range may expand to.
MAX_SNR_POINTS = 1000


def parse_snr_grid(text: str) -> tuple[float, ...]:
    """Either 'a:step:b' (inclusive of b within half a step) or 'a,b,c'.

    A range needs a finite start, step and stop and at most
    ``MAX_SNR_POINTS`` points.  List entries are checked by ``SimConfig``,
    which keeps +inf (noise off) and rejects NaN, -inf and finite values
    beyond +-``MAX_SNR_DB``.
    """
    text = text.strip()
    try:
        values = [float(p) for p in text.split(":" if ":" in text else ",")]
    except ValueError as exc:
        raise ConfigError(f"cannot read SNR grid {text!r}: {exc}") from None
    if ":" not in text:
        return tuple(values)
    if len(values) != 3:
        raise ConfigError(f"SNR range {text!r} must be start:step:stop")
    start, step, stop = values
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"SNR range {text!r} needs a finite start, step and stop")
    if step <= 0:
        raise ConfigError("SNR step must be positive")
    # points start + i * step for i = 0 .. floor(bound), up to stop + step / 2
    bound = (stop - start) / step + 0.5
    if not bound < MAX_SNR_POINTS:
        raise ConfigError(f"SNR range {text!r} has more than {MAX_SNR_POINTS} points")
    count = math.floor(bound) + 1 if bound >= 0 else 0  # -inf if the span overflows
    return tuple(round(start + i * step, 9) for i in range(count))


def _parse_value(name: str, text: str, default):
    """Read ``text`` as the type of the field's ``default``; ConfigError if
    it cannot be read."""
    text = text.strip()
    if name == "snr_grid_db":
        return parse_snr_grid(text)
    if name == "modulations":
        return tuple(p.strip() for p in text.split(",") if p.strip())
    try:
        return type(default)(text)  # int or str
    except ValueError:
        raise ConfigError(f"cannot read {name} = {text!r} as {type(default).__name__}") from None


def load_config(path) -> SimConfig:
    """Read flat key=value text; unset fields keep the package defaults."""
    defaults = dataclasses.asdict(SimConfig())
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            values[key] = _parse_value(key, text, defaults[key])
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return SimConfig(**values)
