"""Simulation configuration: dataclass, named profiles, flat-file parser.

The dataclass defaults match the full system profile (6400 subcarriers,
1280-sample prefix, -10..20 dB sweep, 2x4 antennas, spreading factor 8,
rate-1/2 K=3 code).  The ``fast`` profile shrinks only the multicarrier frame
so smoke tests and statistical checks run at desk scale with identical math.

Config files are flat ``key = value`` text.  Tap sets and code generators are
written in octal ('7,5'); chip sequences as comma-separated bits.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import modem
from .errors import ConfigError

#: ITU O.151 PRBS-23 polynomial x^23 + x^18 + 1 for the message source.
MESSAGE_TAPS_DEFAULT = (1 << 23) | (1 << 18) | 1


@dataclass(frozen=True)
class SimConfig:
    modulations: tuple[str, ...] = ("qpsk", "8psk", "8qam", "16qam", "32qam", "64qam")
    snr_grid_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_subcarriers: int = 6400
    cp_len: int = 1280
    spreading_chips: tuple[int, ...] = (1, 0, 1, 1, 0, 0, 1, 0)
    conv_constraint_length: int = 3
    conv_generators: tuple[int, int] = (0o7, 0o5)
    detector: str = "zf"               # zf | realzf
    seed: int = 20240
    min_bits: int = 100_000
    max_bit_errors: int = 100
    max_bits: int = 1_000_000
    workers: int = 1
    # antenna setup and stage toggles (diagnostics / reference runs)
    n_rx: int = 4
    tx_mode: str = "alamouti"          # alamouti | siso
    spreading: bool = True
    fec: bool = True
    # SNR axis semantics; both were measured against the target BER bands and
    # only this combination lands them (see README "SNR reference"):
    #  - snr_reference "eb": per-modulation Es/N0 = snr + 10*log10(bits/sym *
    #    code rate); "es" uses the grid value as Es/N0 directly
    #  - split_tx_power False drives each antenna at unit symbol energy;
    #    True splits unit total power across the 2 antennas (-3 dB)
    snr_reference: str = "eb"
    split_tx_power: bool = False
    message_taps: int = MESSAGE_TAPS_DEFAULT
    # Monte Carlo batching: payload bits per FEC frame and frames per chunk;
    # results are deterministic in (config, seed) including these two.
    frame_payload_bits: int = 200
    frames_per_chunk: int = 125
    gain_reference: str = "64qam"
    gain_at_snr_db: float = -5.0

    @property
    def chunk_payload_bits(self) -> int:
        return self.frame_payload_bits * self.frames_per_chunk


def validate(cfg: SimConfig) -> SimConfig:
    """Raise ConfigError on any inconsistent field; returns cfg for chaining."""
    try:
        mods = tuple(modem.get_constellation(m).name for m in cfg.modulations)
        ref = modem.get_constellation(cfg.gain_reference).name
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    if not mods:
        raise ConfigError("at least one modulation is required")
    if len(set(mods)) != len(mods):
        raise ConfigError("duplicate modulations in list")
    if not cfg.snr_grid_db or any(
        b <= a for a, b in zip(cfg.snr_grid_db, cfg.snr_grid_db[1:])
    ):
        raise ConfigError("snr_grid_db must be non-empty and strictly increasing")
    if any(math.isnan(snr) or snr == -math.inf for snr in cfg.snr_grid_db):
        # +inf stays valid: it switches the noise off
        raise ConfigError("snr_grid_db values must be numbers or +inf, not NaN or -inf")
    if cfg.n_subcarriers < 1 or not 0 <= cfg.cp_len <= cfg.n_subcarriers:
        raise ConfigError("invalid subcarrier/CP sizes")
    if cfg.detector not in ("zf", "realzf"):
        raise ConfigError(f"unknown detector {cfg.detector!r}")
    if cfg.snr_reference not in ("es", "eb"):
        raise ConfigError(f"unknown snr_reference {cfg.snr_reference!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.tx_mode not in ("alamouti", "siso"):
        raise ConfigError(f"unknown tx_mode {cfg.tx_mode!r}")
    if cfg.tx_mode == "alamouti" and not 1 <= cfg.n_rx <= 4:
        raise ConfigError("n_rx must be between 1 and 4")
    if cfg.min_bits < 10_000:
        raise ConfigError("min_bits must be at least 10000")
    if cfg.max_bits < cfg.min_bits:
        raise ConfigError("max_bits must be >= min_bits")
    if cfg.max_bit_errors < 1 or cfg.workers < 1:
        raise ConfigError("max_bit_errors and workers must be positive")
    if cfg.frame_payload_bits < 1 or cfg.frames_per_chunk < 1:
        raise ConfigError("chunking sizes must be positive")
    if cfg.message_taps.bit_length() - 1 > 63:
        # the engine seeds the register with rng.integers(1, 1 << degree)
        raise ConfigError("message_taps degree must be at most 63")
    try:
        from .bits import ConvCode, Prbs, SpreadingCode

        SpreadingCode(cfg.spreading_chips)
        ConvCode(cfg.conv_constraint_length, cfg.conv_generators)
        Prbs(cfg.message_taps, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if (mods, ref) != (cfg.modulations, cfg.gain_reference):
        cfg = dataclasses.replace(cfg, modulations=mods, gain_reference=ref)
    return cfg


def fast_profile(**overrides) -> SimConfig:
    """Desk-scale frame (256 subcarriers, 64 CP); everything else unchanged."""
    base = dict(n_subcarriers=256, cp_len=64)
    base.update(overrides)
    return SimConfig(**base)


#: Named size presets; ``table1``, the full-size system, is the defaults.
PROFILES = {"fast": fast_profile, "table1": SimConfig}


#: Most grid points an 'a:step:b' SNR range may expand to.
MAX_SNR_POINTS = 1000


def parse_snr_grid(text: str) -> tuple[float, ...]:
    """Either 'a:step:b' (inclusive of b within half a step) or 'a,b,c'.

    A range needs a finite start, step and stop and at most
    ``MAX_SNR_POINTS`` points.  List entries are checked by ``validate``,
    which keeps +inf (noise off) and rejects NaN and -inf.
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
    count = math.floor(bound) + 1 if bound >= 0 else 0
    return tuple(round(start + i * step, 9) for i in range(count))


_LIST_FIELDS = {"modulations", "spreading_chips", "conv_generators", "snr_grid_db"}
_OCTAL_FIELDS = {"conv_generators", "message_taps"}
_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _parse_value(name: str, text: str, py_type):
    text = text.strip()
    if name == "snr_grid_db":
        return parse_snr_grid(text)
    if name == "modulations":
        return tuple(p.strip() for p in text.split(",") if p.strip())
    if name in _LIST_FIELDS:
        base = 8 if name in _OCTAL_FIELDS else 10
        return tuple(int(p.strip(), base) for p in text.split(","))
    if py_type is bool:
        try:
            return _BOOL_WORDS[text.lower()]
        except KeyError:
            raise ConfigError(f"cannot read boolean {name} = {text!r}") from None
    if py_type is int:
        return int(text, 8 if name in _OCTAL_FIELDS else 10)
    if py_type is float:
        return float(text)
    return text


def load_config(path, base: SimConfig | None = None) -> SimConfig:
    """Read flat key=value text over ``base`` (package defaults if omitted)."""
    fields = {f.name: f.type for f in dataclasses.fields(SimConfig)}
    types = {"int": int, "float": float, "bool": bool, "str": str}
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            py_type = types.get(str(fields[key]).split("[")[0].strip(), str)
            try:
                values[key] = _parse_value(key, text, py_type)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    cfg = dataclasses.replace(base or SimConfig(), **values)
    return validate(cfg)
