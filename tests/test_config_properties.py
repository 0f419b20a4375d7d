"""Property tests for the SNR grid parser and the config validator."""
import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mclink import SimConfig, modem
from mclink.config import (
    MAX_SNR_DB,
    MAX_SNR_POINTS,
    MAX_SUBCARRIERS,
    MAX_WORKERS,
    load_config,
    parse_snr_grid,
)
from mclink.engine import _run_chunk
from mclink.errors import ConfigError

props = settings(deadline=None, max_examples=150)

# values with at most two decimals, so rounding the grid to 9 decimals
# leaves start exact and no two points merge
hundredths = st.integers(-5000, 5000).map(lambda n: n / 100)
steps = st.integers(1, 1000).map(lambda n: n / 100)
finite = st.floats(allow_nan=False, allow_infinity=False)
in_bound = st.floats(-MAX_SNR_DB, MAX_SNR_DB)
bad_values = st.sampled_from([math.nan, math.inf, -math.inf])


@props
@given(start=hundredths, step=steps, stop_steps=st.floats(0.0, 200.0))
def test_finite_range_grid(start, step, stop_steps):
    stop = start + stop_steps * step
    grid = parse_snr_grid(f"{start!r}:{step!r}:{stop!r}")
    assert grid[0] == start
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert abs(grid[-1] - stop) <= step / 2 + 1e-9
    if grid[-1] <= MAX_SNR_DB:
        assert SimConfig(snr_grid_db=grid).snr_grid_db == grid
    else:
        with pytest.raises(ConfigError):
            SimConfig(snr_grid_db=grid)


@props
@given(values=st.lists(finite, min_size=3, max_size=3), where=st.integers(0, 2), bad=bad_values)
def test_non_finite_range_component_rejected(values, where, bad):
    values[where] = bad
    with pytest.raises(ConfigError):
        parse_snr_grid(":".join(repr(v) for v in values))


@props
@given(start=finite, step=st.floats(0.0, 1e-3, exclude_min=True), stop=finite)
def test_range_point_count_is_bounded(start, step, stop):
    try:
        grid = parse_snr_grid(f"{start!r}:{step!r}:{stop!r}")
    except ConfigError:
        return
    assert len(grid) <= MAX_SNR_POINTS


@props
@given(values=st.lists(finite, min_size=0, max_size=6), where=st.integers(0, 6),
       bad=st.sampled_from([math.nan, -math.inf]))
def test_nan_or_minus_inf_list_entry_rejected(values, where, bad):
    values.insert(min(where, len(values)), bad)
    with pytest.raises(ConfigError):
        SimConfig(snr_grid_db=parse_snr_grid(",".join(repr(v) for v in values)))


@props
@given(values=st.lists(in_bound, min_size=0, max_size=6, unique=True))
def test_plus_inf_list_entry_kept(values):
    grid = tuple(sorted(values)) + (math.inf,)
    text = ",".join(repr(v) for v in grid)
    assert SimConfig(snr_grid_db=parse_snr_grid(text)).snr_grid_db == grid


@props
@given(grid=st.lists(st.floats(), max_size=6).map(tuple))
def test_validate_accepts_exactly_the_usable_grids(grid):
    usable = (
        len(grid) > 0
        and all(b > a for a, b in zip(grid, grid[1:]))
        and not any(math.isnan(v) or v == -math.inf for v in grid)
        and all(abs(v) <= MAX_SNR_DB or v == math.inf for v in grid)
    )
    if usable:
        assert SimConfig(snr_grid_db=grid).snr_grid_db == grid
    else:
        with pytest.raises(ConfigError):
            SimConfig(snr_grid_db=grid)


def mostly(valid, invalid):
    """Draws ``valid``, and ``invalid`` one time in 16."""
    return st.sampled_from([valid] * 15 + [invalid]).flatmap(lambda drawn: drawn)


@st.composite
def config_fields(draw):
    """Every ``SimConfig`` field over a range wider than the accepted one,
    with small frames; the SNR values reach past the bound, where
    10^(-snr/10) overflows or underflows."""
    schemes = st.sampled_from(modem.SCHEMES + ("QPSK",))
    snr_values = st.one_of(
        st.floats(-5000.0, 5000.0),
        st.sampled_from([math.nan, math.inf, -math.inf, -4000.0, 1e308]),
    )
    n_sc = draw(mostly(st.integers(1, 64), st.sampled_from([-1, 0, MAX_SUBCARRIERS + 1])))
    min_bits = draw(mostly(st.integers(10_000, 2_000_000), st.integers(-1, 9_999)))
    return dict(
        modulations=draw(mostly(st.lists(schemes, min_size=1, max_size=3, unique_by=str.lower),
                                st.lists(st.sampled_from(modem.SCHEMES + ("QPSK", "bpsk")),
                                         max_size=3))),
        snr_grid_db=draw(st.lists(in_bound | st.just(math.inf), min_size=1, max_size=3,
                                  unique=True).map(sorted)
                         | st.lists(snr_values, max_size=3).map(sorted)),
        n_subcarriers=n_sc,
        cp_len=draw(mostly(st.integers(0, max(n_sc, 0)), st.integers(-2, n_sc + 2))),
        detector=draw(mostly(st.sampled_from(["zf", "realzf"]), st.just("mmse"))),
        seed=draw(mostly(st.integers(0, 1 << 70), st.integers(-3, -1))),
        min_bits=min_bits,
        max_bits=draw(mostly(st.integers(min_bits, 10_000_000), st.integers(-1, min_bits))),
        workers=draw(mostly(st.integers(1, MAX_WORKERS),
                            st.sampled_from([-1, 0, MAX_WORKERS + 1]))),
        frame_payload_bits=draw(mostly(st.integers(1, 300), st.sampled_from([-1, 0, 250_001]))),
        frames_per_chunk=draw(mostly(st.integers(1, 8), st.integers(-1, 0))),
    )


def config_text(cfg):
    """``cfg`` as config-file lines, one per field."""
    def text(value):
        if isinstance(value, tuple):
            return ",".join(text(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)
    return "".join(f"{f.name} = {text(getattr(cfg, f.name))}\n" for f in dataclasses.fields(cfg))


@settings(deadline=None, max_examples=200)
@example(fields=dict(modulations=["qpsk"], snr_grid_db=[-4000.0], n_subcarriers=8, cp_len=2,
                     detector="zf", seed=1, min_bits=10_000, max_bits=10_000,
                     workers=1, frame_payload_bits=10, frames_per_chunk=1))
@given(fields=config_fields())
def test_every_config_that_builds_runs_a_chunk(tmp_path_factory, fields):
    assert set(fields) == {f.name for f in dataclasses.fields(SimConfig)}
    try:
        cfg = SimConfig(**fields)
    except ConfigError:
        return
    path = tmp_path_factory.mktemp("cfg") / "sim.cfg"
    path.write_text(config_text(cfg), encoding="utf-8")
    assert load_config(path) == cfg
    for modulation in cfg.modulations:
        for snr_db in cfg.snr_grid_db:
            bits, errors, _ = _run_chunk(cfg, modulation, snr_db, 0)
            assert bits == cfg.chunk_payload_bits
            assert 0 <= errors <= bits
