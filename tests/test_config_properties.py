"""Property tests for the SNR grid parser and the config validator."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclink import SimConfig
from mclink.config import MAX_SNR_DB, MAX_SNR_POINTS, parse_snr_grid
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
