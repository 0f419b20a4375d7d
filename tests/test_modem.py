import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from point_table import COMMITTED, min_distance, read_point_table, write_point_table

from mclink import modem
from mclink.errors import FramingError

ALL = [modem.CONSTELLATIONS[name] for name in modem.SCHEMES]
SQUARE = [c for c in ALL if c.pam_bits]


def labels_to_bits(label: int, width: int) -> list[int]:
    return [(label >> (width - 1 - i)) & 1 for i in range(width)]


@pytest.mark.parametrize("c", ALL, ids=lambda c: c.name)
def test_unit_average_energy(c):
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("c", ALL, ids=lambda c: c.name)
def test_labels_distinct_points(c):
    assert len({complex(p) for p in c.points}) == c.order


@pytest.mark.parametrize("name", ["qpsk", "8psk", "16qam", "64qam", "8qam"])
def test_gray_adjacency_by_enumeration(name):
    """Every nearest-neighbor pair differs in exactly one label bit."""
    c = modem.CONSTELLATIONS[name]
    p = c.points
    d = np.abs(p[:, None] - p[None, :])
    d_min = d[d > 1e-12].min()
    for i, j in zip(*np.nonzero(np.isclose(d, d_min))):
        if i < j:
            assert bin(i ^ j).count("1") == 1, (i, j)


@pytest.mark.parametrize("c", ALL, ids=lambda c: c.name)
def test_demap_inverts_map_on_all_labels(c):
    bits = np.concatenate(
        [labels_to_bits(v, c.bits_per_symbol) for v in range(c.order)]
    ).astype(np.uint8)
    symbols = modem.map_bits(bits, c)
    assert np.array_equal(modem.demap_symbols(symbols, c), bits)


@pytest.mark.parametrize("c", ALL, ids=lambda c: c.name)
def test_demap_unchanged_across_chunk_sizes(c):
    rng = np.random.default_rng(c.order)
    noisy = rng.standard_normal((7, 611)) + 1j * rng.standard_normal((7, 611))
    # exact midpoints between neighbouring points exercise the tie rule
    mids = ((c.points[:, None] + c.points[None, :]) / 2).reshape(1, -1)
    for symbols in (noisy, mids):
        whole = modem._demap_nearest(symbols, c, chunk=symbols.size)
        for chunk in (1, 3, 64, 2048, 1 << 15):
            assert np.array_equal(modem._demap_nearest(symbols, c, chunk=chunk), whole)
        assert np.array_equal(modem._demap_nearest(symbols, c), whole)


@pytest.mark.parametrize("c", ALL, ids=lambda c: c.name)
def test_pam_bits_match_grid(c):
    n = c.pam_bits
    if c.name in ("qpsk", "16qam", "64qam"):
        assert 2 * n == c.bits_per_symbol
        axis = modem._pam_axis(n)
        labels = np.arange(c.order)
        assert np.array_equal(c.grid, axis[labels >> n] + 1j * axis[labels & (2**n - 1)])
    else:
        assert n == 0


def _grid_domain(c):
    """The same labels with unit scale, so inputs are exact grid coordinates."""
    return dataclasses.replace(c, scale=1.0)


@pytest.mark.parametrize("c", SQUARE, ids=lambda c: c.name)
def test_slicer_equals_table_search(c):
    g = _grid_domain(c)
    edge = 1 << c.pam_bits
    rng = np.random.default_rng(c.order + 1)
    noisy = (rng.standard_normal((5, 300)) + 1j * rng.standard_normal((5, 300))) * edge
    even = np.arange(-edge, edge + 1, 2.0)
    both_axes = (even[:, None] + 1j * even[None, :]).reshape(-1)
    other = rng.uniform(-edge - 1, edge + 1, (even.size, 20))
    one_axis = np.concatenate([(even[:, None] + 1j * other).reshape(-1),
                               (other + 1j * even[:, None]).reshape(-1)])
    cases = [noisy, both_axes, one_axis]
    for far in (1e3, 1e8):
        signs = rng.choice([-1.0, 1.0], (2, 200))
        cases += [far * (signs[0] + 1j * signs[1]) + noisy[0, :200],
                  far * signs[0] + 1j * noisy[0, :200].imag,
                  noisy[0, :200].real + 1j * far * signs[1]]
    for symbols in cases:
        assert np.array_equal(modem.demap_symbols(symbols, g), modem._demap_nearest(symbols, g))
    # the unit-energy constellation decides the same way after its own scaling
    z = noisy / c.scale
    b = c.bits_per_symbol
    for shaped, shape in ((z[0, 0], (b,)), (z[0], (300 * b,)), (z, (5, 300 * b))):
        out = modem.demap_symbols(shaped, c)
        assert out.shape == shape
        assert np.array_equal(out, modem._demap_nearest(shaped, c))


def test_far_off_axis_estimate_keeps_nearest_level():
    """From about 3e8 grid units out on one axis, the table's summed squared
    distances round both Q candidates to one value and the tie goes to the
    lower label; the slicer still takes the nearest Q level."""
    g = _grid_domain(modem.CONSTELLATIONS["qpsk"])
    z = np.array([1e9 - 0.5j])
    assert modem.demap_symbols(z, g).tolist() == [0, 1]
    assert modem._demap_nearest(z, g).tolist() == [0, 0]


@pytest.mark.parametrize("c", SQUARE, ids=lambda c: c.name)
def test_nan_axis_decides_zero_bits(c):
    """A NaN coordinate gives its axis label 0; the other axis is still sliced.
    A NaN on both axes is label 0, as in the table search."""
    n = c.pam_bits
    corner = c.points[-1]  # all-ones label on both axes
    z = np.array([complex(np.nan, np.nan), complex(np.nan, corner.imag),
                  complex(corner.real, np.nan)])
    expected = [0] * 2 * n + [0] * n + [1] * n + [1] * n + [0] * n
    assert modem.demap_symbols(z, c).tolist() == expected
    assert modem._demap_nearest(z[:1], c).tolist() == expected[: 2 * n]


def test_qpsk_reference_point():
    c = modem.CONSTELLATIONS["qpsk"]
    sym = modem.map_bits(np.array([0, 0], np.uint8), c)
    assert abs(sym[0] - (1 + 1j) / np.sqrt(2)) < 1e-15


def test_qpsk_label_energy_mean():
    c = modem.CONSTELLATIONS["qpsk"]
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-15


def test_16qam_levels():
    c = modem.CONSTELLATIONS["16qam"]
    # grid energy: 4 points at each |re| in {1,3} per axis -> mean 10
    expected = sum(2 * v * v for v in (1, 3)) / 4 * 2
    assert expected == 10
    levels = sorted(set(np.round(c.points.real * np.sqrt(10)).astype(int)))
    assert levels == [-3, -1, 1, 3]
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12


def test_qpsk_demap_first_quadrant():
    c = modem.CONSTELLATIONS["qpsk"]
    assert modem.demap_symbols(np.array([0.9 + 0.8j]), c).tolist() == [0, 0]


def test_64qam_midpoint_tie_breaks_to_lower_label():
    c = modem.CONSTELLATIONS["64qam"]
    # adjacent pair straddling the imaginary axis: re = -1, +1 at equal im
    re = np.round(c.grid.real).astype(int)
    im = np.round(c.grid.imag).astype(int)
    pairs = [
        (i, j)
        for i in range(64)
        for j in range(64)
        if re[i] == -1 and re[j] == 1 and im[i] == im[j]
    ]
    assert pairs
    for i, j in pairs:
        midpoint = (c.points[i] + c.points[j]) / 2
        decided = modem.demap_symbols(np.array([midpoint]), c)
        expected = labels_to_bits(min(i, j), 6)
        assert decided.tolist() == expected


def test_min_distance_ordering():
    d = {name: min_distance(modem.CONSTELLATIONS[name]) for name in modem.SCHEMES}
    assert d["qpsk"] > d["8qam"] > d["8psk"] >= d["16qam"] > d["32qam"] > d["64qam"]
    assert d["8psk"] == pytest.approx(2 * np.sin(np.pi / 8), abs=1e-12)
    assert d["16qam"] == pytest.approx(2 / np.sqrt(10), abs=1e-12)


def test_map_rejects_partial_symbol():
    with pytest.raises(FramingError):
        modem.map_bits(np.zeros(5, np.uint8), modem.CONSTELLATIONS["qpsk"])


def test_name_aliases():
    assert modem.get_constellation("64-QAM").name == "64qam"
    assert modem.get_constellation("QPSK").name == "qpsk"
    with pytest.raises(KeyError):
        modem.get_constellation("256qam")


def test_point_table_roundtrip(tmp_path):
    path = tmp_path / "points.csv"
    write_point_table(path)
    tables = read_point_table(path)
    assert set(tables) == set(modem.SCHEMES)
    for name in modem.SCHEMES:
        assert np.array_equal(tables[name], modem.CONSTELLATIONS[name].points)


def test_committed_fixture_matches_generated(tmp_path):
    regenerated = tmp_path / "points.csv"
    write_point_table(regenerated)
    assert COMMITTED.read_bytes() == regenerated.read_bytes()


def test_demap_agrees_with_fixture_nearest_point(tmp_path):
    """Brute-force nearest point from the fixture file as demapper oracle."""
    path = tmp_path / "points.csv"
    write_point_table(path)
    tables = read_point_table(path)
    rng = np.random.default_rng(11)
    symbols = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    for name in modem.SCHEMES:
        c = modem.CONSTELLATIONS[name]
        points = tables[name]
        dists = np.abs(symbols[:, None] - points[None, :])
        labels = dists.argmin(axis=1)
        expected = np.concatenate(
            [labels_to_bits(int(v), c.bits_per_symbol) for v in labels]
        )
        assert np.array_equal(modem.demap_symbols(symbols, c), expected)


@given(st.sampled_from(modem.SCHEMES), st.data())
def test_roundtrip_random_bits(name, data):
    c = modem.CONSTELLATIONS[name]
    n_sym = data.draw(st.integers(1, 40))
    bits = np.array(
        data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=n_sym * c.bits_per_symbol,
                max_size=n_sym * c.bits_per_symbol,
            )
        ),
        np.uint8,
    )
    assert np.array_equal(modem.demap_symbols(modem.map_bits(bits, c), c), bits)


def test_map_preserves_batch_shape():
    c = modem.CONSTELLATIONS["8psk"]
    bits = np.zeros((4, 9), np.uint8)
    symbols = modem.map_bits(bits, c)
    assert symbols.shape == (4, 3)
    assert modem.demap_symbols(symbols, c).shape == (4, 9)
