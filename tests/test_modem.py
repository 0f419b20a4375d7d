import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mclink import modem
from mclink.errors import FramingError

ALL = [modem.CONSTELLATIONS[name] for name in modem.SCHEMES]


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
        whole = modem.demap_symbols(symbols, c, chunk=symbols.size)
        for chunk in (1, 3, 64, 2048, 1 << 15):
            assert np.array_equal(modem.demap_symbols(symbols, c, chunk=chunk), whole)
        assert np.array_equal(modem.demap_symbols(symbols, c), whole)


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
    d = {name: modem.CONSTELLATIONS[name].min_distance() for name in modem.SCHEMES}
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
    modem.write_point_table(path)
    tables = modem.read_point_table(path)
    assert set(tables) == set(modem.SCHEMES)
    for name in modem.SCHEMES:
        assert np.array_equal(tables[name], modem.CONSTELLATIONS[name].points)


def test_committed_fixture_matches_generated(tmp_path):
    from pathlib import Path

    committed = Path(modem.__file__).parent / "data" / "constellations.csv"
    regenerated = tmp_path / "points.csv"
    modem.write_point_table(regenerated)
    assert committed.read_bytes() == regenerated.read_bytes()


def test_demap_agrees_with_fixture_nearest_point(tmp_path):
    """Brute-force nearest point from the fixture file as demapper oracle."""
    path = tmp_path / "points.csv"
    modem.write_point_table(path)
    tables = modem.read_point_table(path)
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
