import math

import numpy as np
import pytest
from scipy import stats

from mclink.channel import NoiseConfig, apply_channel, complex_normal, draw_channel


def complex_normal_two_draws(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def apply_channel_einsum(x, h, noise, rng):
    n_tx, n_slots, n_sc = x.shape
    xb = x.reshape(n_tx, h.shape[0], -1, n_sc)
    y = np.einsum("bnji,ibcn->jbcn", h, xb).reshape(h.shape[2], n_slots, n_sc)
    if noise.sigma2 > 0.0:
        y = y + complex_normal_two_draws(rng, y.shape) * np.sqrt(noise.sigma2)
    return y


def test_noise_config_formula():
    assert NoiseConfig(0.0).sigma2 == pytest.approx(1.0)
    assert NoiseConfig(10.0).sigma2 == pytest.approx(0.1)
    assert NoiseConfig(-5.0).sigma2 == pytest.approx(10 ** 0.5)
    assert NoiseConfig(math.inf).sigma2 == 0.0


def test_draw_deterministic_under_seed():
    a = draw_channel(np.random.default_rng(42), 16, n_blocks=3)
    b = draw_channel(np.random.default_rng(42), 16, n_blocks=3)
    assert np.array_equal(a, b)
    assert a.shape == (3, 16, 4, 2)


def test_entry_power_near_unity():
    h = draw_channel(np.random.default_rng(7), 8, n_blocks=12500)
    power = np.mean(np.abs(h) ** 2, axis=(0, 1))  # average over 1e5 draws per entry
    assert power.shape == (4, 2)
    assert np.all(power > 0.99) and np.all(power < 1.01)


def test_magnitude_is_rayleigh():
    h = draw_channel(np.random.default_rng(3), 1, n_blocks=20000)
    magnitudes = np.abs(h[:, 0, 0, 0])
    result = stats.kstest(magnitudes, "rayleigh", args=(0, 1 / np.sqrt(2)))
    assert result.pvalue > 0.01


def test_cross_subcarrier_independence():
    h = draw_channel(np.random.default_rng(5), 2, n_blocks=100_000)
    a = h[:, 0, 0, 0]
    b = h[:, 1, 0, 0]
    for x, y in ((a.real, b.real), (a.imag, b.imag), (np.abs(a) ** 2, np.abs(b) ** 2)):
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.02


def _identity_like_channel(n_sc):
    # receive antenna 1 sees stream 1 only, antenna 2 sees stream 2 only
    h = np.zeros((1, n_sc, 4, 2), dtype=complex)
    h[:, :, 0, 0] = 1.0
    h[:, :, 1, 1] = 1.0
    return h


def test_identity_channel_noise_off():
    rng = np.random.default_rng(0)
    n_sc = 6
    x = rng.standard_normal((2, 2, n_sc)) + 1j * rng.standard_normal((2, 2, n_sc))
    y = apply_channel(x, _identity_like_channel(n_sc), NoiseConfig(math.inf), rng)
    assert np.allclose(y[0], x[0], atol=1e-15)
    assert np.allclose(y[1], x[1], atol=1e-15)
    assert np.all(y[2] == 0) and np.all(y[3] == 0)


def test_noise_only_variance_at_zero_db():
    rng = np.random.default_rng(8)
    n_sc = 500
    n_blocks = 50
    x = np.zeros((2, 2 * n_blocks, n_sc), dtype=complex)
    h = draw_channel(rng, n_sc, n_blocks=n_blocks)
    y = apply_channel(x, h, NoiseConfig(0.0), rng)
    for j in range(4):
        var = np.mean(np.abs(y[j]) ** 2)
        assert 0.97 < var < 1.03


def test_linearity_noise_off():
    rng = np.random.default_rng(9)
    n_sc, n_blocks = 12, 4
    h = draw_channel(np.random.default_rng(1), n_sc, n_blocks=n_blocks)
    x = rng.standard_normal((2, 8, n_sc)) + 1j * rng.standard_normal((2, 8, n_sc))
    c = 0.7 - 1.3j
    y1 = apply_channel(x, h, NoiseConfig(math.inf), rng)
    y2 = apply_channel(c * x, h, NoiseConfig(math.inf), rng)
    assert np.allclose(y2, c * y1, atol=1e-12)


def test_noise_variance_matches_config():
    rng = np.random.default_rng(10)
    x = np.zeros((2, 2, 50_000), dtype=complex)
    h = draw_channel(rng, 50_000, n_blocks=1)
    for snr_db in (-10.0, 0.0, 7.0):
        y = apply_channel(x, h, NoiseConfig(snr_db), np.random.default_rng(11))
        sigma2 = NoiseConfig(snr_db).sigma2
        measured = np.mean(np.abs(y) ** 2)
        assert abs(measured - sigma2) / sigma2 < 0.03


def test_received_statistics_match_model():
    # y = H a + n with unit-energy inputs: per-antenna power = 2 + sigma2
    rng = np.random.default_rng(12)
    n_sc, n_blocks = 256, 200
    h = draw_channel(rng, n_sc, n_blocks=n_blocks)
    x = (
        rng.standard_normal((2, 2 * n_blocks, n_sc))
        + 1j * rng.standard_normal((2, 2 * n_blocks, n_sc))
    ) * np.sqrt(0.5)
    y = apply_channel(x, h, NoiseConfig(0.0), rng)
    assert abs(np.mean(np.abs(y) ** 2) - 3.0) < 0.1


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(13)
    h = draw_channel(rng, 8, n_blocks=2)
    with pytest.raises(ValueError):
        apply_channel(np.zeros((3, 4, 8), dtype=complex), h, NoiseConfig(0.0), rng)
    with pytest.raises(ValueError):
        apply_channel(np.zeros((2, 5, 8), dtype=complex), h, NoiseConfig(0.0), rng)
    with pytest.raises(ValueError):
        apply_channel(np.zeros((2, 4, 9), dtype=complex), h, NoiseConfig(0.0), rng)
    with pytest.raises(ValueError):  # a single transmit antenna
        apply_channel(np.zeros((1, 4, 8), dtype=complex), h[..., :1], NoiseConfig(0.0), rng)


# draws run in tiles of 1 << 15 normals: the last three shapes span
# several tiles, exactly two, and one value more than a tile
@pytest.mark.parametrize("shape", [(), 5, (3,), (4, 0), (2, 3, 4, 2),
                                   (3, 20_000), (2, 1 << 15), (1 << 15) + 1])
def test_complex_normal_equals_two_draw_formula(shape):
    a_rng = np.random.default_rng(21)
    b_rng = np.random.default_rng(21)
    a = complex_normal(a_rng, shape)
    b = complex_normal_two_draws(b_rng, shape)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert a_rng.standard_normal() == b_rng.standard_normal()  # same stream position


@pytest.mark.parametrize("snr_db", [math.inf, 3.0])
def test_apply_channel_matches_einsum_reference(snr_db):
    rng = np.random.default_rng(22)
    n_blocks, n_sc = 5, 12
    h = complex_normal(rng, (n_blocks, n_sc, 3, 2))
    x = complex_normal(rng, (2, 2 * n_blocks, n_sc))
    y = apply_channel(x, h, NoiseConfig(snr_db), np.random.default_rng(23))
    ref = apply_channel_einsum(x, h, NoiseConfig(snr_db), np.random.default_rng(23))
    assert y.shape == ref.shape == (3, 2 * n_blocks, n_sc)
    assert np.max(np.abs(y - ref)) <= 1e-12


def apply_channel_full_noise(x, h, noise, rng):
    """The untiled noise formula: one full-size CN(0, 1) draw, times
    sqrt(sigma2), added to the noise-free mix."""
    y = apply_channel(x, h, NoiseConfig(math.inf), rng)
    if noise.sigma2 > 0.0:
        noise_draw = complex_normal_two_draws(rng, y.shape)
        noise_draw *= np.sqrt(noise.sigma2)
        y += noise_draw
    return y


@pytest.mark.parametrize(
    "n_rx,n_blocks,n_sc",
    [
        (1, 9, 7),          # the 2x1 reference, less than a tile
        (1, 150, 256),      # 2x1, 76800 samples: 2 whole tiles and a part
        (4, 5, 7),
        (4, 41, 256),       # 83968 samples, not a multiple of a tile
        (2, 32, 256),       # 32768 samples, exactly one tile per part
    ],
)
@pytest.mark.parametrize("snr_db", [-5.0, 12.0])
def test_apply_channel_tiled_noise_equals_full_draw(n_rx, n_blocks, n_sc, snr_db):
    rng = np.random.default_rng(32)
    h = complex_normal(rng, (n_blocks, n_sc, n_rx, 2))
    x = complex_normal(rng, (2, 2 * n_blocks, n_sc))
    a_rng = np.random.default_rng(33)
    b_rng = np.random.default_rng(33)
    y = apply_channel(x, h, NoiseConfig(snr_db), a_rng)
    ref = apply_channel_full_noise(x, h, NoiseConfig(snr_db), b_rng)
    assert np.array_equal(y, ref)
    assert a_rng.standard_normal() == b_rng.standard_normal()  # same stream position
