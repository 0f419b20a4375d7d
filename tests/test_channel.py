import math

import numpy as np
import pytest
from scipy import stats

from mclink.channel import NoiseConfig, apply_channel, complex_normal, draw_channel
from mclink.engine import TILE_BLOCKS


def polar_reference(rng, shape):
    """CN(0, 1) from complex_normal's draws, mapped in float64: for each row
    along the first axis, its |z|^2 ~ Exp(1) and then its phases u ~ U[0, 1),
    and z = sqrt(|z|^2) exp(2 pi i u)."""
    energy = np.empty(np.empty(shape).shape or (1,))
    u = np.empty_like(energy)
    for i in range(len(energy)):
        rng.standard_exponential(out=energy[i : i + 1])
        rng.random(out=u[i : i + 1])
    return (np.sqrt(energy) * np.exp(2j * np.pi * u)).reshape(shape)


def assert_polar_close(z, ref):
    """complex_normal's float32 phase keeps each sample within 1e-6 |z|."""
    assert z.shape == ref.shape and z.dtype == ref.dtype
    assert np.all(np.abs(z - ref) <= 1e-6 * np.abs(ref))


def assert_mix_plus_noise(y, mix, noise):
    """y is the mix plus the noise: within 1e-6 of each noise sample's
    magnitude, plus 1e-12 for a mix that rounds differently."""
    assert y.shape == mix.shape == noise.shape
    assert np.all(np.abs(y - mix - noise) <= 1e-6 * np.abs(noise) + 1e-12)


def pair_major(rng, n_blocks, n_rx, n_sc):
    """CN(0, 1) samples drawn as (n_blocks, n_rx, 2, n_sc), the layout of
    both the gains and the noise, and seen as (n_blocks, n_sc, n_rx, 2)."""
    return polar_reference(rng, (n_blocks, n_rx, 2, n_sc)).transpose(0, 3, 1, 2)


def pair_major_noise(rng, n_blocks, n_rx, n_sc, sigma2):
    """CN(0, sigma2) noise drawn pair-major, in apply_channel's
    (n_blocks, n_sc, n_rx, 2) shape."""
    return pair_major(rng, n_blocks, n_rx, n_sc) * np.sqrt(sigma2)


def apply_channel_einsum(x, h):
    """The noise-free mix, y[..., j, s] = sum_i h[..., j, i] x_i[s] per block."""
    n_tx, _, n_sc = x.shape
    n_blocks = h.shape[0]
    xb = x.reshape(n_tx, n_blocks, -1, n_sc)
    return np.einsum("bnji,ibsn->bnjs", h, xb)


def test_noise_config_formula():
    assert NoiseConfig(0.0).sigma2 == pytest.approx(1.0)
    assert NoiseConfig(10.0).sigma2 == pytest.approx(0.1)
    assert NoiseConfig(-5.0).sigma2 == pytest.approx(10 ** 0.5)
    assert NoiseConfig(math.inf).sigma2 == 0.0


@pytest.mark.parametrize("n_rx", [1, 4])
def test_draw_channel_is_one_pair_major_draw(n_rx):
    n_sc, n_blocks = 7, 5
    a_rng, b_rng, c_rng = (np.random.Generator(np.random.SFC64(24)) for _ in range(3))
    h = draw_channel(a_rng, n_sc, n_blocks=n_blocks, n_rx=n_rx)
    ref = pair_major(b_rng, n_blocks, n_rx, n_sc)
    assert h.shape == (n_blocks, n_sc, n_rx, 2)
    assert_polar_close(h, ref)
    # held in the draw layout, the subcarriers innermost
    assert h.transpose(0, 2, 3, 1).flags.c_contiguous
    # draws of consecutive runs of slot pairs concatenate to one draw
    halves = [draw_channel(c_rng, n_sc, n_blocks=k, n_rx=n_rx) for k in (2, n_blocks - 2)]
    assert np.array_equal(np.concatenate(halves), h)
    # same stream position
    assert a_rng.standard_normal() == b_rng.standard_normal() == c_rng.standard_normal()


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
    assert y.shape == (1, n_sc, 4, 2)
    # y[0, :, j] is receive antenna j's (subcarrier, slot) samples
    assert np.allclose(y[0, :, 0].T, x[0], atol=1e-15)
    assert np.allclose(y[0, :, 1].T, x[1], atol=1e-15)
    assert np.all(y[..., 2:, :] == 0)


def test_noise_only_variance_at_zero_db():
    rng = np.random.default_rng(8)
    n_sc = 500
    n_blocks = 50
    x = np.zeros((2, 2 * n_blocks, n_sc), dtype=complex)
    h = draw_channel(rng, n_sc, n_blocks=n_blocks)
    y = apply_channel(x, h, NoiseConfig(0.0), rng)
    for j in range(4):  # receive antenna j
        var = np.mean(np.abs(y[..., j, :]) ** 2)
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


# the formula is the polar draw, one row along the first axis at a time; the
# test keeps its name from an earlier stream (all real parts, then all
# imaginary parts)
@pytest.mark.parametrize("shape", [(), 5, (3,), (4, 0), (2, 3, 4, 2),
                                   (3, 20_000), (2, 1 << 15), (1 << 15) + 1,
                                   (0, 5), (0,)])
def test_complex_normal_equals_two_draw_formula(shape):
    a_rng = np.random.default_rng(21)
    b_rng = np.random.default_rng(21)
    a = complex_normal(a_rng, shape)
    b = polar_reference(b_rng, shape)
    assert_polar_close(a, b)
    assert a_rng.standard_normal() == b_rng.standard_normal()  # same stream position


@pytest.mark.parametrize("snr_db", [math.inf, 3.0])
def test_apply_channel_matches_einsum_reference(snr_db):
    rng = np.random.default_rng(22)
    n_blocks, n_sc = 5, 12
    h = complex_normal(rng, (n_blocks, n_sc, 3, 2))
    x = complex_normal(rng, (2, 2 * n_blocks, n_sc))
    noise = NoiseConfig(snr_db)
    n = pair_major_noise(np.random.default_rng(23), n_blocks, 3, n_sc, noise.sigma2)
    # gains in C order and in draw_channel's layout
    for gains in (h, np.ascontiguousarray(h.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
        y = apply_channel(x, gains, noise, np.random.default_rng(23))
        mix = apply_channel_einsum(x, gains)
        assert y.shape == (n_blocks, n_sc, 3, 2)
        assert_mix_plus_noise(y, mix, n)


# (subcarriers, slot pairs): the engine's tiles of 8 pairs with a remainder
# of 5, and a frame wider than a tile, one pair per tile
@pytest.mark.parametrize("n_sc,n_blocks", [(256, 21), (2500, 3)])
def test_tiled_mix_equals_whole_chunk_reference_exactly(n_sc, n_blocks):
    step = max(1, TILE_BLOCKS // n_sc)
    assert n_blocks > step and (n_blocks % step or step == 1)
    rng = np.random.default_rng(n_sc)
    h = draw_channel(rng, n_sc, n_blocks=n_blocks)
    x = complex_normal(rng, (2, 2 * n_blocks, n_sc))
    # one call per tile of slot pairs, as the engine makes them
    y = np.concatenate([
        apply_channel(x[:, 2 * p : 2 * (p + step)], h[p : p + step], NoiseConfig(math.inf), rng)
        for p in range(0, n_blocks, step)
    ])
    # whole-chunk multiply-add per slot; einsum rounds differently (1 ulp)
    ref = np.stack([h[..., 0] * x[0, s::2, :, None] + h[..., 1] * x[1, s::2, :, None]
                    for s in range(2)], axis=-1)
    assert np.array_equal(y, ref)
    assert np.max(np.abs(y - apply_channel_einsum(x, h))) <= 1e-12


@pytest.mark.parametrize(
    "n_rx,n_blocks,n_sc",
    [
        (1, 9, 7),          # the 2x1 reference
        (1, 150, 256),      # 2x1, 76800 samples
        (4, 5, 7),
        (4, 41, 256),       # halves of 20 and 21 slot pairs
        (2, 32, 256),
    ],
)
@pytest.mark.parametrize("snr_db", [-5.0, 12.0])
def test_apply_channel_tiled_noise_equals_full_draw(n_rx, n_blocks, n_sc, snr_db):
    rng = np.random.default_rng(32)
    h = draw_channel(rng, n_sc, n_blocks=n_blocks, n_rx=n_rx)
    x = complex_normal(rng, (2, 2 * n_blocks, n_sc))
    a_rng = np.random.default_rng(33)
    b_rng = np.random.default_rng(33)
    c_rng = np.random.default_rng(33)
    # the noise formula: one pair-major CN(0, 1) draw of shape
    # (n_blocks, n_rx, 2, n_sc), times sqrt(sigma2), added to the mix
    y = apply_channel(x, h, NoiseConfig(snr_db), a_rng)
    mix = apply_channel(x, h, NoiseConfig(math.inf), b_rng)
    n = pair_major_noise(b_rng, n_blocks, n_rx, n_sc, NoiseConfig(snr_db).sigma2)
    assert_mix_plus_noise(y, mix, n)
    # two calls on the halves of the slot pairs draw what one call on all does
    half = n_blocks // 2
    halves = [apply_channel(x[:, 2 * p.start : 2 * p.stop], h[p], NoiseConfig(snr_db), c_rng)
              for p in (slice(0, half), slice(half, n_blocks))]
    assert np.array_equal(np.concatenate(halves), y)
    # same stream position
    assert a_rng.standard_normal() == b_rng.standard_normal() == c_rng.standard_normal()


def test_complex_normal_distribution():
    # 2^20 samples: each sample mean below has a standard error of
    # sqrt(var / n), and the bounds are 5 of those, a 6e-7 false-alarm rate
    n = 1 << 20
    z = complex_normal(np.random.Generator(np.random.SFC64(2024)), (16, n // 16)).reshape(-1)
    ks = [stats.kstest(np.abs(z) ** 2, "expon"),
          stats.kstest(np.angle(z) % (2 * np.pi), "uniform", args=(0, 2 * np.pi)),
          stats.kstest(z.real, "norm", args=(0, np.sqrt(0.5))),
          stats.kstest(z.imag, "norm", args=(0, np.sqrt(0.5)))]
    assert all(r.pvalue > 1e-3 for r in ks), [r.pvalue for r in ks]
    # Var Re = Var Im = 1/2, each the mean of a square with variance 1/2
    bound = 5 * np.sqrt(0.5 / n)
    assert abs(np.mean(z.real ** 2) - 0.5) < bound
    assert abs(np.mean(z.imag ** 2) - 0.5) < bound
    # E z^2 = 0 for a circular draw; E |z^2|^2 = E |z|^4 = 2
    assert abs(np.mean(z * z)) < 5 * np.sqrt(2 / n)


@pytest.mark.parametrize("rest", [(), (7,), (3, 2, 5)])
def test_complex_normal_rows_concatenate(rest):
    a_rng = np.random.Generator(np.random.SFC64(31))
    b_rng = np.random.Generator(np.random.SFC64(31))
    whole = complex_normal(a_rng, (8,) + rest)
    parts = [complex_normal(b_rng, (k,) + rest) for k in (3, 5)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert a_rng.standard_normal() == b_rng.standard_normal()  # same stream position
