import math

import numpy as np
import pytest

from mclink import modem
from mclink.channel import NoiseConfig, apply_channel, complex_normal, draw_channel
from mclink.errors import FramingError, SingularChannelError
from mclink.mimo import (
    alamouti_effective,
    build_effective,
    real_decomposition,
    realzf_detect,
    stbc_encode,
    zf_detect,
    zf_weights,
)


def random_blocks(rng, n_blocks, n_rx=4, snr_db=10.0, constellation="qpsk"):
    """Random Alamouti blocks through random fading: (h, y, sent_pairs)."""
    c = modem.get_constellation(constellation)
    labels = rng.integers(0, c.order, (n_blocks, 2))
    pairs = c.points[labels]
    h = complex_normal(rng, (n_blocks, n_rx, 2))
    slots = np.empty((n_blocks, 2, 2), dtype=complex)  # (block, antenna, slot)
    slots[:, 0, 0] = pairs[:, 0]
    slots[:, 1, 0] = pairs[:, 1]
    slots[:, 0, 1] = -np.conj(pairs[:, 1])
    slots[:, 1, 1] = np.conj(pairs[:, 0])
    y = np.einsum("bji,bis->bjs", h, slots)
    sigma2 = NoiseConfig(snr_db).sigma2
    if sigma2 > 0:
        y = y + complex_normal(rng, y.shape) * math.sqrt(sigma2)
    return h, y, pairs


class TestStbcEncode:
    def test_reference_pair(self):
        out = stbc_encode(np.array([1.0 + 0j, 1j]))
        assert np.allclose(out[0], [1, 1j])  # -conj(j) = j
        assert np.allclose(out[1], [1j, 1])

    def test_zero_pair(self):
        out = stbc_encode(np.zeros(2, dtype=complex))
        assert np.all(out == 0)

    def test_odd_count_rejected(self):
        with pytest.raises(FramingError):
            stbc_encode(np.zeros(3, dtype=complex))

    def test_block_matrix_orthogonality(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            out = stbc_encode(a)
            block = np.array([[out[0, 0], out[1, 0]], [out[0, 1], out[1, 1]]])
            gram = block @ block.conj().T
            energy = np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2
            assert np.allclose(gram, energy * np.eye(2), atol=1e-12)

    def test_frames_layout(self):
        frames = np.arange(8, dtype=complex).reshape(4, 2)
        out = stbc_encode(frames)
        assert out.shape == (2, 4, 2)
        assert np.allclose(out[0, 0], frames[0])
        assert np.allclose(out[0, 1], -np.conj(frames[1]))
        assert np.allclose(out[1, 1], np.conj(frames[0]))

    def test_block_energy_under_power_split(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        scaled = stbc_encode(a) / math.sqrt(2.0)
        total = float(np.sum(np.abs(scaled) ** 2))
        assert total == pytest.approx(np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2, rel=1e-12)


class TestEffectiveModel:
    def test_single_antenna_textbook_form(self):
        h = np.array([[1.0 + 0j, 0.0 + 0j]])  # one rx antenna, h1=1, h2=0
        heff = alamouti_effective(h)
        assert np.allclose(heff, [[1, 0], [0, -1]])

    def test_linear_model_matches_transmission(self):
        rng = np.random.default_rng(1)
        h, y, pairs = random_blocks(rng, 200, snr_db=math.inf)
        h_eff, y_eff = build_effective(h, y)
        predicted = np.einsum("bij,bj->bi", h_eff, pairs)
        assert np.max(np.abs(y_eff - predicted)) < 1e-12

    def test_orthogonality_random_draws(self):
        rng = np.random.default_rng(2)
        h = complex_normal(rng, (10_000, 4, 2))
        heff = alamouti_effective(h)
        gram = np.einsum("bji,bjk->bik", np.conj(heff), heff)
        g = np.sum(np.abs(h) ** 2, axis=(1, 2))
        err = gram - g[:, None, None] * np.eye(2)
        assert np.max(np.abs(err)) < 1e-10

    def test_stack_received_layout(self):
        y = np.array([[[1 + 2j, 3 + 4j]]])  # one block, one antenna, two slots
        h = np.ones((1, 1, 2), dtype=complex)
        assert np.allclose(build_effective(h, y)[1], [[1 + 2j, 3 - 4j]])


class TestZfWeights:
    def test_identity_columns_exact(self):
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = 1.0
        h[1, 1] = 1.0
        w = zf_weights(h)
        expected = np.zeros((2, 4), dtype=complex)
        expected[0, 0] = 1.0
        expected[1, 1] = 1.0
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_scaling_exact(self):
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = 2.0
        h[1, 1] = 2.0
        w = zf_weights(h)
        assert abs(w[0, 0] - 0.5) < 1e-12
        assert abs(w[1, 1] - 0.5) < 1e-12

    def test_left_inverse_property(self):
        rng = np.random.default_rng(3)
        h = complex_normal(rng, (500, 8, 2))
        w = zf_weights(h)
        wh = np.einsum("bij,bjk->bik", w, h)
        assert np.max(np.abs(wh - np.eye(2))) < 1e-9

    def test_matches_independent_pseudoinverse(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            h = complex_normal(rng, (8, 2))
            assert np.max(np.abs(zf_weights(h) - np.linalg.pinv(h))) < 1e-9

    def test_condition_cap_raises(self):
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = 1.0
        h[1, 1] = 1e-9  # condition number 1e9 exceeds the 1e8 cap
        with pytest.raises(SingularChannelError):
            zf_weights(h)
        with pytest.raises(SingularChannelError):
            zf_weights(np.zeros((4, 2), dtype=complex))
        # either side of the cap: 1 / 1.05e8 is refused, 1 / 0.95e8 passes
        h[1, 1] = 1 / 1.05e8
        with pytest.raises(SingularChannelError):
            zf_weights(h)
        h[1, 1] = 1 / 0.95e8
        assert zf_weights(h)[1, 1] == pytest.approx(0.95e8, rel=1e-12)


class TestDetectors:
    def test_zf_noiseless_recovery_all_schemes(self):
        rng = np.random.default_rng(5)
        for name in modem.SCHEMES:
            h, y, pairs = random_blocks(rng, 500, snr_db=math.inf, constellation=name)
            out = zf_detect(build_effective(h, y))
            assert np.max(np.abs(out.estimates - pairs)) < 1e-9

    def test_zf_high_snr_hard_decisions(self):
        rng = np.random.default_rng(6)
        c = modem.get_constellation("qpsk")
        h, y, pairs = random_blocks(rng, 10_000, snr_db=30.0)
        out = zf_detect(build_effective(h, y))
        sent_bits = modem.demap_symbols(pairs, c)
        agreement = np.mean(modem.demap_symbols(out.estimates, c) == sent_bits)
        assert agreement >= 0.99

    def test_gain_invariance(self):
        # scaling channel and received block together cancels in the weights
        rng = np.random.default_rng(7)
        h, y, _ = random_blocks(rng, 300, snr_db=5.0)
        c = 0.35 - 1.2j
        base = zf_detect(build_effective(h, y)).estimates
        scaled = zf_detect(build_effective(c * h, c * y)).estimates
        assert np.max(np.abs(base - scaled)) < 1e-9

    def test_realzf_noiseless_exact(self):
        rng = np.random.default_rng(8)
        h, y, pairs = random_blocks(rng, 500, snr_db=math.inf)
        out = realzf_detect(h, y)
        assert np.max(np.abs(out.estimates - pairs)) < 1e-9

    def test_realzf_matches_zf_on_noisy_blocks(self):
        rng = np.random.default_rng(9)
        h, y, _ = random_blocks(rng, 2_000, snr_db=0.0)
        a = zf_detect(build_effective(h, y)).estimates
        b = realzf_detect(h, y).estimates
        assert np.max(np.abs(a - b)) < 1e-9

    def test_realzf_real_inputs_give_real_outputs(self):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((200, 4, 2)).astype(complex)
        a = rng.choice([-1.0, 1.0], size=(200, 2)).astype(complex)
        slots = np.empty((200, 2, 2), dtype=complex)
        slots[:, 0, 0] = a[:, 0]
        slots[:, 1, 0] = a[:, 1]
        slots[:, 0, 1] = -np.conj(a[:, 1])
        slots[:, 1, 1] = np.conj(a[:, 0])
        y = np.einsum("bji,bis->bjs", h, slots)
        out = realzf_detect(h, y)
        assert np.max(np.abs(out.estimates.imag)) < 1e-12

    def test_real_gram_is_orthogonal(self):
        rng = np.random.default_rng(11)
        h, y, _ = random_blocks(rng, 1_000, snr_db=10.0)
        h_hat, _ = real_decomposition(h, y)
        gram = np.einsum("bji,bjk->bik", h_hat, h_hat)
        g = np.sum(np.abs(h) ** 2, axis=(1, 2))
        err = gram - g[:, None, None] * np.eye(4)
        assert np.max(np.abs(err)) < 1e-10

    def test_realzf_singular_raises(self):
        h = np.zeros((4, 2), dtype=complex)
        y = np.zeros((4, 2), dtype=complex)
        with pytest.raises(SingularChannelError):
            realzf_detect(h, y)

    def test_single_receive_antenna_still_works(self):
        rng = np.random.default_rng(12)
        h, y, pairs = random_blocks(rng, 300, n_rx=1, snr_db=math.inf)
        out = zf_detect(build_effective(h, y))
        assert np.max(np.abs(out.estimates - pairs)) < 1e-9
        out2 = realzf_detect(h, y)
        assert np.max(np.abs(out2.estimates - pairs)) < 1e-9


def test_full_noiseless_transparency_through_channel_module():
    # stbc_encode -> apply_channel(noise off) -> detect recovers the pair
    rng = np.random.default_rng(13)
    c = modem.get_constellation("16qam")
    n_sc, n_blocks = 32, 8
    labels = rng.integers(0, c.order, (2 * n_blocks, n_sc))
    frames = c.points[labels]
    tx = stbc_encode(frames)
    h = draw_channel(rng, n_sc, n_blocks=n_blocks)
    y = apply_channel(tx, h, NoiseConfig(math.inf), rng)
    y_blocks = y.reshape(4, n_blocks, 2, n_sc).transpose(1, 3, 0, 2)
    out = zf_detect(build_effective(h, y_blocks))
    est_frames = out.estimates.transpose(0, 2, 1).reshape(2 * n_blocks, n_sc)
    assert np.max(np.abs(est_frames - frames)) < 1e-9
