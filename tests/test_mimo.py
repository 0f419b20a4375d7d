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

    def test_equals_negated_conjugate_reference(self):
        frames = complex_normal(np.random.default_rng(6), (6, 9))
        ref = np.empty((2, 6, 9), dtype=complex)
        ref[0, 0::2], ref[0, 1::2] = frames[0::2], -np.conj(frames[1::2])
        ref[1, 0::2], ref[1, 1::2] = frames[1::2], np.conj(frames[0::2])
        assert np.array_equal(stbc_encode(frames), ref)


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

    def test_equals_negated_conjugate_reference(self):
        rng = np.random.default_rng(7)
        h = complex_normal(rng, (5, 3, 4, 2))
        y = complex_normal(rng, (5, 3, 4, 2))
        h_ref = np.empty((5, 3, 8, 2), dtype=complex)
        h_ref[..., 0::2, 0], h_ref[..., 0::2, 1] = h[..., 0], h[..., 1]
        h_ref[..., 1::2, 0], h_ref[..., 1::2, 1] = np.conj(h[..., 1]), -np.conj(h[..., 0])
        y_ref = np.empty((5, 3, 8), dtype=complex)
        y_ref[..., 0::2], y_ref[..., 1::2] = y[..., 0], np.conj(y[..., 1])
        h_eff, y_eff = build_effective(h, y)
        assert np.array_equal(h_eff, h_ref)
        assert np.array_equal(y_eff, y_ref)

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

    def test_rank_one_blocks_refused(self):
        # the second column is a multiple of the first, so cond(H) is
        # infinite; the cancelling Gram determinant alone let some through
        rng = np.random.default_rng(0)
        h = rng.standard_normal((2000, 8, 2)) + 1j * rng.standard_normal((2000, 8, 2))
        h[:, :, 1] = (0.3 + 0.7j) * h[:, :, 0]
        accepted = 0
        for block in h:
            try:
                zf_weights(block)
                accepted += 1
            except SingularChannelError:
                pass
        assert accepted == 0


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
    out = zf_detect(build_effective(h, y))
    est_frames = out.estimates.transpose(0, 2, 1).reshape(2 * n_blocks, n_sc)
    assert np.max(np.abs(est_frames - frames)) < 1e-9


def effective_reference(h, y):
    """``build_effective`` by index assignment in the inputs' own layout."""
    n_rx = h.shape[-2]
    h_eff = np.empty(h.shape[:-2] + (2 * n_rx, 2), dtype=complex)
    h_eff[..., 0::2, 0], h_eff[..., 0::2, 1] = h[..., 0], h[..., 1]
    h_eff[..., 1::2, 0], h_eff[..., 1::2, 1] = np.conj(h[..., 1]), -np.conj(h[..., 0])
    y_eff = np.empty(y.shape[:-2] + (2 * n_rx,), dtype=complex)
    y_eff[..., 0::2], y_eff[..., 1::2] = y[..., 0], np.conj(y[..., 1])
    return h_eff, y_eff


def zf_weights_reference(h_eff):
    """The Gram matrix by ``vecdot`` over the rows and its 2x2 adjugate."""
    h0, h1 = h_eff[..., 0], h_eff[..., 1]
    g00, g11, g01 = np.vecdot(h0, h0).real, np.vecdot(h1, h1).real, np.vecdot(h0, h1)
    det = (g00 * g11 - np.abs(g01) ** 2)[..., None]
    w0 = (g11[..., None] * np.conj(h0) - g01[..., None] * np.conj(h1)) / det
    w1 = (g00[..., None] * np.conj(h1) - np.conj(g01)[..., None] * np.conj(h0)) / det
    return np.stack([w0, w1], axis=-2)


def layouts(rng, n_rx):
    """Gains and received slots of shape (5, 3, n_rx, 2) in three memory
    layouts: C order, the channel's draw layout (slot pairs, antennas,
    columns, subcarriers) seen through a transpose, and the first axis
    broadcast with stride 0."""
    shape = (5, 3, n_rx, 2)
    return {
        "c_order": [complex_normal(rng, shape) for _ in range(2)],
        "transposed": [complex_normal(rng, (5, n_rx, 2, 3)).transpose(0, 3, 1, 2)
                       for _ in range(2)],
        "broadcast": [np.broadcast_to(complex_normal(rng, (1, 3, n_rx, 2)), shape)
                      for _ in range(2)],
    }


class TestBlockLayouts:
    # each kernel computes with the matrix axes leading, whatever the
    # inputs' memory layout, and returns its documented shape
    @pytest.mark.parametrize("n_rx", [1, 2, 3, 4])
    def test_kernels_equal_references_on_every_layout(self, n_rx):
        rng = np.random.default_rng(50 + n_rx)
        for name, (h, y) in layouts(rng, n_rx).items():
            h_eff, y_eff = build_effective(h, y)
            ref_h, ref_y = effective_reference(h, y)
            assert h_eff.shape == (5, 3, 2 * n_rx, 2) and y_eff.shape == (5, 3, 2 * n_rx), name
            assert np.array_equal(h_eff, ref_h) and np.array_equal(y_eff, ref_y), name
            assert np.array_equal(alamouti_effective(h), ref_h), name
            w = zf_weights(h_eff)
            assert w.shape == (5, 3, 2, 2 * n_rx), name
            assert np.max(np.abs(w - zf_weights_reference(ref_h))) <= 1e-12, name
            assert np.max(np.abs(w - np.linalg.pinv(ref_h))) <= 1e-12, name
            est = zf_detect((h_eff, y_eff)).estimates
            assert est.shape == (5, 3, 2), name
            ref_est = np.einsum("...ij,...j->...i", np.linalg.pinv(ref_h), ref_y)
            assert np.max(np.abs(est - ref_est)) <= 1e-12, name
            # the weights of C-ordered stacked inputs are the same
            assert np.max(np.abs(zf_weights(np.ascontiguousarray(h_eff)) - w)) <= 1e-12, name

    @pytest.mark.parametrize("n_rx", [1, 4])
    def test_single_block(self, n_rx):
        rng = np.random.default_rng(60 + n_rx)
        h, y = complex_normal(rng, (n_rx, 2)), complex_normal(rng, (n_rx, 2))
        h_eff, y_eff = build_effective(h, y)
        assert h_eff.shape == (2 * n_rx, 2) and y_eff.shape == (2 * n_rx,)
        w = zf_weights(h_eff)
        assert w.shape == (2, 2 * n_rx)
        assert np.max(np.abs(w - np.linalg.pinv(h_eff))) <= 1e-12
        assert np.max(np.abs(w - zf_weights_reference(h_eff))) <= 1e-12
        est = zf_detect((h_eff, y_eff)).estimates
        assert est.shape == (2,)
        assert np.max(np.abs(est - np.linalg.pinv(h_eff) @ y_eff)) <= 1e-12
        # a random 8x2 block, no Alamouti structure
        h8 = complex_normal(rng, (8, 2))
        assert np.max(np.abs(zf_weights(h8) - np.linalg.pinv(h8))) <= 1e-12

    def test_one_channel_many_receive_vectors(self):
        rng = np.random.default_rng(19)
        h = complex_normal(rng, (3, 1, 4, 2))
        y = complex_normal(rng, (3, 6, 4, 2))
        h_eff, y_eff = build_effective(h, y)
        est = zf_detect((h_eff, y_eff)).estimates
        assert est.shape == (3, 6, 2)
        ref = np.einsum("...ij,...j->...i", np.linalg.pinv(h_eff), y_eff)
        assert np.max(np.abs(est - ref)) <= 1e-12

    def test_near_singular_blocks_judged_by_exact_det(self):
        # 8x2 blocks in a draw layout, (column, row, block), whose second
        # column is a multiple of the first plus a perturbation of 1e-9.5 to
        # 1e-6.5: condition numbers spread across the 1e8 cap.  The
        # cancelling determinant misjudges blocks near the cap; the exact one
        # accepts every block clearly below it and refuses every block
        # clearly above it, in one batch
        rng = np.random.default_rng(17)
        n = 400
        h = complex_normal(rng, (2, 8, n))
        scale = 10.0 ** rng.uniform(-9.5, -6.5, n)
        h[1] = (0.3 + 0.7j) * h[0] + scale * complex_normal(rng, (8, n))
        cond = np.linalg.cond(h.transpose(2, 1, 0))
        below, above = cond < 0.9e8, cond > 1.1e8
        assert below.sum() > 100 and above.sum() > 100
        w = zf_weights(h[..., below].transpose(2, 1, 0))
        assert w.shape == (below.sum(), 2, 8)
        with pytest.raises(SingularChannelError, match=f"^{above.sum()} channel block"):
            zf_weights(h[..., below | above].transpose(2, 1, 0))

    def test_rank_one_blocks_refused_in_a_batch(self):
        rng = np.random.default_rng(18)
        h = complex_normal(rng, (2, 8, 300))
        rank_one = rng.random(300) < 0.5
        h[1][:, rank_one] = (0.3 + 0.7j) * h[0][:, rank_one]
        with pytest.raises(SingularChannelError, match=f"^{rank_one.sum()} channel block"):
            zf_weights(h.transpose(2, 1, 0))


class TestComplex64:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_zf_stages_keep_the_dtype(self, dtype):
        rng = np.random.default_rng(70)
        h = complex_normal(rng, (5, 3, 4, 2), dtype=dtype)
        y = complex_normal(rng, (5, 3, 4, 2), dtype=dtype)
        assert stbc_encode(complex_normal(rng, (6, 16), dtype=dtype)).dtype == dtype
        assert alamouti_effective(h).dtype == dtype
        h_eff, y_eff = build_effective(h, y)
        assert h_eff.dtype == y_eff.dtype == dtype
        assert zf_weights(h_eff).dtype == dtype
        assert zf_detect((h_eff, y_eff)).estimates.dtype == dtype
        # the independent cross-check works in float64 whatever it is given
        assert realzf_detect(h, y).estimates.dtype == np.complex128

    def test_complex64_estimates_near_the_upcast(self):
        rng = np.random.default_rng(71)
        h, y, _ = random_blocks(rng, 2000, snr_db=0.0)
        h64, y64 = h.astype(np.complex64), y.astype(np.complex64)
        est = zf_detect(build_effective(h64, y64)).estimates
        ref = zf_detect(build_effective(h64.astype(complex), y64.astype(complex))).estimates
        assert np.all(np.abs(est - ref) <= 1e-5 * np.maximum(np.abs(ref), 1.0))

    def test_rank_one_complex64_blocks_refused(self):
        # the second column is 2j times the first, exactly in float32
        rng = np.random.default_rng(72)
        h = complex_normal(rng, (300, 8, 2), dtype=np.complex64)
        rank_one = rng.random(300) < 0.5
        h[rank_one, :, 1] = 2j * h[rank_one, :, 0]
        with pytest.raises(SingularChannelError, match=f"^{rank_one.sum()} channel block"):
            zf_weights(h)
        with pytest.raises(SingularChannelError):
            zf_weights(h[np.argmax(rank_one)])

    def test_cap_decision_matches_the_complex128_upcast(self):
        # 8x2 complex64 blocks [u, 2j u + s v] with u and v on disjoint rows,
        # so rounding to float32 keeps cond(H) near 1 / s: from 1e1 to 1e11,
        # across the float32 recheck bound near 43 and the 1e8 cap
        rng = np.random.default_rng(73)
        n = 400
        h = np.zeros((n, 8, 2), dtype=np.complex64)
        h[:, :4, 0] = complex_normal(rng, (n, 4))
        h[:, :4, 1] = 2j * h[:, :4, 0]
        h[:, 4:, 1] = 10.0 ** rng.uniform(-10.0, -1.0, (n, 1)) * complex_normal(rng, (n, 4))
        cond = np.linalg.cond(h.astype(complex))
        assert cond.min() < 1e2 and cond.max() > 1e9

        def accepted(block):
            try:
                zf_weights(block)
            except SingularChannelError:
                return False
            return True

        decisions = [(accepted(b), accepted(b.astype(complex))) for b in h]
        assert all(a == b for a, b in decisions)
        ok = np.array([a for a, _ in decisions])
        assert ok[cond < 0.9e8].all() and not ok[cond > 1.1e8].any()
        assert 100 < ok.sum() < n - 100


def closed_form_combiner(h, y):
    """Alamouti's combiner on gains and slots (..., n_rx, 2), by the Gram
    matrix g I: a1 = sum(conj(h1) y1 + h2 conj(y2)) / g and
    a2 = sum(conj(h2) y1 - h1 conj(y2)) / g, g = sum |h|^2."""
    h1, h2, y1, y2 = h[..., 0], h[..., 1], y[..., 0], np.conj(y[..., 1])
    g = (np.square(h.real) + np.square(h.imag)).sum(axis=(-2, -1))
    a1 = (np.conj(h1) * y1 + h2 * y2).sum(axis=-1) / g
    a2 = (np.conj(h2) * y1 - h1 * y2).sum(axis=-1) / g
    return np.stack([a1, a2], axis=-1)


class TestClosedFormCombiner:
    # the ZF trio on an Alamouti block equals the closed-form combiner, the
    # Gram matrix being sum |h|^2 times the identity
    @staticmethod
    def draws(n_rx, dtype):
        """Gains and noisy slots at 0 dB from draw_channel and apply_channel,
        in their draw layout and in C order."""
        rng = np.random.default_rng(90 + n_rx)
        c = modem.get_constellation("16qam")
        n_sc, n_blocks = 24, 10
        frames = c.points[rng.integers(0, c.order, (2 * n_blocks, n_sc))].astype(dtype)
        h = draw_channel(rng, n_sc, n_blocks=n_blocks, n_rx=n_rx, dtype=dtype)
        y = apply_channel(stbc_encode(frames), h, NoiseConfig(0.0), rng)
        assert h.dtype == y.dtype == dtype
        return {"draw_layout": (h, y),
                "c_order": (np.ascontiguousarray(h), np.ascontiguousarray(y))}

    @pytest.mark.parametrize("n_rx", [1, 2, 3, 4])
    def test_equals_zf_in_complex128(self, n_rx):
        for name, (h, y) in self.draws(n_rx, np.complex128).items():
            est = zf_detect(build_effective(h, y)).estimates
            assert np.max(np.abs(closed_form_combiner(h, y) - est)) <= 1e-12, name

    @pytest.mark.parametrize("n_rx", [1, 2, 3, 4])
    def test_near_zf_in_complex64(self, n_rx):
        for name, (h, y) in self.draws(n_rx, np.complex64).items():
            a = closed_form_combiner(h, y)
            assert a.dtype == np.complex64, name
            ref = zf_detect(build_effective(h.astype(complex), y.astype(complex))).estimates
            # relative to the estimate, floored at the unit symbol energy
            assert np.all(np.abs(a - ref) <= 1e-5 * np.maximum(np.abs(ref), 1.0)), name


def real_decomposition_reference(h, y):
    """``real_decomposition`` by 16 strided block writes and 4 receive writes,
    its first construction."""
    h, y = np.asarray(h), np.asarray(y)
    n_rx = h.shape[-2]
    h1r, h1i = h[..., 0].real, h[..., 0].imag
    h2r, h2i = h[..., 1].real, h[..., 1].imag
    hh = np.empty(h.shape[:-2] + (4 * n_rx, 4))
    hh[..., 0::4, 0], hh[..., 0::4, 1], hh[..., 0::4, 2], hh[..., 0::4, 3] = h1r, h2r, -h1i, -h2i
    hh[..., 1::4, 0], hh[..., 1::4, 1], hh[..., 1::4, 2], hh[..., 1::4, 3] = h1i, h2i, h1r, h2r
    hh[..., 2::4, 0], hh[..., 2::4, 1], hh[..., 2::4, 2], hh[..., 2::4, 3] = h2r, -h1r, h2i, -h1i
    hh[..., 3::4, 0], hh[..., 3::4, 1], hh[..., 3::4, 2], hh[..., 3::4, 3] = h2i, -h1i, -h2r, h1r
    yh = np.empty(y.shape[:-2] + (4 * n_rx,))
    yh[..., 0::4], yh[..., 1::4] = y[..., 0].real, y[..., 0].imag
    yh[..., 2::4], yh[..., 3::4] = y[..., 1].real, y[..., 1].imag
    return hh, yh


class TestRealDecompositionBytes:
    # the sign table must reproduce the slot equations bit for bit, signed
    # zeros included, so realzf's estimates keep their bytes
    @pytest.mark.parametrize("n_rx", [1, 2, 3, 4])
    def test_bytes_equal_reference_on_every_layout(self, n_rx):
        rng = np.random.default_rng(70 + n_rx)
        for name, (h, y) in layouts(rng, n_rx).items():
            if name != "broadcast":
                # one block of signed-zero parts, h1_re and h2_im, whose
                # negations in the table must come out as +0.0
                h[0, 0].real[:, 0] = -0.0
                h[0, 0].imag[:, 1] = 0.0
                y[0, 0].imag[:, 0] = -0.0
            h_hat, y_hat = real_decomposition(h, y)
            ref_h, ref_y = real_decomposition_reference(h, y)
            assert h_hat.shape == ref_h.shape and h_hat.dtype == ref_h.dtype, name
            assert h_hat.tobytes() == ref_h.tobytes(), name
            assert y_hat.shape == ref_y.shape and y_hat.dtype == ref_y.dtype, name
            assert y_hat.tobytes() == ref_y.tobytes(), name
            if name != "broadcast":
                zeros = ref_h[ref_h == 0]
                assert np.signbit(zeros).any() and not np.signbit(zeros).all(), name
            # matmul hands BLAS-compatible strides to BLAS and sums other
            # layouts in its own loop, in another order, so the system is
            # built C-ordered for every n_rx and the reference forms its
            # normal equations from it as the code does
            assert h_hat.flags.c_contiguous, name
            ref_t = ref_h.swapaxes(-1, -2)
            u = np.linalg.solve(ref_t @ ref_h, ref_t @ ref_y[..., None])[..., 0]
            est = realzf_detect(h, y).estimates
            assert est.tobytes() == (u[..., 0:2] + 1j * u[..., 2:4]).tobytes(), name
