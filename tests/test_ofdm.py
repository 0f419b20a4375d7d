import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclink.errors import FramingError
from mclink.ofdm import ofdm_demodulate, ofdm_modulate


def test_four_point_impulse_by_hand():
    # unitary 4-point IDFT of [1,0,0,0] is [1/2, 1/2, 1/2, 1/2]
    out = ofdm_modulate(np.array([[1.0, 0, 0, 0]]), 1)
    assert np.allclose(out, 0.5 * np.ones((1, 5)), atol=1e-12)


def test_zero_in_zero_out():
    out = ofdm_modulate(np.zeros((3, 8)), 2)
    assert np.all(out == 0)


@pytest.mark.parametrize("cp_len", [0, 1, 16, 64])
def test_modulate_equals_concatenated_prefix_reference(cp_len):
    # the output is written in place; it must equal the plain concatenation
    rng = np.random.default_rng(cp_len)
    n = 64
    frames = rng.standard_normal((2, 5, n)) + 1j * rng.standard_normal((2, 5, n))
    body = np.fft.ifft(frames, axis=-1, norm="ortho")
    ref = np.concatenate([body[..., n - cp_len :], body], axis=-1)
    assert np.array_equal(ofdm_modulate(frames, cp_len), ref)


def test_energy_preserved_excluding_prefix():
    cp_len = 16
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    out = ofdm_modulate(frames, cp_len)
    body = out[:, cp_len:]
    assert np.allclose(
        np.linalg.norm(body, axis=1), np.linalg.norm(frames, axis=1), rtol=1e-10
    )


def test_cyclic_prefix_structure():
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
    out = ofdm_modulate(frames, 7)
    assert np.array_equal(out[:, :7], out[:, -7:])


def test_roundtrip_full_profile_sizes():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((2, 6400)) + 1j * rng.standard_normal((2, 6400))
    back = ofdm_demodulate(ofdm_modulate(frames, 1280), 1280)
    assert np.max(np.abs(back - frames)) / np.max(np.abs(frames)) < 1e-10


def test_roundtrip_without_prefix():
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((3, 100)) + 1j * rng.standard_normal((3, 100))
    assert np.allclose(ofdm_demodulate(ofdm_modulate(frames, 0), 0), frames, atol=1e-12)


@given(st.integers(1, 64), st.data())
@settings(deadline=None, max_examples=30)
def test_unitarity_random_sizes(n, data):
    cp = data.draw(st.integers(0, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    frames = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    out = ofdm_modulate(frames, cp)
    assert np.allclose(
        np.linalg.norm(out[:, cp:], axis=1), np.linalg.norm(frames, axis=1), atol=1e-10
    )
    assert np.allclose(ofdm_demodulate(out, cp), frames, atol=1e-10)


def test_window_offset_within_prefix_only_rotates_phases():
    # sampling the DFT window k samples early stays inside the prefix and
    # multiplies each subcarrier by a unit phasor, with no cross-talk
    n, cp, k = 8, 3, 2
    rng = np.random.default_rng(4)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    time = ofdm_modulate(x[None, :], cp)[0]
    window = time[cp - k : cp - k + n]
    out = np.fft.fft(window, norm="ortho")
    phasors = np.exp(-2j * np.pi * k * np.arange(n) / n)
    assert np.allclose(out, x * phasors, atol=1e-10)
    assert np.allclose(np.abs(out), np.abs(x), atol=1e-10)


def test_framing_errors():
    # a prefix longer than the 15-wide frame; 19 samples hold no 10-sample
    # prefix in front of a body at least as long
    with pytest.raises(FramingError):
        ofdm_modulate(np.zeros((2, 15)), 16)
    with pytest.raises(FramingError):
        ofdm_demodulate(np.zeros((2, 19)), 10)


def test_config_validation():
    # (subcarriers, prefix) pairs no symbol can have, framed both ways
    for n_subcarriers, cp_len in [(0, 0), (16, 17), (16, -1)]:
        with pytest.raises(FramingError):
            ofdm_modulate(np.zeros((2, n_subcarriers)), cp_len)
        with pytest.raises(FramingError):
            ofdm_demodulate(np.zeros((2, n_subcarriers + cp_len)), cp_len)
