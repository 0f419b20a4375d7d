import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclink.bits import (
    ConvCode,
    Prbs,
    SpreadingCode,
    conv_encode,
    despread,
    spread,
    viterbi_decode,
)
from mclink.errors import FramingError

TAPS_X3 = 0o15  # x^3 + x^2 + 1
CODE = SpreadingCode((1, 0, 1, 1, 0, 0, 1, 0))
CONV = ConvCode(3, (0o7, 0o5))


def lfsr_oracle(taps: int, seed: int, n: int) -> list[int]:
    """Independent bit-list recurrence: s[k+r] = XOR of tapped lower terms."""
    r = taps.bit_length() - 1
    # register holds (s[k+r-1] .. s[k]) as bits, LSB oldest
    reg = [(seed >> i) & 1 for i in range(r)]
    out = []
    for _ in range(n):
        out.append(reg[0])
        new = 0
        for p in range(r):
            if (taps >> p) & 1:
                new ^= reg[p]
        reg = reg[1:] + [new]
    return out


def encoder_oracle(data, code: ConvCode) -> list[int]:
    """Bit-by-bit shift register, independent of the vectorized encoder."""
    k = code.constraint_length
    window = [0] * k
    out = []
    for bit in list(data) + [0] * (k - 1):
        window = [int(bit)] + window[:-1]
        for g in code.generators:
            acc = 0
            for p in range(k):
                if (g >> p) & 1:
                    acc ^= window[p]
            out.append(acc)
    return out


def all_codewords(n_data: int, code: ConvCode) -> np.ndarray:
    words = np.zeros((2**n_data, 2 * (n_data + code.constraint_length - 1)), np.uint8)
    for value in range(2**n_data):
        data = [(value >> (n_data - 1 - i)) & 1 for i in range(n_data)]
        words[value] = conv_encode(np.array(data, np.uint8), code)
    return words


def lfsr_bitserial(taps: int, state: int, n: int) -> tuple[np.ndarray, int]:
    """One register shift per output bit; returns the bits and the final state."""
    degree = taps.bit_length() - 1
    mask = taps & ((1 << degree) - 1)
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        out[i] = state & 1
        fb = (state & mask).bit_count() & 1
        state = (state >> 1) | (fb << (degree - 1))
    return out, state


def viterbi_radix2(coded: np.ndarray, code: ConvCode) -> np.ndarray:
    """One trellis step per iteration with a gathered add-compare-select."""
    rx = np.atleast_2d(np.asarray(coded, dtype=np.uint8))
    k = code.constraint_length
    n_states = code.n_states
    n_steps = rx.shape[-1] // 2
    pred = np.empty((n_states, 2), dtype=np.intp)
    out0 = np.empty((n_states, 2), dtype=np.uint8)
    out1 = np.empty((n_states, 2), dtype=np.uint8)
    g0, g1 = code.generators
    for s_next in range(n_states):
        for j in range(2):
            s_prev = (s_next >> 1) | (j << (k - 2))
            w = (s_prev << 1) | (s_next & 1)
            pred[s_next, j] = s_prev
            out0[s_next, j] = (w & g0).bit_count() & 1
            out1[s_next, j] = (w & g1).bit_count() & 1
    metric = np.full((rx.shape[0], n_states), 1 << 24, dtype=np.int32)
    metric[:, 0] = 0
    back = np.empty((rx.shape[0], n_steps, n_states), dtype=np.uint8)
    r0 = rx[:, 0::2].astype(np.int32)
    r1 = rx[:, 1::2].astype(np.int32)
    for t in range(n_steps):
        bm = (out0[None] ^ r0[:, t, None, None]) + (out1[None] ^ r1[:, t, None, None])
        cand = metric[:, pred] + bm
        take1 = cand[:, :, 1] < cand[:, :, 0]
        metric = np.where(take1, cand[:, :, 1], cand[:, :, 0])
        back[:, t, :] = take1
    bits = np.empty((rx.shape[0], n_steps), dtype=np.uint8)
    state = np.zeros(rx.shape[0], dtype=np.intp)
    rows = np.arange(rx.shape[0])
    for t in range(n_steps - 1, -1, -1):
        bits[:, t] = state & 1
        state = pred[state, back[rows, t, state]]
    data = bits[:, : n_steps - (k - 1)]
    return data[0] if np.ndim(coded) == 1 else data


class TestPrbs:
    def test_full_period_matches_hand_iteration(self):
        seq = Prbs(TAPS_X3, 0b111).generate(7)
        assert seq.tolist() == lfsr_oracle(TAPS_X3, 0b111, 7)

    def test_period_seven_windows_all_distinct(self):
        seq = Prbs(TAPS_X3, 0b111).generate(9)  # one period + wrap for windows
        windows = {tuple(seq[i : i + 3]) for i in range(7)}
        assert len(windows) == 7
        assert (0, 0, 0) not in windows

    def test_zero_length(self):
        assert Prbs(TAPS_X3, 0b111).generate(0).size == 0

    def test_periodicity_fourteen_bits(self):
        seq = Prbs(TAPS_X3, 0b111).generate(14)
        assert seq[:7].tolist() == seq[7:].tolist()

    def test_split_generation_continues_sequence(self):
        whole = Prbs(TAPS_X3, 0b101).generate(14)
        split = Prbs(TAPS_X3, 0b101)
        parts = np.concatenate([split.generate(5), split.generate(9)])
        assert whole.tolist() == parts.tolist()

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Prbs(TAPS_X3, 0)

    @pytest.mark.parametrize("taps", [
        TAPS_X3,
        0o31,                               # x^4 + x^3 + 1: one bit per word
        (1 << 7) | (1 << 1) | 1,            # 6-bit words
        (1 << 23) | (1 << 18) | 1,          # the PRBS-23 message source
        (1 << 31) | (1 << 28) | 1,
        (1 << 90) | 1,                      # word width capped at 64 bits
    ])
    def test_matches_bitserial_register_across_split_calls(self, taps):
        lengths = [0, 1, 4, 5, 37, 64, 65, 1000, 3]   # ends land mid-word
        state = 0b101
        prbs = Prbs(taps, state)
        parts = [prbs.generate(n) for n in lengths]
        expected, final = lfsr_bitserial(taps, state, sum(lengths))
        assert all(p.dtype == np.uint8 for p in parts)
        assert np.array_equal(np.concatenate(parts), expected)
        assert prbs.state == final

    @pytest.mark.parametrize("taps", [TAPS_X3, 0o31])  # x^4 + x^3 + 1
    def test_windows_enumerate_nonzero_values(self, taps):
        r = taps.bit_length() - 1
        period = 2**r - 1
        seq = Prbs(taps, 1).generate(period + r - 1)
        values = {
            sum(seq[i + j] << (r - 1 - j) for j in range(r)) for i in range(period)
        }
        assert values == set(range(1, 2**r))


class TestSpreading:
    def test_zero_bit_passes_code(self):
        assert spread(np.array([0], np.uint8), CODE).tolist() == list(CODE.chips)

    def test_one_bit_complements_code(self):
        expected = [1 - c for c in CODE.chips]
        assert spread(np.array([1], np.uint8), CODE).tolist() == expected

    def test_two_bits_concatenate(self):
        out = spread(np.array([1, 0], np.uint8), CODE)
        assert out.size == 16
        assert out.tolist() == [1 - c for c in CODE.chips] + list(CODE.chips)

    def test_roundtrip(self):
        data = np.array([1, 0, 1], np.uint8)
        assert despread(spread(data, CODE), CODE).tolist() == data.tolist()

    def test_up_to_three_flips_recovered(self):
        chips = spread(np.array([1], np.uint8), CODE)
        for n_flips in range(4):
            for positions in itertools.combinations(range(8), n_flips):
                corrupted = chips.copy()
                corrupted[list(positions)] ^= 1
                assert despread(corrupted, CODE).tolist() == [1], positions

    def test_four_flip_tie_resolves_to_zero(self):
        chips = spread(np.array([0], np.uint8), CODE)
        for positions in itertools.combinations(range(8), 4):
            corrupted = chips.copy()
            corrupted[list(positions)] ^= 1
            assert despread(corrupted, CODE).tolist() == [0], positions

    def test_framing_error(self):
        with pytest.raises(FramingError):
            despread(np.zeros(7, np.uint8), CODE)

    def test_degenerate_codes_rejected(self):
        with pytest.raises(ValueError):
            SpreadingCode((0,) * 8)
        with pytest.raises(ValueError):
            SpreadingCode((1,) * 8)
        with pytest.raises(ValueError):
            SpreadingCode((1, 0, 1))

    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_despread_inverts_spread(self, data):
        arr = np.array(data, np.uint8)
        assert despread(spread(arr, CODE), CODE).tolist() == data


class TestConvEncode:
    def test_zero_input_zero_output(self):
        out = conv_encode(np.zeros(10, np.uint8), CONV)
        assert out.tolist() == [0] * 24

    def test_impulse_response(self):
        out = conv_encode(np.array([1], np.uint8), CONV)
        assert out.tolist() == [1, 1, 1, 0, 1, 1]

    def test_length_and_oracle_agreement(self):
        data = np.array([1, 0, 1, 1], np.uint8)
        out = conv_encode(data, CONV)
        assert out.size == 12
        assert out.tolist() == encoder_oracle(data, CONV)

    @given(st.lists(st.integers(0, 1), max_size=48))
    def test_matches_shift_register_oracle(self, data):
        out = conv_encode(np.array(data, np.uint8), CONV)
        assert out.tolist() == encoder_oracle(data, CONV)

    @given(st.data())
    def test_linear_over_gf2(self, data):
        n = data.draw(st.integers(1, 32))
        a = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
        b = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
        assert np.array_equal(conv_encode(a ^ b, CONV), conv_encode(a, CONV) ^ conv_encode(b, CONV))

    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 2, (5, 17), dtype=np.uint8)
        out = conv_encode(batch, CONV)
        for row_in, row_out in zip(batch, out):
            assert np.array_equal(conv_encode(row_in, CONV), row_out)

    def test_bad_generators_rejected(self):
        with pytest.raises(ValueError):
            ConvCode(3, (0o7,))
        with pytest.raises(ValueError):
            ConvCode(3, (0o17, 0o5))
        with pytest.raises(ValueError):
            ConvCode(3, (0o6, 0o5))


class TestViterbi:
    def test_noiseless_roundtrip(self):
        data = np.array([1, 0, 1, 1], np.uint8)
        assert viterbi_decode(conv_encode(data, CONV), CONV).tolist() == data.tolist()

    def test_single_flip_corrected_everywhere(self):
        data = np.array([1, 0, 1, 1], np.uint8)
        coded = conv_encode(data, CONV)
        for pos in range(coded.size):
            rx = coded.copy()
            rx[pos] ^= 1
            assert viterbi_decode(rx, CONV).tolist() == data.tolist(), pos

    def test_single_flip_is_unique_nearest(self):
        # the flipped word must sit strictly closer to the true codeword
        data = np.array([1, 0, 1, 1], np.uint8)
        coded = conv_encode(data, CONV)
        book = all_codewords(4, CONV)
        for pos in range(coded.size):
            rx = coded.copy()
            rx[pos] ^= 1
            dists = (book ^ rx).sum(axis=1)
            assert dists.min() == 1 and (dists == 1).sum() == 1

    def test_empty(self):
        assert viterbi_decode(np.zeros(0, np.uint8), CONV).size == 0

    def test_odd_length_rejected(self):
        with pytest.raises(FramingError):
            viterbi_decode(np.zeros(5, np.uint8), CONV)

    @given(st.lists(st.integers(0, 1), max_size=40))
    @settings(deadline=None)
    def test_roundtrip_property(self, data):
        arr = np.array(data, np.uint8)
        assert viterbi_decode(conv_encode(arr, CONV), CONV).tolist() == data

    @pytest.mark.parametrize("n_data", range(8))
    def test_nearest_codeword_up_to_seven_bits(self, n_data):
        """ML property against exhaustive search, unique-minimum cases only."""
        book = all_codewords(n_data, CONV)
        rng = np.random.default_rng(n_data)
        n_coded = book.shape[1]
        for _ in range(40):
            rx = rng.integers(0, 2, n_coded, dtype=np.uint8)
            dists = (book ^ rx).sum(axis=1)
            best = int(dists.argmin())
            if (dists == dists[best]).sum() > 1:
                continue
            decoded = viterbi_decode(rx, CONV)
            value = int("".join(map(str, decoded.tolist())), 2) if n_data else 0
            assert value == best

    @pytest.mark.parametrize("code", [
        ConvCode(2, (0o3, 0o1)),
        ConvCode(3, (0o7, 0o5)),
        ConvCode(3, (0o5, 0o7)),
        ConvCode(4, (0o17, 0o13)),
        ConvCode(5, (0o23, 0o35)),
        ConvCode(9, (0o561, 0o753)),  # the largest constraint length accepted
    ], ids=lambda c: f"K{c.constraint_length}-{c.generators[0]:o}{c.generators[1]:o}")
    def test_matches_radix2_reference(self, code):
        """Random and p=0.5 (tie-heavy) inputs, odd and even step counts,
        single frames and batches."""
        rng = np.random.default_rng(code.constraint_length)
        k = code.constraint_length
        for n_steps in list(range(k - 1, k + 8)) + [64, 101]:
            for flip in (0.5, 0.08):
                for n_frames in (1, 5):
                    data = rng.integers(0, 2, (n_frames, n_steps - (k - 1)), dtype=np.uint8)
                    coded = conv_encode(data, code)
                    noisy = coded ^ (rng.random(coded.shape) < flip).astype(np.uint8)
                    out = viterbi_decode(noisy, code)
                    assert np.array_equal(out, viterbi_radix2(noisy, code)), (n_steps, flip)
                    single = viterbi_decode(noisy[0], code)
                    assert single.shape == (n_steps - (k - 1),)
                    assert np.array_equal(single, viterbi_radix2(noisy[0], code))

    def test_generators_given_as_list(self):
        code = ConvCode(3, [0o7, 0o5])
        assert code == CONV
        data = np.array([1, 0, 1, 1], np.uint8)
        assert viterbi_decode(conv_encode(data, code), code).tolist() == data.tolist()

    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(9)
        coded = conv_encode(rng.integers(0, 2, (6, 21), dtype=np.uint8), CONV)
        noisy = coded ^ (rng.random(coded.shape) < 0.05)
        out = viterbi_decode(noisy.astype(np.uint8), CONV)
        for row_in, row_out in zip(noisy, out):
            assert np.array_equal(viterbi_decode(row_in.astype(np.uint8), CONV), row_out)
