import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclink.bits import Prbs, conv_encode, despread, spread, viterbi_decode
from mclink.errors import FramingError

# The chain's fixed stages, restated here so the oracles stay independent of
# the constants in mclink.bits.
PRBS23 = (1 << 23) | (1 << 18) | 1  # x^23 + x^18 + 1
CHIPS = [1, 0, 1, 1, 0, 0, 1, 0]
K = 3
GENERATORS = (0o7, 0o5)


def lfsr_oracle(seed: int, n: int) -> list[int]:
    """Independent bit-list recurrence: s[k+r] = XOR of tapped lower terms."""
    r = PRBS23.bit_length() - 1
    # register holds (s[k+r-1] .. s[k]) as bits, LSB oldest
    reg = [(seed >> i) & 1 for i in range(r)]
    out = []
    for _ in range(n):
        out.append(reg[0])
        new = 0
        for p in range(r):
            if (PRBS23 >> p) & 1:
                new ^= reg[p]
        reg = reg[1:] + [new]
    return out


def encoder_oracle(data) -> list[int]:
    """Bit-by-bit shift register, independent of the vectorized encoder."""
    window = [0] * K
    out = []
    for bit in list(data) + [0] * (K - 1):
        window = [int(bit)] + window[:-1]
        for g in GENERATORS:
            acc = 0
            for p in range(K):
                if (g >> p) & 1:
                    acc ^= window[p]
            out.append(acc)
    return out


def all_codewords(n_data: int) -> np.ndarray:
    words = np.zeros((2**n_data, 2 * (n_data + K - 1)), np.uint8)
    for value in range(2**n_data):
        data = [(value >> (n_data - 1 - i)) & 1 for i in range(n_data)]
        words[value] = conv_encode(np.array(data, np.uint8))
    return words


def lfsr_bitserial(state: int, n: int) -> tuple[np.ndarray, int]:
    """One register shift per output bit; returns the bits and the final state."""
    degree = PRBS23.bit_length() - 1
    mask = PRBS23 & ((1 << degree) - 1)
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        out[i] = state & 1
        fb = (state & mask).bit_count() & 1
        state = (state >> 1) | (fb << (degree - 1))
    return out, state


def prbs_wordloop(state: int, n: int) -> tuple[np.ndarray, int]:
    """The register advanced 5 bits per step: the next 23 - 18 feedback bits
    read only bits already in the register.  Returns the bits and the state."""
    degree, word = PRBS23.bit_length() - 1, 5
    words = []
    for step in [word] * (n // word) + [n % word]:
        fb = state ^ (state >> (degree - word))
        words.append(state & ((1 << step) - 1))
        state = (state >> step) | ((fb & ((1 << step) - 1)) << (degree - step))
    packed = np.array(words, dtype=np.uint8)[:, None]
    bits = np.unpackbits(packed, axis=1, bitorder="little")[:, :word]
    return bits.reshape(-1)[:n], state


def spread_xor(data: np.ndarray) -> np.ndarray:
    """Each bit XORed with the 8 chips, one chip per array element."""
    data = np.asarray(data, dtype=np.uint8)
    chips = data[..., :, None] ^ np.array(CHIPS, np.uint8)
    return chips.reshape(data.shape[:-1] + (data.shape[-1] * len(CHIPS),))


def despread_xor(chips: np.ndarray) -> np.ndarray:
    """Chips XORed with the signature and summed per bit; a bit is 1 on more
    than 4 of 8 votes."""
    chips = np.asarray(chips, dtype=np.uint8)
    blocks = chips.reshape(chips.shape[:-1] + (-1, len(CHIPS))) ^ np.array(CHIPS, np.uint8)
    return (blocks.sum(axis=-1, dtype=np.int16) > len(CHIPS) // 2).astype(np.uint8)


def trellis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``pred[s, j]``, the j-th predecessor of state s, and the two code bits
    ``out0[s, j]``, ``out1[s, j]`` on that branch."""
    n_states = 1 << (K - 1)
    pred = np.empty((n_states, 2), dtype=np.intp)
    out0 = np.empty((n_states, 2), dtype=np.uint8)
    out1 = np.empty((n_states, 2), dtype=np.uint8)
    g0, g1 = GENERATORS
    for s_next in range(n_states):
        for j in range(2):
            s_prev = (s_next >> 1) | (j << (K - 2))
            w = (s_prev << 1) | (s_next & 1)
            pred[s_next, j] = s_prev
            out0[s_next, j] = (w & g0).bit_count() & 1
            out1[s_next, j] = (w & g1).bit_count() & 1
    return pred, out0, out1


def acs_step(metric: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """One add-compare-select step on received pair r = 2*r0 + r1: the new
    metrics and, per state, whether it chose predecessor 1 (strictly better)."""
    pred, out0, out1 = trellis()
    cand = metric[..., pred] + (out0 ^ (r >> 1)) + (out1 ^ (r & 1))
    take1 = cand[..., 1] < cand[..., 0]
    return np.where(take1, cand[..., 1], cand[..., 0]), take1


def viterbi_radix2(coded: np.ndarray) -> np.ndarray:
    """One trellis step per iteration with a gathered add-compare-select."""
    rx = np.atleast_2d(np.asarray(coded, dtype=np.uint8))
    n_states = 1 << (K - 1)
    n_steps = rx.shape[-1] // 2
    pred, out0, out1 = trellis()
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
    data = bits[:, : n_steps - (K - 1)]
    return data[0] if np.ndim(coded) == 1 else data


class TestPrbs:
    def test_matches_hand_iteration(self):
        seq = Prbs(0b111).generate(100)
        assert seq.tolist() == lfsr_oracle(0b111, 100)

    def test_zero_length(self):
        assert Prbs(0b111).generate(0).size == 0

    def test_split_generation_continues_sequence(self):
        whole = Prbs(0b101).generate(60)
        split = Prbs(0b101)
        parts = np.concatenate([split.generate(27), split.generate(33)])
        assert whole.tolist() == parts.tolist()

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Prbs(0)

    def test_prbs23_register_holds_every_engine_seed(self):
        # the engine seeds the source with 1 + (a raw word mod 2^23 - 1)
        for state in (1, (1 << 23) - 1):
            assert Prbs(state).state == state
        for state in (1 << 23, -1):
            with pytest.raises(ValueError):
                Prbs(state)

    def test_period_is_exactly_2_pow_23_minus_1(self):
        # 2^23 - 1 = 47 * 178481, so any shorter period divides a cofactor
        period = (1 << 23) - 1
        for n in (period // 47, period // 178481, period):
            prbs = Prbs(1)
            prbs.generate(n)
            assert (prbs.state == 1) == (n == period), n

    def test_matches_bitserial_register_across_split_calls(self):
        lengths = [0, 1, 4, 5, 37, 64, 65, 1000, 3]   # ends land mid-word
        state = 0b101
        prbs = Prbs(state)
        parts = [prbs.generate(n) for n in lengths]
        expected, final = lfsr_bitserial(state, sum(lengths))
        assert all(p.dtype == np.uint8 for p in parts)
        assert np.array_equal(np.concatenate(parts), expected)
        assert prbs.state == final


class TestBytewiseKernelsMatchReferences:
    """The squared-recurrence source and the byte-wise spread and despread,
    bit for bit against the word-loop register and the per-chip XOR."""

    LENGTHS = (0, 1, 4, 5, 22, 23, 24, 46, 47, 1000, 25000, 250000)
    STATES = (1, 2, (1 << 23) - 1, 0b101, 0x2AAAAA, 4_000_037)

    @pytest.mark.parametrize("state", STATES)
    def test_prbs_bits_and_state(self, state):
        for n in self.LENGTHS:
            prbs = Prbs(state)
            out = prbs.generate(n)
            expected, final = prbs_wordloop(state, n)
            assert out.dtype == np.uint8 and out.shape == (n,)
            assert np.array_equal(out, expected), n
            assert prbs.state == final, n
            # a second call continues the sequence
            more, final2 = prbs_wordloop(final, 47)
            assert np.array_equal(prbs.generate(47), more), n
            assert prbs.state == final2, n

    def test_prbs_errors(self):
        with pytest.raises(ValueError):
            Prbs(5).generate(-1)
        for state in (0, 1 << 23, -1):
            with pytest.raises(ValueError):
                Prbs(state)

    @pytest.mark.parametrize("shape", [(0,), (1,), (200,), (125, 200), (3, 0), (2, 3, 5)])
    def test_spread_and_despread(self, shape):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        data = rng.integers(0, 2, shape, dtype=np.uint8)
        chips = spread(data)
        assert chips.dtype == np.uint8
        assert np.array_equal(chips, spread_xor(data))
        noisy = chips ^ (rng.random(chips.shape) < 0.4).astype(np.uint8)
        out = despread(noisy)
        assert out.dtype == np.uint8 and out.shape == shape
        assert np.array_equal(out, despread_xor(noisy))
        assert np.array_equal(despread(chips), data)

    def test_despread_every_chip_byte(self):
        chips = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=-1)
        assert np.array_equal(despread(chips)[:, 0], despread_xor(chips)[:, 0])
        assert np.array_equal(despread(chips.reshape(-1)), despread_xor(chips.reshape(-1)))

    def test_despread_tie_is_0_and_five_votes_are_1(self):
        sig = np.array(CHIPS, np.uint8)
        tie = sig.copy()
        tie[[0, 1, 2, 3]] ^= 1           # 4 chips say 1, 4 say 0
        five = sig.copy()
        five[[0, 2, 4, 6, 7]] ^= 1       # 5 chips say 1, 3 say 0
        assert despread(tie).tolist() == [0]
        assert despread(five).tolist() == [1]

    @pytest.mark.parametrize("n_chips", [1, 7, 9, 15, 1601])
    def test_despread_framing_error(self, n_chips):
        with pytest.raises(FramingError):
            despread(np.zeros(n_chips, np.uint8))
        with pytest.raises(FramingError):
            despread(np.zeros((3, n_chips), np.uint8))


class TestSpreading:
    def test_zero_bit_passes_code(self):
        assert spread(np.array([0], np.uint8)).tolist() == CHIPS

    def test_one_bit_complements_code(self):
        expected = [1 - c for c in CHIPS]
        assert spread(np.array([1], np.uint8)).tolist() == expected

    def test_two_bits_concatenate(self):
        out = spread(np.array([1, 0], np.uint8))
        assert out.size == 16
        assert out.tolist() == [1 - c for c in CHIPS] + CHIPS

    def test_roundtrip(self):
        data = np.array([1, 0, 1], np.uint8)
        assert despread(spread(data)).tolist() == data.tolist()

    def test_up_to_three_flips_recovered(self):
        chips = spread(np.array([1], np.uint8))
        for n_flips in range(4):
            for positions in itertools.combinations(range(8), n_flips):
                corrupted = chips.copy()
                corrupted[list(positions)] ^= 1
                assert despread(corrupted).tolist() == [1], positions

    def test_four_flip_tie_resolves_to_zero(self):
        chips = spread(np.array([0], np.uint8))
        for positions in itertools.combinations(range(8), 4):
            corrupted = chips.copy()
            corrupted[list(positions)] ^= 1
            assert despread(corrupted).tolist() == [0], positions

    def test_framing_error(self):
        with pytest.raises(FramingError):
            despread(np.zeros(7, np.uint8))

    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_despread_inverts_spread(self, data):
        arr = np.array(data, np.uint8)
        assert despread(spread(arr)).tolist() == data


class TestConvEncode:
    def test_zero_input_zero_output(self):
        out = conv_encode(np.zeros(10, np.uint8))
        assert out.tolist() == [0] * 24

    def test_impulse_response(self):
        out = conv_encode(np.array([1], np.uint8))
        assert out.tolist() == [1, 1, 1, 0, 1, 1]

    def test_length_and_oracle_agreement(self):
        data = np.array([1, 0, 1, 1], np.uint8)
        out = conv_encode(data)
        assert out.size == 12
        assert out.tolist() == encoder_oracle(data)

    @given(st.lists(st.integers(0, 1), max_size=48))
    def test_matches_shift_register_oracle(self, data):
        out = conv_encode(np.array(data, np.uint8))
        assert out.tolist() == encoder_oracle(data)

    @given(st.data())
    def test_linear_over_gf2(self, data):
        n = data.draw(st.integers(1, 32))
        a = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
        b = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
        assert np.array_equal(conv_encode(a ^ b), conv_encode(a) ^ conv_encode(b))

    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 2, (5, 17), dtype=np.uint8)
        out = conv_encode(batch)
        for row_in, row_out in zip(batch, out):
            assert np.array_equal(conv_encode(row_in), row_out)


class TestViterbi:
    def test_noiseless_roundtrip(self):
        data = np.array([1, 0, 1, 1], np.uint8)
        assert viterbi_decode(conv_encode(data)).tolist() == data.tolist()

    def test_single_flip_corrected_everywhere(self):
        data = np.array([1, 0, 1, 1], np.uint8)
        coded = conv_encode(data)
        for pos in range(coded.size):
            rx = coded.copy()
            rx[pos] ^= 1
            assert viterbi_decode(rx).tolist() == data.tolist(), pos

    def test_single_flip_is_unique_nearest(self):
        # the flipped word must sit strictly closer to the true codeword
        data = np.array([1, 0, 1, 1], np.uint8)
        coded = conv_encode(data)
        book = all_codewords(4)
        for pos in range(coded.size):
            rx = coded.copy()
            rx[pos] ^= 1
            dists = (book ^ rx).sum(axis=1)
            assert dists.min() == 1 and (dists == 1).sum() == 1

    def test_empty(self):
        assert viterbi_decode(np.zeros(0, np.uint8)).size == 0

    def test_odd_length_rejected(self):
        with pytest.raises(FramingError):
            viterbi_decode(np.zeros(5, np.uint8))
        with pytest.raises(FramingError):
            viterbi_decode(np.uint8(0))  # a 0-d input is one coded bit

    @given(st.lists(st.integers(0, 1), max_size=40))
    @settings(deadline=None)
    def test_roundtrip_property(self, data):
        arr = np.array(data, np.uint8)
        assert viterbi_decode(conv_encode(arr)).tolist() == data

    @pytest.mark.parametrize("n_data", range(8))
    def test_nearest_codeword_up_to_seven_bits(self, n_data):
        """ML property against exhaustive search, unique-minimum cases only."""
        book = all_codewords(n_data)
        rng = np.random.default_rng(n_data)
        n_coded = book.shape[1]
        for _ in range(40):
            rx = rng.integers(0, 2, n_coded, dtype=np.uint8)
            dists = (book ^ rx).sum(axis=1)
            best = int(dists.argmin())
            if (dists == dists[best]).sum() > 1:
                continue
            decoded = viterbi_decode(rx)
            value = int("".join(map(str, decoded.tolist())), 2) if n_data else 0
            assert value == best

    def test_matches_radix2_reference(self):
        """Error-free, noisy and p=0.5 (tie-heavy) inputs; step counts with
        every remainder mod 4, up to the engine's 125 frames x 1,602 steps;
        single frames and batches."""
        rng = np.random.default_rng(K)
        shapes = [(n_frames, n_steps)
                  for n_steps in list(range(K - 1, K + 9)) + [64, 101, 1602, 1603]
                  for n_frames in (1, 5)] + [(125, 1602)]
        for n_frames, n_steps in shapes:
            for flip in (0.0, 0.5, 0.08):
                data = rng.integers(0, 2, (n_frames, n_steps - (K - 1)), dtype=np.uint8)
                coded = conv_encode(data)
                noisy = coded ^ (rng.random(coded.shape) < flip).astype(np.uint8)
                out = viterbi_decode(noisy)
                assert np.array_equal(out, viterbi_radix2(noisy)), (n_frames, n_steps, flip)
                if flip == 0.0:
                    assert np.array_equal(out, data)
                single = viterbi_decode(noisy[0])
                assert single.shape == (n_steps - (K - 1),)
                assert np.array_equal(single, out[0])

    def test_tables_are_acs_steps(self):
        """The decoder's tables against first principles: the metric nodes
        are exactly the normalised vectors one ACS step at a time reaches from
        [0, 2^24, ..], each one-step row is that step, the four-step rows are
        four one-step lookups, the traceback rows follow the decisions back,
        and no table can be written."""
        from mclink import bits

        n_states = 1 << (K - 1)
        start = (0,) + (1 << 24,) * (n_states - 1)
        reached, todo = {start}, [start]
        while todo:
            metric = np.array(todo.pop())
            for r in range(4):
                new = acs_step(metric, r)[0]
                new = tuple((new - new.min()).tolist())
                if new not in reached:
                    reached.add(new)
                    todo.append(new)
        metrics = bits._METRICS
        assert tuple(metrics[0].tolist()) == start
        assert {tuple(m) for m in metrics.tolist()} == reached and len(metrics) == len(reached)
        assert len(reached) == 39  # the count the bits docstring states

        n = len(metrics)
        for node in range(n):
            for r in range(4):
                new, take1 = acs_step(metrics[node], r)
                assert metrics[bits._NEXT1[r, node]].tolist() == (new - new.min()).tolist()
                assert bits._DEC1[r, node] == sum(int(t) << s for s, t in enumerate(take1))

        for r4 in range(256):
            node, word = np.arange(n), np.zeros(n, dtype=np.int64)
            for r in ((r4 >> 6) & 3, (r4 >> 4) & 3, (r4 >> 2) & 3, r4 & 3):
                word = (word << 4) | bits._DEC1[r, node]
                node = bits._NEXT1[r, node]
            assert np.array_equal(bits._NEXT4[r4], node), r4
            assert np.array_equal(bits._DEC4[r4], word), r4

        pred, _, _ = trellis()
        words = np.arange(1 << 16)[:, None]
        state = np.broadcast_to(np.arange(n_states), (1 << 16, n_states))
        held = []
        for step in (3, 2, 1, 0):  # the first step's decisions sit in the top 4 bits
            held.insert(0, state & 1)
            state = pred[state, (words >> (4 * (3 - step) + state)) & 1]
        assert np.array_equal(bits._BACK4, state)
        low_byte = bits._BITS4[words & 255, np.arange(n_states)]
        assert np.array_equal(low_byte, np.stack(held, axis=-1))

        tables = [bits._METRICS, bits._NEXT1, bits._DEC1, bits._NEXT4, bits._DEC4,
                  bits._BACK4, bits._BITS4]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 0

    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(9)
        coded = conv_encode(rng.integers(0, 2, (6, 21), dtype=np.uint8))
        noisy = coded ^ (rng.random(coded.shape) < 0.05)
        out = viterbi_decode(noisy.astype(np.uint8))
        for row_in, row_out in zip(noisy, out):
            assert np.array_equal(viterbi_decode(row_in.astype(np.uint8)), row_out)

    @pytest.mark.parametrize("shape", [(2, 3, 46), (0, 46), (3, 0), (2, 3, 0)])
    def test_any_batch_shape_equals_rowwise(self, shape):
        rng = np.random.default_rng(9)
        n_out = max(shape[-1] // 2 - (K - 1), 0)
        data = rng.integers(0, 2, shape[:-1] + (n_out,), dtype=np.uint8)
        coded = conv_encode(data) if shape[-1] else np.zeros(shape, np.uint8)
        noisy = coded ^ (rng.random(shape) < 0.05).astype(np.uint8)
        out = viterbi_decode(noisy)
        assert out.shape == shape[:-1] + (n_out,) and out.dtype == np.uint8
        for row in np.ndindex(shape[:-1]):
            assert np.array_equal(viterbi_decode(noisy[row]), out[row]), row

    @pytest.mark.parametrize("lead", [(), (1,), (4,), (0,), (2, 3), (0, 2)])
    @pytest.mark.parametrize("n_coded", [1, 2, 3, 47])
    def test_framing_error_whatever_the_batch_shape(self, lead, n_coded):
        # odd lengths, and one coded pair, too short for the flush tail
        with pytest.raises(FramingError):
            viterbi_decode(np.zeros(lead + (n_coded,), np.uint8))
