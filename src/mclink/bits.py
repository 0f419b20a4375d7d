"""Bit-level stages of the chain, each fixed: the PRBS-23 message source
(x^23 + x^18 + 1), 8-chip direct-sequence spreading with the signature
10110010, and the K=3 rate-1/2 convolutional code with octal generators
(7, 5), zero-flushed, with its Viterbi decoder.

Bit streams are numpy uint8 arrays of 0/1 values.  Every function accepts a
trailing-axis layout, so a batch of frames can be processed as a 2-D array
``(n_frames, n_bits)`` in one call.
"""
from __future__ import annotations

import numpy as np

from .errors import FramingError

#: The source register length and its one inner tap: x^23 + x^18 + 1.
PRBS_DEGREE = 23
PRBS_TAP = 18
#: The feedback for the next 23 - 18 bits reads only bits already in the
#: register, so the register advances a whole word of that many bits per step.
PRBS_WORD = PRBS_DEGREE - PRBS_TAP

#: The spreading signature; one payload bit becomes 8 chips.
CHIPS = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
CHIPS.flags.writeable = False

#: The convolutional code: constraint length, generators, trellis states.
CONSTRAINT_LENGTH = 3
GENERATORS = (0o7, 0o5)
N_STATES = 1 << (CONSTRAINT_LENGTH - 1)


class Prbs:
    """The PRBS-23 message source, a Fibonacci LFSR over GF(2).

    The register state advances with each generated bit, so consecutive calls
    continue the same sequence, of period 2^23 - 1.
    """

    def __init__(self, state: int):
        if state == 0:
            raise ValueError("LFSR seeded with all-zero state would lock up")
        if not 0 < state < (1 << PRBS_DEGREE):
            raise ValueError(f"state {state:#b} does not fit in {PRBS_DEGREE} register bits")
        self.state = state

    def generate(self, n: int) -> np.ndarray:
        """Emit the next ``n`` bits, advancing the register a word at a time;
        the register LSB is the output bit."""
        if n < 0:
            raise ValueError("bit count must be non-negative")
        state = self.state
        words = []
        for step in [PRBS_WORD] * (n // PRBS_WORD) + [n % PRBS_WORD]:
            fb = state ^ (state >> PRBS_TAP)
            words.append(state & ((1 << step) - 1))
            state = (state >> step) | ((fb & ((1 << step) - 1)) << (PRBS_DEGREE - step))
        self.state = state
        packed = np.array(words, dtype=np.uint8)[:, None]
        bits = np.unpackbits(packed, axis=1, bitorder="little")[:, :PRBS_WORD]
        return bits.reshape(-1)[:n]


def spread(data: np.ndarray) -> np.ndarray:
    """XOR each data bit with the chip sequence: output is 8x longer."""
    data = np.asarray(data, dtype=np.uint8)
    chips = data[..., :, None] ^ CHIPS
    return chips.reshape(data.shape[:-1] + (data.shape[-1] * CHIPS.size,))


def despread(chips: np.ndarray) -> np.ndarray:
    """Majority-vote 8 chips back into one bit.

    A 4/4 tie resolves to 0, so a bit decision flips only when 5 or more of
    its chips are corrupted.
    """
    chips = np.asarray(chips, dtype=np.uint8)
    sf = CHIPS.size
    if chips.shape[-1] % sf:
        raise FramingError(
            f"chip count {chips.shape[-1]} is not a multiple of the spreading factor {sf}"
        )
    blocks = chips.reshape(chips.shape[:-1] + (-1, sf)) ^ CHIPS
    votes = blocks.sum(axis=-1, dtype=np.int16)
    return (votes > sf // 2).astype(np.uint8)


def conv_encode(data: np.ndarray) -> np.ndarray:
    """Encode with K-1 zero tail bits; output length is 2*(len + K - 1).

    Output bit pairs are (g0, g1) per input step.  The register starts
    all-zero, and the flush returns it to zero so the decoder can assume a
    terminated trellis.
    """
    data = np.asarray(data, dtype=np.uint8)
    k = CONSTRAINT_LENGTH
    n_steps = data.shape[-1] + k - 1
    # window w_n = (u[n-K+1] .. u[n]); generator bit p taps u[n-p]
    padded = np.zeros(data.shape[:-1] + (n_steps + k - 1,), dtype=np.uint8)
    padded[..., k - 1 : k - 1 + data.shape[-1]] = data
    streams = []
    for g in GENERATORS:
        acc = np.zeros(data.shape[:-1] + (n_steps,), dtype=np.uint8)
        for p in range(k):
            if (g >> p) & 1:
                acc ^= padded[..., k - 1 - p : k - 1 - p + n_steps]
        streams.append(acc)
    out = np.stack(streams, axis=-1)
    return out.reshape(data.shape[:-1] + (2 * n_steps,))


def _branch_metrics() -> tuple[np.ndarray, np.ndarray]:
    """Read-only branch-metric tables of the code, laid out for butterflies.

    State s holds the K-1 newest input bits, newest in the LSB.  Its two
    predecessors are ``(s >> 1) + j * n_states/2`` for branch j = 0, 1, so
    metrics viewed as ``(2, n_states/2)`` are indexed ``[j, s >> 1]`` and the
    new metrics, viewed as ``(n_states/2, 2)``, ``[s >> 1, s & 1]``.  Steps t
    and t+1 form one radix-4 step: state s'' after t+1 is reached through
    s' = (s'' >> 1) + j1 * n_states/2 from p = (s' >> 1) + j0 * n_states/2.
    A received bit pair is coded r = 2*r0 + r1, a pair of pairs
    r2 = 4*r_t + r_t+1.  Returns

    * ``bm1``, shape (2, n_states/2, 2, 4): ``[j, s >> 1, s & 1, r]``;
    * ``bm2``, shape (2, 2, n_u, n_v, 16): ``[j0, j1, s'' // n_v, s'' % n_v, r2]``
      with n_v = min(n_states, 4), the metric of both steps together.
    """
    k = CONSTRAINT_LENGTH
    n = N_STATES
    s = np.arange(n)
    prev = (s >> 1) | (np.arange(2)[:, None] << (k - 2))       # [j, s]
    window = (prev << 1) | (s & 1)
    outs = [np.array([(int(w) & g).bit_count() & 1 for w in window.ravel()]).reshape(2, n)
            for g in GENERATORS]
    r = np.arange(4)[:, None, None]
    bm1 = (outs[0] ^ (r >> 1)) + (outs[1] ^ (r & 1))          # [r, j, s]
    # [r_t, r_t+1, j0, j1, s''] = bm_t(s', j0) + bm_t+1(s'', j1)
    bm2 = bm1[:, None, :, prev] + bm1[None, :, None, :, :]
    n_v = min(n, 4)
    bm1 = np.moveaxis(bm1, 0, -1).reshape(2, n // 2, 2, 4).astype(np.uint8)
    bm2 = np.moveaxis(bm2.reshape(16, 2, 2, n // n_v, n_v), 0, -1).astype(np.uint8)
    bm1.flags.writeable = False
    bm2.flags.writeable = False
    return bm1, bm2


_BM1, _BM2 = _branch_metrics()


def viterbi_decode(coded: np.ndarray) -> np.ndarray:
    """Minimum-Hamming-distance sequence decoder for a zero-flushed stream.

    Accepts a single stream or a batch ``(n_frames, n_coded)``; every frame
    must have the same length.  Metric ties prefer the lower-indexed
    predecessor state, which makes the decoder deterministic.  Steps are
    taken two at a time (radix 4); an odd first step is taken alone.
    """
    coded = np.asarray(coded, dtype=np.uint8)
    single = coded.ndim == 1
    rx = np.atleast_2d(coded)
    if rx.shape[-1] % 2:
        raise FramingError(f"coded length {rx.shape[-1]} is odd")
    n_steps = rx.shape[-1] // 2
    k = CONSTRAINT_LENGTH
    if n_steps == 0:
        out = np.zeros(rx.shape[:-1] + (0,), dtype=np.uint8)
        return out[0] if single else out
    if n_steps < k - 1:
        raise FramingError(f"{n_steps} coded pairs cannot hold a {k - 1}-bit flush tail")

    n_frames = rx.shape[0]
    n = N_STATES
    n_u, n_v = _BM2.shape[2:4]
    odd = n_steps % 2
    n_pairs = n_steps // 2
    r = (rx[:, 0::2] << 1) | rx[:, 1::2]

    # metrics and decisions keep the frame axis last, so each ufunc call
    # below runs contiguous inner loops over all frames
    metric = np.full((n, n_frames), 1 << 24, dtype=np.int32)
    metric[0] = 0
    if odd:
        # the first step's decisions are never traced back through
        cand = metric.reshape(2, n // 2, 1, n_frames) + _BM1[..., r[:, 0]]
        np.minimum(cand[0], cand[1], out=metric.reshape(n // 2, 2, n_frames))

    bm = np.moveaxis(_BM2[..., (r[:, odd::2] << 2 | r[:, odd + 1 :: 2]).T], -2, 0)
    dec0 = np.empty((n_pairs, 2, n_u, n_v, n_frames), dtype=bool)
    dec1 = np.empty((n_pairs, n_u, n_v, n_frames), dtype=bool)
    cand = np.empty((2, 2, n_u, n_v, n_frames), dtype=np.int32)
    best = np.empty((2, n_u, n_v, n_frames), dtype=np.int32)
    m_in = metric.reshape(2, n // (2 * n_u), n_u, 1, n_frames)
    m_out = metric.reshape(n_u, n_v, n_frames)
    for i in range(n_pairs):
        np.add(m_in, bm[i], out=cand)
        np.less(cand[1], cand[0], out=dec0[i])
        np.minimum(cand[0], cand[1], out=best)
        np.less(best[1], best[0], out=dec1[i])
        np.minimum(best[0], best[1], out=m_out)

    # Trace back two steps at a time through flat indices state * n_frames +
    # frame, starting from the all-zero state the flush tail leaves.  State
    # s'' came from p = (s'' >> 2) + j1 * n_states/4 + j0 * n_states/2, where
    # j0 is the step-t decision of the s' that s'' chose with j1.
    j1 = dec1.reshape(n_pairs, n, n_frames)
    j0 = dec0.reshape(n_pairs, 2, n, n_frames)
    j0 = (j0[:, 1] & j1) | (j0[:, 0] & ~j1)
    frames = np.arange(n_frames, dtype=np.int32)
    links = j0.astype(np.int32)
    links *= (n // 2) * n_frames
    step = j1.astype(np.int32)
    step *= (n // 4) * n_frames
    links += step
    links += (np.arange(n, dtype=np.int32)[:, None] >> 2) * n_frames + frames
    flat = frames
    ends = np.empty((n_pairs, n_frames), dtype=np.int32)
    for i in range(n_pairs - 1, -1, -1):
        ends[i] = flat
        flat = links[i].take(flat)
    via = np.take_along_axis(j1.reshape(n_pairs, n * n_frames), ends, axis=1)
    ends //= n_frames

    # the state after each step holds that step's input bit in its LSB; the
    # state after step t of a pair is s' = (s'' >> 1) | (j1 << (k - 2))
    bits = np.empty((n_frames, n_steps), dtype=np.uint8)
    if odd:
        bits[:, 0] = (flat // n_frames) & 1
    bits[:, odd::2] = (((ends >> 1) | (via << (k - 2))) & 1).T
    bits[:, odd + 1 :: 2] = (ends & 1).T
    data = bits[:, : n_steps - (k - 1)]
    return data[0] if single else data
