"""Bit-level stages of the chain, each fixed: the PRBS-23 message source
(x^23 + x^18 + 1), 8-chip direct-sequence spreading with the signature
10110010, and the K=3 rate-1/2 convolutional code with octal generators
(7, 5), zero-flushed, with its hard-decision Viterbi decoder.

The source obeys s[m] = s[m-23] ^ s[m-5]; squaring its polynomial k times
over GF(2) gives s[m] = s[m - 23*2^k] ^ s[m - 5*2^k] (Golomb, *Shift Register
Sequences*, 1967), so n bits take O(log n) slice XORs.  The 8 chips of a bit
are one byte, the signature's or its complement's.

The decoder is table-driven.  Its path metrics less their minimum take 39
values, the nodes of a finite machine (Forney, Proc. IEEE 61(3), 1973), so
every add-compare-select step, a tie keeping the lower-indexed predecessor,
is worked out at import; a decode reads four trellis steps per table lookup
going forward and four per lookup tracing back.

Bit streams are numpy uint8 arrays of 0/1 values along the last axis.  The
spreader, the code and the decoder accept any leading batch shape, so a batch
of frames ``(..., n_frames, n_bits)`` is processed in one call.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FramingError

#: The source register length and its one inner tap: x^23 + x^18 + 1.
PRBS_DEGREE = 23
PRBS_TAP = 18
#: The recurrence's short lag: s[m] = s[m - 23] ^ s[m - 5].
PRBS_WORD = PRBS_DEGREE - PRBS_TAP

#: The spreading signature; one payload bit becomes 8 chips.
CHIPS = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
CHIPS.flags.writeable = False
#: The chips of a 0 and of a 1 bit, each packed MSB first into one byte.
_CHIP_BYTES = np.packbits([CHIPS, 1 - CHIPS], axis=-1)[:, 0]
_CHIP_BYTES.flags.writeable = False

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
        """Emit the next ``n`` bits; the register LSB is the output bit.  Once
        23*2^k bits exist, the next 5*2^k are one slice XOR (module docstring)."""
        if n < 0:
            raise ValueError("bit count must be non-negative")
        s = np.empty(n + PRBS_DEGREE, dtype=np.uint8)
        seed = np.frombuffer(self.state.to_bytes(3, "little"), dtype=np.uint8)
        s[:PRBS_DEGREE] = np.unpackbits(seed, bitorder="little")[:PRBS_DEGREE]
        have, lag = PRBS_DEGREE, 1
        while have < s.size:
            if have >= 2 * PRBS_DEGREE * lag:
                lag *= 2
            run = min(PRBS_WORD * lag, s.size - have)
            far, near = have - PRBS_DEGREE * lag, have - PRBS_WORD * lag
            np.bitwise_xor(s[far : far + run], s[near : near + run], out=s[have : have + run])
            have += run
        self.state = int.from_bytes(np.packbits(s[n:], bitorder="little").tobytes(), "little")
        return s[:n]


def spread(data: np.ndarray) -> np.ndarray:
    """XOR each data bit with the chip sequence: output is 8x longer."""
    return np.unpackbits(_CHIP_BYTES[np.asarray(data, dtype=np.uint8)], axis=-1)


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
    votes = np.bitwise_count(np.packbits(chips, axis=-1) ^ _CHIP_BYTES[0])
    return (votes > sf // 2).view(np.uint8)


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


def _decoder_tables() -> tuple[np.ndarray, ...]:
    """Read-only tables of every add-compare-select (ACS) step.

    State s holds the K-1 newest input bits, newest in the LSB; its
    predecessors are ``(s >> 1) | (j << (K - 2))`` for j = 0, 1, and a step
    picks j = 1 only when that path's metric is strictly smaller.  Node 0 is
    the decoder's start ``[0, 2^24, 2^24, 2^24]``; subtracting the minimum
    changes no comparison, so the tables hold the exact decisions.  A
    received pair is r = 2*r0 + r1, four pairs r4 = 64 r_t + 16 r_t+1 +
    4 r_t+2 + r_t+3, the byte ``np.packbits`` makes of their 8 bits.  Returns

    * ``metrics``, shape (n_nodes, n_states): each node's metric vector;
    * ``next1``, ``dec1``, shape (4, n_nodes): ``[r, node]`` -> the node one
      step later and that step's decisions, bit s the j state s chose;
    * ``next4``, ``dec4``, shape (256, n_nodes): ``[r4, node]`` -> the node
      four steps later and their decisions, the first step's in the top bits;
    * ``back4``, shape (2^16, n_states): ``[dec4 word, state]`` -> the state
      four steps before, on the path that ends in ``state``;
    * ``bits4``, shape (256, n_states, 4): ``[word & 255, state]`` -> that
      path's four input bits, which the last two steps' decisions fix.
    """
    s = np.arange(N_STATES)
    prev = (s >> 1) | (np.arange(2)[:, None] << (CONSTRAINT_LENGTH - 2))  # [j, s]
    outs = [np.bitwise_count(((prev << 1) | (s & 1)) & g) & 1 for g in GENERATORS]
    r = np.arange(4)[:, None, None]
    bm = (outs[0] ^ (r >> 1)) + (outs[1] ^ (r & 1))                      # [r, j, s]

    # breadth first, numbering nodes as found, so rows come out in node order
    nodes = {(0,) + (1 << 24,) * (N_STATES - 1): 0}
    level, next1, dec1 = list(nodes), [], []
    while level:
        cand = np.array(level)[:, None, prev] + bm                     # [v, r, j, s]
        dec1.append(((cand[:, :, 1] < cand[:, :, 0]) << s).sum(axis=-1))
        best = cand.min(axis=2)
        best -= best.min(axis=-1, keepdims=True)
        found = len(nodes)
        rows = map(tuple, best.reshape(-1, N_STATES).tolist())
        next1 += [nodes.setdefault(v, len(nodes)) for v in rows]
        level = list(nodes)[found:]
    n, next1 = len(nodes), np.array(next1, dtype=np.intp).reshape(-1, 4)
    dec1 = np.concatenate(dec1)
    node, dec4 = np.arange(n), np.zeros(n, dtype=np.intp)
    for _ in range(4):                                 # axes [node, r_t, .., r_t+3]
        dec4 = (dec4 << 4)[..., None] | dec1[node]
        node = next1[node]

    # one step back: pred[s, decisions]; two: the later step in the low 4 bits
    pred = (s[:, None] >> 1) | (((np.arange(16) >> s[:, None]) & 1) << (CONSTRAINT_LENGTH - 2))
    byte = np.arange(256)
    pred2 = pred[pred[:, byte & 15], byte >> 4].T.astype(np.uint8)      # [byte, s]
    back4 = pred2[:, pred2]                                             # [high, low, s]
    # a state holds its last two input bits, pred2[low byte, s] the two before
    held = ((s[:, None] >> [1, 0]) & 1).astype(np.uint8)                # [s, bit]
    bits4 = np.concatenate([held[pred2], np.broadcast_to(held, (256, N_STATES, 2))], axis=-1)
    tables = [np.array(list(nodes)), next1.T, dec1.T, node.reshape(n, 256).T,
              dec4.reshape(n, 256).T, back4.reshape(-1, N_STATES), bits4]
    for i, t in enumerate(tables):
        tables[i] = t = np.ascontiguousarray(t)
        t.flags.writeable = False
    return tuple(tables)


_METRICS, _NEXT1, _DEC1, _NEXT4, _DEC4, _BACK4, _BITS4 = _decoder_tables()


def viterbi_decode(coded: np.ndarray) -> np.ndarray:
    """Minimum-Hamming-distance sequence decoder for a zero-flushed stream.

    Takes ``(..., n_coded)``, any leading batch shape and one frame length,
    to ``(..., n_coded // 2 - (K - 1))`` bits, none for an empty stream.
    Metric ties prefer the lower-indexed predecessor state, which makes the
    decoder deterministic.  The first ``n_steps % 4`` steps read the one-step
    tables, the rest four at a time.
    """
    coded = np.atleast_1d(np.asarray(coded, dtype=np.uint8))
    if coded.shape[-1] % 2:
        raise FramingError(f"coded length {coded.shape[-1]} is odd")
    n_steps = coded.shape[-1] // 2
    k = CONSTRAINT_LENGTH
    if 0 < n_steps < k - 1:
        raise FramingError(f"{n_steps} coded pairs cannot hold a {k - 1}-bit flush tail")
    # the row count is explicit: reshape(-1, 0) is ambiguous on empty input
    rx = coded.reshape(math.prod(coded.shape[:-1]), coded.shape[-1])

    # Flat table indices, r * n_nodes + node forward and word * n_states + state
    # back, are in range by construction: mode="clip" writes to out unbuffered.
    n_frames, n_nodes = rx.shape[0], _METRICS.shape[0]
    lead, n_blocks = n_steps % 4, n_steps // 4
    node, lead_dec = np.zeros(n_frames, dtype=np.intp), []
    for t in range(lead):
        at = node + n_nodes * (2 * rx[:, 2 * t] + rx[:, 2 * t + 1])
        lead_dec.append(_DEC1.take(at))
        node = _NEXT1.take(at)
    at = np.packbits(rx[:, 2 * lead :].T, axis=0) * np.intp(n_nodes)
    for row in at:
        row += node
        _NEXT4.take(row, out=node, mode="clip")

    back = _DEC4.take(at) * N_STATES
    state = np.zeros(n_frames, dtype=np.uint8)  # where the flush tail ends
    for row in back[::-1]:
        row += state
        _BACK4.take(row, out=state, mode="clip")
    bits = np.empty((n_frames, n_steps), dtype=np.uint8)
    blocks = np.take(_BITS4.reshape(-1, 4), back.T & (_BITS4.shape[0] * N_STATES - 1), axis=0)
    bits[:, lead:] = blocks.reshape(n_frames, 4 * n_blocks)
    # the state after each step holds that step's input bit in its LSB
    for t in range(lead - 1, -1, -1):
        bits[:, t] = state & 1
        state = (state >> 1) | ((lead_dec[t] >> state) & 1) << (k - 2)
    n_out = max(n_steps - (k - 1), 0)
    return bits[:, :n_out].reshape(coded.shape[:-1] + (n_out,))
