"""Span tracer that times mclink's layers from outside the package.

Each traced name is replaced on the module or class through which the engine
(or ``mimo``/``channel``) looks it up at call time, so nothing under ``src/``
changes.  Spans nest per thread.  A span's self time is its duration minus the
durations of its direct child spans, so the self times of all spans under one
``engine.run_chain`` call add up to that call's duration.

Calls made outside a ``run_chain`` span are not traced.  ``install`` fails
on a traced name that the package no longer has, so a renamed or moved layer
has to be re-pointed here rather than read zero.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

ROOT_SPAN = "engine.run_chain"


def _sites():
    """(owner, attribute, span name, counter) for every traced call site.

    ``counter`` is None or (count name, function of the call's result).
    """
    from mclink import bits, channel, engine, mimo, modem

    return [
        (engine, "run_chain", ROOT_SPAN, None),
        (bits.Prbs, "generate", "bits.Prbs.generate", None),
        (engine, "spread", "bits.spread", None),
        (engine, "conv_encode", "bits.conv_encode", None),
        (engine, "viterbi_decode", "bits.viterbi_decode", None),
        (engine, "despread", "bits.despread", None),
        (modem, "map_bits", "modem.map_bits", ("modem.symbols", lambda out: out.size)),
        (modem, "demap_symbols", "modem.demap_symbols", None),
        (engine, "stbc_encode", "mimo.stbc_encode", None),
        (engine, "build_effective", "mimo.build_effective", None),
        (engine, "zf_detect", "mimo.zf_detect",
         ("mimo.blocks", lambda out: out.estimates.size // 2)),
        (mimo, "zf_weights", "mimo.zf_weights", None),
        (engine, "ofdm_modulate", "ofdm.ofdm_modulate", None),
        (engine, "ofdm_demodulate", "ofdm.ofdm_demodulate", None),
        (engine, "draw_channel", "channel.draw_channel", None),
        (engine, "apply_channel", "channel.apply_channel", None),
        # the Gaussian draws inside draw_channel/apply_channel, and the
        # engine's weak-block redraws
        (channel, "complex_normal", "channel.complex_normal", None),
        (engine, "complex_normal", "channel.complex_normal", None),
    ]


def _new_point(key) -> dict:
    return {
        "key": key,
        "total": defaultdict(float),
        "self": defaultdict(float),
        "calls": defaultdict(int),
        "counts": defaultdict(int),
    }


class Tracer:
    """Collects one record per ``run_chain`` call: total and self seconds,
    call counts and result counts per span name."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.points: list[dict] = []

    def install(self) -> None:
        sites = _sites()
        missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr, _, _ in sites if not callable(getattr(owner, attr, None))]
        if missing:
            raise AttributeError(f"traced names not found: {', '.join(missing)}")
        for owner, attr, name, counter in sites:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, counter))

    def _wrap(self, fn, name, counter):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            root = not stack
            if root:
                if name != ROOT_SPAN:
                    return fn(*args, **kwargs)
                local.point = _new_point(list(args[1:3]))
            point = local.point
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                point["total"][name] += elapsed
                point["self"][name] += elapsed - children[0]
                point["calls"][name] += 1
                if root:
                    with self._lock:
                        self.points.append(point)
            if counter is not None:
                point["counts"][counter[0]] += counter[1](out)
            return out

        return traced
