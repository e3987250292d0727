"""Reproducible seed streams.

Every sampled value is fully determined by a ``SeedSpec``: a 64-bit master
seed plus a nonnegative stream index. Stream i is numpy's PCG64 seeded with
``SeedSequence(master_seed, spawn_key=(stream_index,))``, so distinct stream
indices give statistically independent streams and parallel runs reproduce
serial ones exactly. A stream's draws are deterministic within this
implementation (numpy's generators), not across languages.

``SeedSpec.rng()`` is the reference. Every sampled kind takes its streams
from ``block_streams``, which derives a whole block of them in bulk,
bit-identical to ``SeedSpec.rng()``, and checks that against the reference
once per block: if numpy ever changes its seeding, a run fails with
``StreamMismatchError`` rather than writing different bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, StreamMismatchError


@dataclass(frozen=True)
class SeedSpec:
    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < 2 ** 64):
            raise InvalidInputError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise InvalidInputError("stream_index must be nonnegative")

    def rng(self) -> np.random.Generator:
        """Generator for this stream."""
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), for a pool
# of 4 words, and PCG64's 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2 ** 32 - 1, 2 ** 128 - 1


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix on a column of uint32 words held in uint64."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _M32
    value = value * hash_const & _M32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ r >> 16


def _pcg64_states(master_seed: int, streams: range, width: int) -> list:
    """(state, inc) of PCG64 for each stream of a range whose indices all
    take `width` 32-bit spawn-key words.

    SeedSequence's entropy is the master seed's two words, zero-padded to the
    pool size, then the spawn key's words; its mixing runs here on one
    column per word, so every stream of the range is derived at once.
    """
    words = [np.full(len(streams), w, dtype=np.uint64)
             for w in (master_seed & _M32, master_seed >> 32, 0, 0)]
    words += [np.array([s >> 32 * k & _M32 for s in streams], dtype=np.uint64)
              for k in range(width)]
    pool, hc = [], _INIT_A
    for word in words[:4]:
        value, hc = _hashmix(word, hc)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, hc = _hashmix(word, hc)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): 8 words cycled from the pool, paired low-high
    out, hc = [], _INIT_B
    for k in range(8):
        value = pool[k % 4] ^ hc
        hc = hc * _MULT_B & _M32
        value = value * hc & _M32
        out.append(value ^ value >> 16)
    seeds = np.stack([out[k] | out[k + 1] << 32 for k in range(0, 8, 2)], axis=1)
    states = []
    for s0, s1, i0, i1 in seeds.tolist():
        # pcg_setseq_128_srandom_r: the first step from state 0 leaves inc
        inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        states.append((((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128, inc))
    return states


def block_streams(master_seed: int, first: int, count: int):
    """The generators of streams first .. first + count - 1, in order.

    Each is bit-identical to ``SeedSpec(master_seed, s).rng()``. One
    generator is reused with its state reset for every stream, so draw from
    a stream before taking the next. The first stream of each spawn-key width
    (indices from 2^32 take two words) is checked against the reference.
    """
    bit_gen = np.random.PCG64()
    rng = np.random.Generator(bit_gen)
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    stop, lo = first + count, first
    while lo < stop:
        width = max(1, (lo.bit_length() + 31) // 32)
        hi = min(stop, 2 ** (32 * width))
        states = _pcg64_states(master_seed, range(lo, hi), width)
        want = SeedSpec(master_seed, lo).rng().bit_generator.state["state"]
        if (want["state"], want["inc"]) != states[0]:
            raise StreamMismatchError(
                f"bulk seeding of stream {lo} (master seed {master_seed}) disagrees with "
                f"numpy {np.__version__}'s SeedSequence; the streams would change")
        for st, inc in states:
            state["state"] = {"state": st, "inc": inc}
            bit_gen.state = state
            yield rng
        lo = hi

