"""Named random substreams derived from one run seed.

Every source of randomness in the package draws from
``default_rng([seed, stream_id, *extra])`` so that components are
individually reproducible: reseeding the shuffle stream, say, cannot
perturb weight initialization.

Corruption keeps one substream per row: row ``i``'s flips are the first ``c``
uniforms of ``substream(seed, "corrupt", i)``, and a full set drops the wrong
label at index ``integers(wrong.size)`` of the same substream.
:func:`uniform_rows` gives those uniforms for all ``n`` rows without building
``n`` Generators: it runs NumPy's SeedSequence hash and PCG64 (the bit
generator of ``default_rng``) on uint32/uint64 arrays, one block of rows at a
time.  NumPy's compatibility policy (NEP 19) keeps both algorithms' streams
fixed, and ``tests/test_rng.py`` pins the bulk rows to the Generators bit for
bit.
"""

from __future__ import annotations

import numpy as np

STREAMS = {
    "split": 0,
    "init": 1,
    "shuffle": 2,
    "corrupt": 3,
}

BLOCK_ROWS = 4096  # rows per bulk block: each block array is 32 KiB

_MASK32 = 0xFFFFFFFF
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _S16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
# PCG64's 128-bit LCG multiplier as high and low 64-bit halves, and the low half's 32-bit limbs
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_K1, _K0 = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(s) for s in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)


def substream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Generator for the named stream; ``extra`` indices split it further."""
    return np.random.default_rng([int(seed), STREAMS[name], *[int(e) for e in extra]])


def uniform_rows(seed: int, name: str, n: int, c: int) -> np.ndarray:
    """The ``(n, c)`` array whose row ``i`` is ``substream(seed, name, i).random(c)``, bit for bit."""
    seed, n, c = int(seed), int(n), int(c)
    if seed < 0 or not 0 <= n <= 1 << 32:
        raise ValueError(f"need seed >= 0 and 0 <= n <= 2**32, got seed={seed}, n={n}")
    words = [seed & _MASK32]  # SeedSequence's little-endian 32-bit words of the seed
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    head = [np.array([w], dtype=np.uint32) for w in words + [STREAMS[name]]]
    out = np.empty((n, c))
    for start in range(0, n, BLOCK_ROWS):
        rows = np.arange(start, min(start + BLOCK_ROWS, n), dtype=np.uint32)
        init_hi, init_lo, seq_hi, seq_lo = _seed_state(head + [rows])
        # PCG64's seeding: one LCG step from state 0 gives inc; add the seed, step again
        inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
        lo = inc_lo + init_lo
        hi, lo = _mul_add(inc_hi + init_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
        for k in range(c):
            hi, lo = _mul_add(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> _U58  # XSL-RR output
            x = x >> rot | x << ((_U64 - rot) & _U63)
            out[start:start + rows.size, k] = (x >> _U11) * 2.0 ** -53
    return out


def _seed_state(entropy):
    """SeedSequence(entropy).generate_state(4, np.uint64) for uint32 word arrays."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value, const = _hash(value, const, _MULT_A)
        return value

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        return result ^ result >> _S16

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, const = [], _INIT_B
    for i in range(8):
        value, const = _hash(pool[i % _POOL], const, _MULT_B)
        state.append(value.astype(np.uint64))
    return [state[i] | state[i + 1] << _U32 for i in range(0, 8, 2)]


def _hash(value, const, mult):
    """SeedSequence's hash of a uint32 array with ``const``, and the constant that follows it."""
    following = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(following)
    return value ^ value >> _S16, following


def _mul_add(hi, lo, inc_hi, inc_lo):
    """One step of the 128-bit LCG, state * multiplier + inc mod 2**128."""
    l1, l0 = lo >> _U32, lo & _LOW32
    p00, p01, p10 = l0 * _K0, l0 * _K1, l1 * _K0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = l1 * _K1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)  # high half of lo * MULT_LO
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = hi * _MULT_LO + lo * _MULT_HI + carry + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo
