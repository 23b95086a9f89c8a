"""Per-path normal draws from counter-keyed substreams, seeded in bulk.

Path ``p`` of a run with root seed ``seed`` draws from

    numpy.random.default_rng(numpy.random.SeedSequence((seed, p)))

and this module reproduces those draws bit for bit without building one
``SeedSequence`` and one ``Generator`` per path.  Building them took about
23 microseconds a path (2 vCPUs, numpy 2.4), more than drawing 128
normals.  Instead:

1. numpy's ``SeedSequence`` entropy mixing and its
   ``generate_state(4, uint64)`` run as uint32 array operations over every
   path index of a batch at once (the hash constants do not depend on the
   data, so every path walks the same sequence of them);
2. per path, the two 128-bit ``PCG64`` seeding steps
   (state = 0; state = state * M + inc; state += s; state = state * M + inc)
   give the generator state, which is assigned to one reused ``PCG64``
   before its ``Generator`` fills that path's row.

The constants and the order of operations are numpy's own
(``numpy/random/bit_generator.pyx`` and ``pcg64.h``).  The test suite
checks the result against ``default_rng(SeedSequence((seed, p)))``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["path_normals"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4  # SeedSequence's default pool of uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hashing
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _int_words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, ``[0]`` for zero (numpy's coercion)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_constants(init: int, mult: int):
    """The (before, after) hash constant of each successive hashing step."""
    const = init
    while True:
        after = (const * mult) & _MASK32
        yield np.uint32(const), np.uint32(after)
        const = after


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    before, after = next(consts)
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _state_words(seed: int, paths: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, p)).generate_state(4, uint64)`` for every p, as (n, 4) uint64.

    The entropy of a path is the seed's words followed by the path index's
    one or two words; paths whose entropy is shorter skip the trailing mixing
    steps of the longer ones.
    """
    n = paths.size
    seed_words = _int_words(seed)
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words]
    entropy += [(paths & np.uint64(_MASK32)).astype(np.uint32),
                (paths >> np.uint64(32)).astype(np.uint32)]
    length = len(seed_words) + np.where(entropy[-1] != 0, 2, 1)
    consts = _hash_constants(_INIT_A, _MULT_A)
    # words past a path's entropy are zero, as numpy pads them
    mixer = [_hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32), consts)
             for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], consts))
    for src in range(_POOL_SIZE, len(entropy)):
        live = src < length
        for dst in range(_POOL_SIZE):
            mixer[dst] = np.where(live, _mix(mixer[dst], _hashmix(entropy[src], consts)),
                                  mixer[dst])
    consts = _hash_constants(_INIT_B, _MULT_B)
    words = np.empty((n, 8), dtype=np.uint32)  # 4 uint64 = 8 uint32 per path
    for i in range(8):
        words[:, i] = _hashmix(mixer[i % _POOL_SIZE], consts)
    # uint32 pairs read as little-endian uint64, as numpy does on every
    # platform; no copy where the machine is little-endian
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def path_normals(seed: int, path_offset: int, n_paths: int, shape: tuple,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals of shape ``(n_paths, *shape)``; row p from path ``path_offset + p``.

    Row p equals ``default_rng(SeedSequence((seed, path_offset + p)))
    .standard_normal(shape)`` bit for bit.  Seeds are any integer >= 0 and
    path indices any integer in [0, 2**64).  ``out``, a float64 array of
    that shape whose last axis is contiguous (a slice of a larger path
    buffer, say), receives the draws in place of a new array and is
    returned.  The generator fills contiguous arrays only, so a path whose
    block is not contiguous is filled one last-axis row at a time in C
    order: the same draws as one call over the block.
    """
    seed, path_offset, n_paths = int(seed), int(path_offset), int(n_paths)
    if seed < 0 or path_offset < 0 or path_offset + n_paths > 1 << 64:
        raise ValueError("need seed >= 0 and path indices in [0, 2**64)")
    if out is None:
        out = np.empty((n_paths, *shape))
    bit_generator = np.random.PCG64(0)  # its state is overwritten for every path
    generator = np.random.Generator(bit_generator)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    paths = np.arange(path_offset, path_offset + n_paths, dtype=np.uint64)
    for p, words in enumerate(_state_words(seed, paths)):  # one path's 4 ints at a time
        s_hi, s_lo, inc_hi, inc_lo = words.tolist()
        inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        value = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        state["state"] = {"state": value, "inc": inc}
        bit_generator.state = state
        block = out[p]
        if block.flags.c_contiguous:
            generator.standard_normal(out=block)
        else:
            for index in np.ndindex(block.shape[:-1]):
                generator.standard_normal(out=block[index])
    return out
