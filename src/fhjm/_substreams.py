"""Per-path normal draws from counter-keyed substreams, seeded in bulk.

Path ``p`` of a run with root seed ``seed`` draws from

    numpy.random.default_rng(numpy.random.SeedSequence((seed, p)))

and this module reproduces those draws bit for bit without building one
``SeedSequence`` and one ``Generator`` per path, or any other per-path
Python object.  Instead, for every path of a call at once:

1. numpy's ``SeedSequence`` entropy mixing and its
   ``generate_state(4, uint64)`` run as uint32 array operations, the four
   pool words as one (4, paths) array (the hash constants do not depend on
   the data, so every path walks the same sequence of them, tabled once);
2. the two 128-bit ``PCG64`` seeding steps
   (state = 0; state = state * M + inc; state += s; state = state * M + inc)
   run as 64-bit limb arithmetic on uint64 arrays.

Each path's four state words are then written straight into one reused
``PCG64`` through numpy's public ``bit_generator.ctypes.state_address``,
and its ``Generator`` fills that path's row.  The write is guarded on every
call: a known state is set through the public ``state`` setter and read
back through the pointer, which must lie inside the bit-generator object;
only the two word orders that numpy's ``pcg64.h`` defines are accepted,
and anything else is a ``RuntimeError``.  So a numpy build that keeps the
state otherwise fails loudly instead of drawing other numbers.

The constants and the order of operations are numpy's own
(``numpy/random/bit_generator.pyx`` and ``pcg64.h``).  The test suite
checks the result against ``default_rng(SeedSequence((seed, p)))``.
"""

from __future__ import annotations

import ctypes
import operator
from functools import lru_cache

import numpy as np

__all__ = ["path_normals"]

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4  # SeedSequence's default pool of uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hashing
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # PCG64's LCG multiplier
_U1, _U16, _U32, _U63 = np.uint64(1), np.uint32(16), np.uint64(32), np.uint64(63)
_LOW32 = np.uint64(_MASK32)

# a state with four distinct words, (state_hi, state_lo, inc_hi, inc_lo)
_PROBE = (0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6978, 0x8796A5B4C3D2E1F1)
# where pcg64.h keeps those words, in memory order: a native __uint128_t on a
# little-endian machine holds the low word first, the emulated
# {high, low} struct (and a big-endian __uint128_t) the high word first
_WORD_ORDERS = ((1, 0, 3, 2), (0, 1, 2, 3))


def _int_words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, ``[0]`` for zero (numpy's coercion)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (before, after) hash constants of ``count`` successive hashing steps, as columns."""
    before = [init]
    for _ in range(count):
        before.append((before[-1] * mult) & _MASK32)
    table = np.array(before, dtype=np.uint32)[:, None]
    return table[:-1], table[1:]


def _cross_constants() -> list:
    """Per pool word, the (before, after) columns of its mixing into the other words.

    numpy hashes word ``src`` once for each other word, in order; the
    column's slot ``src`` is a placeholder whose result is discarded.
    """
    before, after = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
    steps = [(before[k:k + _POOL_SIZE - 1], after[k:k + _POOL_SIZE - 1])
             for k in range(_POOL_SIZE, _POOL_SIZE * _POOL_SIZE, _POOL_SIZE - 1)]
    return [tuple(np.insert(c, src, 0, axis=0) for c in pair) for src, pair in enumerate(steps)]


_CROSS = _cross_constants()
_OUTPUT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)  # 4 uint64 = 8 uint32 words


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    value = (value ^ before) * after
    value ^= value >> _U16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    out ^= out >> _U16
    return out


def _seed_words(seed: int, paths: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, p)).generate_state(4, uint64)`` for every p, as (4, n) uint64.

    The entropy of a path is the seed's words followed by the path index's
    one or two words, zero-padded to the pool size as numpy pads it; paths
    whose entropy is shorter skip the trailing mixing steps of the longer
    ones.
    """
    seed_words = _int_words(seed)
    high = paths >> _U32
    high_row = len(seed_words) + 1 if high.any() else None
    length = len(seed_words) + 1 + (high_row is not None)
    entropy = np.zeros((max(length, _POOL_SIZE), paths.size), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = paths & _LOW32
    if high_row is not None:
        entropy[high_row] = high
    before, after = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    mixer = _hashmix(entropy[:_POOL_SIZE], before[:_POOL_SIZE], after[:_POOL_SIZE])
    for src, (b, a) in enumerate(_CROSS):
        mixed = _mix(mixer, _hashmix(mixer[src], b, a))
        mixed[src] = mixer[src]  # a word is not mixed into itself
        mixer = mixed
    for row in range(_POOL_SIZE, len(entropy)):
        k = _POOL_SIZE * row
        mixed = _mix(mixer, _hashmix(entropy[row], before[k:k + _POOL_SIZE],
                                     after[k:k + _POOL_SIZE]))
        # only a path index's high word can be absent, and it is absent where it is zero
        mixer = mixed if row != high_row else np.where(entropy[row] != 0, mixed, mixer)
    out = _hashmix(np.concatenate([mixer, mixer]), *_OUTPUT).astype(np.uint64)
    # uint32 pairs read as little-endian uint64, as numpy does on every platform
    out[1::2] <<= _U32
    out[1::2] |= out[0::2]
    return out[1::2]


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    t = a1 * b0 + ((a0 * b0) >> _U32)
    w = (t & _LOW32) + a0 * b1
    return a1 * b1 + (t >> _U32) + (w >> _U32)


def _pcg_states(words: np.ndarray) -> tuple:
    """PCG64's seeding of the (4, n) ``generate_state`` words, as four uint64 rows.

    The rows are (state_hi, state_lo, inc_hi, inc_lo) after
    inc = 2 * inc_seed + 1 and state = (inc + s) * M + inc, mod 2**128.
    """
    s_hi, s_lo, i_hi, i_lo = words
    inc_hi = (i_hi << _U1) | (i_lo >> _U63)
    inc_lo = (i_lo << _U1) | _U1
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo)
    m_hi, m_lo = np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO)
    state_hi = _mul_high(lo, _PCG_MULT_LO) + lo * m_hi + hi * m_lo
    state_lo = lo * m_lo + inc_lo
    state_hi += inc_hi + (state_lo < inc_lo)
    return state_hi, state_lo, inc_hi, inc_lo


def _word_order(memory) -> tuple:
    """Which of ``_WORD_ORDERS`` the four words read back after setting ``_PROBE`` show.

    ``memory`` holds the words in memory order.  Any other content means
    the state is not kept the way ``pcg64.h`` defines it: a
    ``RuntimeError`` naming numpy's version.
    """
    memory = tuple(int(w) for w in memory)
    for order in _WORD_ORDERS:
        if memory == tuple(_PROBE[k] for k in order):
            return order
    raise RuntimeError(
        f"numpy {np.__version__} does not keep the PCG64 state in either word order of "
        "its pcg64.h; per-path normals cannot be seeded in bulk"
    )


def _state_memory(bit_generator: np.random.PCG64) -> tuple[np.ndarray, tuple]:
    """The four state words of ``bit_generator`` as a writable uint64 view, and their order.

    The state is first set to ``_PROBE`` through the public setter, which
    also clears the buffered 32-bit half; the pointer numpy publishes must
    lie inside the bit-generator object, and the words behind it must show
    ``_PROBE`` in one of ``_WORD_ORDERS``.
    """
    hi_lo = 1 << 64
    bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
        "state": {"state": _PROBE[0] * hi_lo + _PROBE[1], "inc": _PROBE[2] * hi_lo + _PROBE[3]},
    }
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    start = id(bit_generator)
    if address is None or not start <= address <= start + type(bit_generator).__basicsize__ - 32:
        raise RuntimeError(
            f"numpy {np.__version__} publishes a PCG64 state pointer outside the bit generator"
        )
    memory = np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)
    return memory, _word_order(memory)


def _integer(value, name: str) -> int:
    """``value`` as an int if it is an integer, numpy integers too; else a TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def path_normals(seed: int, path_offset: int, n_paths: int, shape: tuple,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals of shape ``(n_paths, *shape)``; row p from path ``path_offset + p``.

    Row p equals ``default_rng(SeedSequence((seed, path_offset + p)))
    .standard_normal(shape)`` bit for bit.  Seeds are any integer >= 0 and
    path indices any integer in [0, 2**64); a non-integer seed, offset or
    path count is a ``TypeError``, as it is for ``SeedSequence``.  ``out``,
    a float64 array of that shape whose last axis is contiguous (a slice of
    a larger path buffer, say), receives the draws in place of a new array
    and is returned.  The generator fills contiguous arrays only, so a path
    whose block is not contiguous is filled one last-axis row at a time in
    C order: the same draws as one call over the block.
    """
    seed = _integer(seed, "seed")
    path_offset = _integer(path_offset, "path_offset")
    n_paths = _integer(n_paths, "n_paths")
    if seed < 0 or path_offset < 0 or path_offset + n_paths > 1 << 64:
        raise ValueError("need seed >= 0 and path indices in [0, 2**64)")
    if out is None:
        out = np.empty((n_paths, *shape))
    bit_generator = np.random.PCG64(0)  # its state is overwritten for every path
    generator = np.random.Generator(bit_generator)
    memory, order = _state_memory(bit_generator)
    paths = np.arange(path_offset, path_offset + n_paths, dtype=np.uint64)
    seeded = _pcg_states(_seed_words(seed, paths))
    states = np.empty((n_paths, 4), dtype=np.uint64)  # one row per path, in memory order
    for k, w in enumerate(order):
        states[:, k] = seeded[w]
    # every path's block has the same shape and strides
    contiguous = out[0].flags.c_contiguous if n_paths else True
    for words, block in zip(states, out):
        memory[:] = words
        if contiguous:
            generator.standard_normal(out=block)
        else:
            for index in np.ndindex(block.shape[:-1]):
                generator.standard_normal(out=block[index])
    return out
