"""Named, reproducible random streams.

Every stochastic routine in the package draws from a stream obtained by
``substream(master_seed, *labels)``. Streams with distinct label tuples
are statistically independent (numpy SeedSequence spawning semantics),
and the same (seed, labels) always yields the same generator state, so
parallel replication is deterministic: worker processes re-derive the
streams for the episode indices they own instead of sharing a generator.

``stream_uniforms`` derives many streams that differ only in a last int
label (one per episode) at once: it runs SeedSequence's entropy hash
(NEP 19 keeps it stable) and PCG64's seeding as uint32/uint64 column
operations over all of them, then writes each stream's four state words
into one PCG64 through a uint64[4] view of its ``pcg64_random_t`` and
draws that stream's row. Before the view is used, the struct (reached
through the first field of the public ``ctypes.state_address``) must lie
inside the generator object, and the order of its words is read back
after one write through the public ``state`` setter; any other layout
raises RuntimeError. Its rows are bitwise those of ``substream``.

The kernel check's jump-ahead copies (``simulate._jumped``) keep the
public ``state`` setter: there are four per check, not one per episode.
"""

import ctypes
import functools
import hashlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy/random/bit_generator.pyx (SeedSequence, pool size 4) and the
# PCG64 default multiplier of numpy/random/src/pcg64/pcg64.h.
_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _label_words(label):
    """Map one label (int or str) to uint32 entropy words."""
    if isinstance(label, (int, np.integer)):
        words, count = _id_words([int(label)])
        return words[:count[0], 0].tolist()
    if isinstance(label, str):
        return _str_words(label)
    raise TypeError("stream label must be int or str, got %r" % (label,))


@functools.lru_cache(maxsize=256)
def _str_words(label: str) -> tuple:
    """First four uint32 words of the label's SHA-256 digest, cached."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))


def seed_sequence(master_seed, *labels):
    entropy = [int(master_seed) & _MASK64]
    for label in labels:
        entropy.extend(_label_words(label))
    return np.random.SeedSequence(entropy)


def substream(master_seed, *labels) -> np.random.Generator:
    """Generator for the stream named by (master_seed, *labels)."""
    return np.random.default_rng(seed_sequence(master_seed, *labels))


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products of the uint64 array ``a`` with
    the 64-bit ``b``, summed from 32-bit halves."""
    m, h = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a & m, a >> h, np.uint64(b & _MASK32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> h) + (p01 & m) + (p10 & m)
    return a1 * b1 + (p01 >> h) + (p10 >> h) + (mid >> h)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2**128 over uint64 (high, low) word arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_seed(s_hi, s_lo, q_hi, q_lo) -> np.ndarray:
    """``pcg64_set_seed`` over uint64 arrays: with initstate s and initseq q
    (high and low words), inc = 2q + 1 and state = ((inc + s) * _PCG_MULT
    + inc) mod 2**128. Returns the (len, 4) uint64 words (state high,
    state low, inc high, inc low)."""
    one = np.uint64(1)
    with np.errstate(over="ignore"):
        i_hi, i_lo = (q_hi << one) | (q_lo >> np.uint64(63)), (q_lo << one) | one
        x_hi, x_lo = _add128(s_hi, s_lo, i_hi, i_lo)
        m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & _MASK64
        p_hi = _mulhi(x_lo, m_lo) + x_hi * np.uint64(m_lo) + x_lo * np.uint64(m_hi)
        p_lo = x_lo * np.uint64(m_lo)
        return np.stack(_add128(p_hi, p_lo, i_hi, i_lo) + (i_hi, i_lo), axis=-1)


def _pcg64_states(entropy: np.ndarray) -> np.ndarray:
    """The (columns, 4) state words (see ``_pcg64_seed``) of
    ``PCG64(SeedSequence(e))`` for each column e of the uint32 entropy
    array ``entropy`` (words, rows): SeedSequence's pool mixing and
    ``generate_state(4, uint64)`` one word row at a time, then
    ``pcg64_set_seed``. Every operand of the hash is a uint32 array (never a
    NumPy scalar), so it wraps mod 2**32 under NumPy 1.x value-based
    promotion as under NEP 50."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> 16)

    zero = np.zeros_like(entropy[0])
    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(_POOL, len(entropy)):
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(entropy[src]))
        hash_b, words = _INIT_B, []
        for i in range(8):
            value = pool[i % _POOL] ^ np.uint32(hash_b)
            hash_b = hash_b * _MULT_B & _MASK32
            value = value * np.uint32(hash_b)
            words.append((value ^ (value >> 16)).astype(np.uint64))
    # generate_state(4, uint64) pairs the words little-endian; pcg64_set_seed
    # takes (high, low) halves: initstate from uint64 0 and 1, initseq from 2 and 3.
    return _pcg64_seed(*(words[2 * j] | (words[2 * j + 1] << np.uint64(32)) for j in range(4)))


def _state_view(bitgen: np.random.PCG64):
    """A uint64[4] view of the ``pcg64_random_t`` (state, inc) of ``bitgen``
    and the order of its words: ``view[:] = w[order]`` sets the state whose
    ``_pcg64_seed`` words are w. The struct's address is the first field
    of the public ``ctypes.state_address``; that field and the struct's 32
    bytes must lie inside the generator object, and the word order is read
    back after one write of distinct words through the public ``state``
    setter. Any other layout raises RuntimeError. The view holds no
    reference to ``bitgen``: the caller keeps it alive while writing."""
    lo = id(bitgen)
    hi = lo + type(bitgen).__basicsize__
    field = bitgen.ctypes.state_address
    if not lo <= field <= hi - ctypes.sizeof(ctypes.c_void_p):
        raise RuntimeError("PCG64 state address %#x lies outside the generator" % field)
    ptr = ctypes.c_void_p.from_address(field).value
    if ptr is None or not lo <= ptr <= hi - 32:
        raise RuntimeError("PCG64 state struct lies outside the generator")
    view = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(ptr))
    probe = (0x0123456789ABCDEF, 0x1032547698BADCFE, 0x2301674589EFCDAB, 0x32107654BA98FEDD)
    state = bitgen.state
    state["state"] = {"state": probe[0] << 64 | probe[1], "inc": probe[2] << 64 | probe[3]}
    bitgen.state = state
    got = view.tolist()
    if sorted(got) != sorted(probe):
        raise RuntimeError("unknown PCG64 state layout: words %s" % [hex(w) for w in got])
    return view, np.array([probe.index(w) for w in got])


def _id_words(ids):
    """The uint32 entropy words of nonnegative int ids, low word first: the
    columns of a (words, len(ids)) uint32 array, zero past each id's last
    word, and each id's word count."""
    e = np.asarray(ids)
    if e.dtype.kind not in "iu":          # empty, or ids a fixed-width int cannot hold
        e = np.array(ids, dtype=object)
    else:                                 # a narrower dtype cannot hold the 32-bit mask
        e = e.astype(np.uint64 if e.dtype.kind == "u" else np.int64)
    if e.size and e.min() < 0:
        raise ValueError("stream labels must be nonnegative, got %r" % (int(e.min()),))
    words, count = [(e & _MASK32).astype(np.uint32)], np.ones(e.shape, dtype=np.intp)
    while (e := e >> 32).any():
        words.append((e & _MASK32).astype(np.uint32))
        count += e != 0
    return np.stack(words), count


def stream_uniforms(master_seed, label, ids, out: np.ndarray) -> np.ndarray:
    """Fill row i of the float64 array ``out`` (len(ids), n) with
    ``substream(master_seed, label, ids[i]).random(n)``, bit for bit.

    The seeding of all rows runs as array operations (``_id_words``,
    ``_pcg64_states``), grouped by the entropy length of the ids (an id of
    2**32 or more takes two words, 2**64 or more three, ...); one PCG64
    then draws every row, its state words written through ``_state_view``.
    An ``out`` that is not a C-contiguous 2-D float64 array of len(ids)
    rows is refused before any draw."""
    head = np.array(_label_words(int(master_seed) & _MASK64) + list(_label_words(label)),
                    dtype=np.uint32)
    words, count = _id_words(ids)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.ndim == 2
            and out.flags.c_contiguous and len(out) == len(count)):
        raise ValueError("out must be a C-contiguous float64 array of %d rows, got %s %s"
                         % (len(count), getattr(out, "dtype", type(out).__name__),
                            np.shape(out)))
    entropy = np.concatenate([np.repeat(head[:, None], len(count), axis=1), words])
    seeded = np.empty((len(count), 4), dtype=np.uint64)
    for n in np.unique(count):
        rows = np.flatnonzero(count == n)
        seeded[rows] = _pcg64_states(entropy[:len(head) + n, rows])
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    view, order = _state_view(bitgen)
    for w, row in zip(seeded[:, order], out):
        view[:] = w
        gen.random(out=row)
    return out
