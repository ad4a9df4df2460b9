"""Named, reproducible random streams.

Every stochastic routine in the package draws from a stream obtained by
``substream(master_seed, *labels)``. Streams with distinct label tuples
are statistically independent (numpy SeedSequence spawning semantics),
and the same (seed, labels) always yields the same generator state, so
parallel replication is deterministic: worker processes re-derive the
streams for the episode indices they own instead of sharing a generator.

``stream_uniforms`` derives many streams that differ only in a last int
label (one per episode) at once: it runs SeedSequence's entropy hash
(NEP 19 keeps it stable) as uint32 column operations over all of them,
then sets one PCG64 to each stream's seeded state in turn, refilling one
state dict for its ``state`` setter rather than building one per stream.
Its rows are bitwise those of ``substream``.
"""

import functools
import hashlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
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


def _pcg64_states(entropy: np.ndarray):
    """Yield (state, inc) of ``PCG64(SeedSequence(e))`` for each column e of the
    uint32 entropy array ``entropy`` (words, rows): SeedSequence's pool
    mixing and ``generate_state(4, uint64)`` one word row at a time, then
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
    v = [(words[2 * j] | (words[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)]
    for s_hi, s_lo, q_hi, q_lo in zip(*v):
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


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
    then draws every row, its ``state`` set from one reused dict."""
    head = np.array(_label_words(int(master_seed) & _MASK64) + list(_label_words(label)),
                    dtype=np.uint32)
    words, count = _id_words(ids)
    entropy = np.concatenate([np.repeat(head[:, None], len(count), axis=1), words])
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    pcg = state["state"]
    for n in np.unique(count):
        rows = np.flatnonzero(count == n)
        for i, (s, inc) in zip(rows.tolist(), _pcg64_states(entropy[:len(head) + n, rows])):
            pcg["state"], pcg["inc"] = s, inc
            bitgen.state = state
            gen.random(out=out[i])
    return out
