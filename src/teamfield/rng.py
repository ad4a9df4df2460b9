"""Named, reproducible random streams.

Every stochastic routine in the package draws from a stream obtained by
``substream(master_seed, *labels)``. Streams with distinct label tuples
are statistically independent (numpy SeedSequence spawning semantics),
and the same (seed, labels) always yields the same generator state, so
parallel replication is deterministic: worker processes re-derive the
streams for the episode indices they own instead of sharing a generator.
"""

import functools
import hashlib

import numpy as np


def _label_words(label):
    """Map one label (int or str) to uint32 entropy words."""
    if isinstance(label, (int, np.integer)):
        v = int(label)
        if v < 0:
            raise ValueError("stream labels must be nonnegative, got %r" % (label,))
        words = []
        while True:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
            if v == 0:
                return words
    if isinstance(label, str):
        return _str_words(label)
    raise TypeError("stream label must be int or str, got %r" % (label,))


@functools.lru_cache(maxsize=256)
def _str_words(label: str) -> tuple:
    """First four uint32 words of the label's SHA-256 digest, cached."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))


def seed_sequence(master_seed, *labels):
    entropy = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        entropy.extend(_label_words(label))
    return np.random.SeedSequence(entropy)


def substream(master_seed, *labels) -> np.random.Generator:
    """Generator for the stream named by (master_seed, *labels)."""
    return np.random.default_rng(seed_sequence(master_seed, *labels))
