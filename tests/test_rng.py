"""Stream labels map to SeedSequence entropy words: a seed in 64 bits,
an int label in little-endian uint32 words, a str label in the first four
little-endian uint32 words of its SHA-256 digest (cached, same words)."""

import hashlib

from teamfield.rng import seed_sequence


def _words(label):
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return [label & 0xFFFFFFFF] + ([label >> 32] if label >> 32 else [])


def test_seed_sequence_entropy_words():
    cases = [(7, ("episode", 0)), (7, ("episode", 12345)), (2 ** 40 + 3, ("kernel-check",)),
             (1, ("", "episode", 2 ** 33 + 5)), (0, ("équipe", "episode"))]
    for _ in range(2):          # the second round reads the cached words
        for seed, labels in cases:
            expect = [seed & 0xFFFFFFFFFFFFFFFF]
            for label in labels:
                expect += _words(label)
            assert list(seed_sequence(seed, *labels).entropy) == expect
