"""Stream labels map to SeedSequence entropy words: a seed in 64 bits,
an int label in little-endian uint32 words, a str label in the first four
little-endian uint32 words of its SHA-256 digest (cached, same words).
``stream_uniforms`` seeds many streams at once; every row must be bitwise
the draws of ``substream`` for its id. A stream is a PCG64 whose copy,
moved ahead by ``advance(n)``, reads the draws after the first n: the
kernel check reads its stream in chunks that way."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamfield.rng import seed_sequence, stream_uniforms, substream


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


SEEDS = (0, 1, 2 ** 32 + 3, 2 ** 64 - 1, -1)
LABELS = ("episode", "", "équipe")
IDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 33 + 5]     # one and two entropy words, mixed


def _substream_rows(seed, label, ids, n):
    out = np.empty((len(ids), n))
    for i, e in enumerate(ids):
        out[i] = substream(seed, label, e).random(n)
    return out


def _check_rows(seed, label, ids, n):
    got = stream_uniforms(seed, label, ids, np.empty((len(ids), n)))
    assert got.tobytes() == _substream_rows(seed, label, ids, n).tobytes(), (seed, label, ids, n)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", LABELS)
def test_stream_uniforms_rows_are_substreams(seed, label):
    for ids in (IDS, IDS[::-1] + [7, 2 ** 70 + 1, 0], []):
        for n in (0, 1, 84):
            _check_rows(seed, label, ids, n)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-2 ** 64, 2 ** 65),
       label=st.one_of(st.text(max_size=6), st.integers(0, 2 ** 40)),
       ids=st.lists(st.integers(0, 2 ** 72), max_size=6),
       n=st.integers(0, 9))
def test_stream_uniforms_property(seed, label, ids, n):
    _check_rows(seed, label, ids, n)


@pytest.mark.parametrize("ids, sample", [
    (np.arange(5000), [0, 1, 255, 256, 1234, 4095, 4999]),
    (np.array([2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1], dtype=np.uint64), [0, 1, 2]),
    (np.arange(300, dtype=np.int32), [0, 1, 127, 128, 299]),
    (np.array([0, 255, 2 ** 16 - 1], dtype=np.uint16), [0, 1, 2]),
    (np.array([0, 127], dtype=np.int8), [0, 1]),
])
def test_stream_uniforms_with_integer_id_arrays(ids, sample):
    """NumPy id arrays of every width, up to 2**64 - 1 (two words): the
    32-bit word mask must not overflow a narrow dtype."""
    got = stream_uniforms(3, "episode", ids, np.empty((len(ids), 5)))
    expect = _substream_rows(3, "episode", [int(ids[i]) for i in sample], 5)
    assert got[sample].tobytes() == expect.tobytes()


def test_stream_uniforms_rejects_negative_ids():
    with pytest.raises(ValueError):
        substream(1, "episode", -1)
    with pytest.raises(ValueError):
        stream_uniforms(1, "episode", [3, -1], np.empty((2, 4)))
    with pytest.raises(ValueError):
        stream_uniforms(1, "episode", np.array([3, -1]), np.empty((2, 4)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 5000), m=st.integers(1, 300))
def test_substream_jumps_ahead_bitwise(seed, n, m):
    """A copy of a substream's PCG64 state moved ahead by ``advance(n)``
    draws bitwise what the stream draws after its first n doubles, also
    across ``random`` calls of any shape."""
    gen = substream(seed, "kernel-check")
    assert type(gen.bit_generator) is np.random.PCG64
    copy = np.random.PCG64(0)
    copy.state = gen.bit_generator.state
    ahead = np.random.Generator(copy.advance(n)).random(m)
    gen.random((n // 3, 3))
    gen.random(n % 3)
    assert gen.random(m).tobytes() == ahead.tobytes()
