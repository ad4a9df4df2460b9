"""Stream labels map to SeedSequence entropy words: a seed in 64 bits,
an int label in little-endian uint32 words, a str label in the first four
little-endian uint32 words of its SHA-256 digest (cached, same words).
``stream_uniforms`` seeds many streams at once; every row must be bitwise
the draws of ``substream`` for its id. A stream is a PCG64 whose copy,
moved ahead by ``advance(n)``, reads the draws after the first n: the
kernel check reads its stream in chunks that way. The seeding's 128-bit
arithmetic runs in uint64 limbs, and each stream's state words reach the
PCG64 through a checked view of its state struct: both must agree with
Python ints and the public ``state`` property."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamfield.rng import (_PCG_MULT, _pcg64_seed, _state_view, seed_sequence, stream_uniforms,
                          substream)


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


M64 = 2 ** 64 - 1
U64 = st.one_of(st.sampled_from([0, M64]), st.integers(0, M64))


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.tuples(U64, U64, U64, U64), max_size=8))
@example(words=[(0, 0, 0, 0), (M64, M64, M64, M64), (M64, 0, M64, 0), (0, M64, 0, M64)])
def test_pcg64_seed_limbs_match_python_ints(words):
    """The uint64-limb seeding is pcg64_set_seed in Python ints: inc = 2q + 1,
    state = ((inc + s) * _PCG_MULT + inc) mod 2**128, carries and wraps at
    the edge words included."""
    cols = [np.array(c, dtype=np.uint64) for c in zip(*words)] or [np.zeros(0, np.uint64)] * 4
    got = _pcg64_seed(*cols)
    assert got.shape == (len(words), 4) and got.dtype == np.uint64
    for (s_hi, s_lo, q_hi, q_lo), row in zip(words, got.tolist()):
        inc = ((q_hi << 65) | (q_lo << 1) | 1) % 2 ** 128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) % 2 ** 128
        assert row == [state >> 64, state & M64, inc >> 64, inc & M64]


def _set_by_setter(state, inc):
    bitgen = np.random.PCG64(0)
    st_dict = bitgen.state
    st_dict["state"] = {"state": state, "inc": inc}
    bitgen.state = st_dict
    return bitgen


@settings(max_examples=40, deadline=None)
@given(words=st.tuples(U64, U64, U64, U64))
@example(words=(0, 0, 0, 0))
@example(words=(M64, M64, M64, M64))
def test_state_view_sets_what_the_setter_sets(words):
    """A PCG64 set through the view reports the written state and inc
    through the public getter and draws what a setter-set one draws."""
    s_hi, s_lo, i_hi, i_lo = words
    bitgen = np.random.PCG64(0)
    view, order = _state_view(bitgen)
    view[:] = np.array(words, dtype=np.uint64)[order]
    state, inc = s_hi << 64 | s_lo, i_hi << 64 | i_lo
    assert bitgen.state["state"] == {"state": state, "inc": inc}
    expect = _set_by_setter(state, inc)
    assert bitgen.state == expect.state
    assert (np.random.Generator(bitgen).random(20).tobytes()
            == np.random.Generator(expect).random(20).tobytes())


class _SilentSetter(np.random.PCG64):
    """A PCG64 whose ``state`` setter writes nothing, so the view reads back
    other words than the ones set."""

    @property
    def state(self):
        return super().state

    @state.setter
    def state(self, value):
        pass


@pytest.mark.parametrize("make", [_SilentSetter, np.random.MT19937, np.random.SFC64])
def test_state_view_refuses_an_unknown_layout(make):
    """The word-order read-back fails, or the struct pointer does not point
    inside the generator: the view raises instead of writing."""
    with pytest.raises(RuntimeError):
        _state_view(make(0))


@pytest.mark.parametrize("out", [
    np.full((2, 4), 7.0),                       # one row short
    np.full((4, 4), 7.0),                       # one row long
    np.full((3, 4), 7.0, dtype=np.float32),
    np.full(12, 7.0),                           # 1-D
    np.full((3, 4, 1), 7.0),
    np.full((4, 3), 7.0).T,                     # not C-contiguous
    np.full((3, 8), 7.0)[:, ::2],
    [[7.0] * 4] * 3,                            # not an array
])
def test_stream_uniforms_refuses_a_bad_out_before_any_draw(out):
    before = np.array(out, copy=True)
    with pytest.raises(ValueError):
        stream_uniforms(1, "episode", [5, 6, 7], out)
    assert np.array_equal(np.asarray(out), before)
