"""`Draws` and `below_each` against numpy's own per-call draws.

One generator draws each value with its own `integers(h)` or
`choice(n, size=k, replace=False)` call; a second serves the same calls
from `Draws`. Values must agree, and after `sync()` both generators must
continue alike: through `random()`, which takes a 64-bit word and keeps a
buffered 32-bit half, through `integers(h, size=5)` and through
`permutation(9)`, whose shuffle draws by a masked rejection of its own.
`below_each` serves a whole array of picks, some of them drawn again while
they land in an excluded set, and is checked the same way against the loop
of `integers(h)` calls its docstring states; the tests named `below_many`
are its cases over many picks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semmatch import draws as draws_mod
from semmatch.draws import Draws, below_each

# (n, k) on both sides of numpy's switch from Floyd's sample to a shuffle
# of the tail of range(n): n > 10000 and k > n // 50 takes the tail.
SAMPLES = [
    (1, 0), (1, 1), (7, 3), (406, 3), (10000, 9000), (10000, 10000),
    (10001, 200), (10001, 201), (20000, 400), (20000, 401),
    (50000, 1000), (50000, 1001), (10001, 10001),
]

bounds = st.one_of(
    st.just(1),
    st.integers(2, 20),
    # 2**32 mod h is about 2**31 here, so about half the words are rejected.
    st.integers(2**31 + 1, 2**31 + 2**16),
    st.just(2**32),
    st.integers(1, 2**32),
)
# Offset 0 excludes the values 1-8, so a pick with 2 <= h <= 9 is drawn again
# until it lands on 0; offset 100 excludes the values 1-3; offset -1 is never
# drawn again. Value 0 is always allowed, so every pick ends.
EXCLUDED = [1, 2, 3, 4, 5, 6, 7, 8, 101, 102, 103]
OFFSETS = [-1, 0, 100]


ops = st.lists(
    st.one_of(
        st.tuples(st.just("below"), bounds),
        st.tuples(st.just("sample"), st.sampled_from(SAMPLES)),
        st.tuples(st.just("sync")),
        # (bound, offset) picks, drawn against EXCLUDED when the flag is set.
        st.tuples(
            st.just("below_each"),
            st.lists(st.tuples(bounds, st.sampled_from(OFFSETS)), max_size=12),
            st.booleans(),
        ),
    ),
    max_size=30,
)


def replay(seed, ops, offset):
    """Both generators after `ops`, the first drawing per call, the second
    from `Draws`, synced before each `below_each` on it. `offset` scalar
    draws first leave a half word buffered when odd."""
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (want, got):
        rng.integers(5, size=offset)
    draws = Draws(got)
    for op in ops:
        if op[0] == "below":
            assert draws.below(op[1]) == int(want.integers(op[1]))
        elif op[0] == "sample":
            n, k = op[1]
            assert draws.sample(n, k) == want.choice(n, size=k, replace=False).tolist()
        elif op[0] == "below_each":
            bounds = [h for h, _ in op[1]]
            offsets = [o for _, o in op[1]] if op[2] else [-1] * len(bounds)
            draws.sync()
            values = below_each(got, np.array(bounds, dtype=np.int64), np.array(offsets), np.array(EXCLUDED))
            assert values.tolist() == per_call(want, bounds, offsets, set(EXCLUDED))
        else:
            draws.sync()
            assert got.random() == want.random()
    draws.sync()
    return want, got


def assert_continue_alike(want, got):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random() == want.random()
    assert got.integers(1000, size=5).tolist() == want.integers(1000, size=5).tolist()
    assert got.permutation(9).tolist() == want.permutation(9).tolist()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=ops, offset=st.integers(0, 3))
@example(seed=0, ops=[("below", 17)], offset=0)
@example(seed=0, ops=[("below", 17), ("below", 5)], offset=0)
@example(seed=1, ops=[("below", 2**31 + 7)] * 8 + [("below", 2**32), ("below", 1)], offset=1)
@example(seed=2, ops=[("sample", (10001, 201)), ("sample", (50000, 1000)), ("sync",), ("below", 3)], offset=0)
@example(
    seed=3,
    ops=[("below", 9), ("below_each", [(9, 0), (5, 100)], True), ("below", 5), ("below_each", [(9, 0)] * 3, True)],
    offset=1,
)
def test_equals_per_call_draws(seed, ops, offset):
    assert_continue_alike(*replay(seed, ops, offset))


@pytest.mark.parametrize("ops, buffered", [([("below", 17)], 1), ([("below", 17), ("below", 5)], 0)])
def test_odd_and_even_word_counts(ops, buffered):
    # An odd number of words leaves the upper half of a 64-bit word buffered.
    want, got = replay(3, ops, offset=0)
    assert want.bit_generator.state["has_uint32"] == buffered
    assert_continue_alike(want, got)


def test_bound_of_one_uses_no_word():
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    draws = Draws(rng)
    assert [draws.below(1) for _ in range(5)] == [0] * 5
    draws.sync()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("h", [0, -1, 2**32 + 1])
def test_bound_out_of_range_rejected(h):
    with pytest.raises(ValueError):
        Draws(np.random.default_rng(0)).below(h)


@pytest.mark.parametrize("n, k", [(3, 4), (3, -1)])
def test_sample_out_of_range_rejected(n, k):
    with pytest.raises(ValueError):
        Draws(np.random.default_rng(0)).sample(n, k)


# -- below_each: many picks ------------------------------------------------------

def per_call(rng, bounds, offsets, excluded, draws_taken=None):
    """The loop `below_each` states. `draws_taken`, when given, receives
    the number of `integers` calls each pick took."""
    out = []
    for h, offset in zip(bounds, offsets):
        v, taken = int(rng.integers(h)), 1
        while h > 1 and offset >= 0 and offset + v in excluded:
            v, taken = int(rng.integers(h)), taken + 1
        out.append(v)
        if draws_taken is not None:
            draws_taken.append(taken)
    return out


def replay_many(seed, bounds, offsets, offset, excluded=EXCLUDED):
    """Both generators after the picks of `bounds`: per call, and through
    `below_each`. `offsets` None means no exclusion."""
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (want, got):
        rng.integers(5, size=offset)
    offsets = [-1] * len(bounds) if offsets is None else offsets
    values = below_each(got, np.asarray(bounds, dtype=np.int64), np.asarray(offsets), np.asarray(excluded))
    assert values.dtype == np.int64
    assert values.tolist() == per_call(want, bounds, offsets, set(excluded))
    return want, got


# Runs of alike picks (same bound and offset). 2**32 - 1 rejects a word with
# probability about 2**-32; 3 * 2**30 + 1 rejects one in four.
runs = st.lists(
    st.tuples(
        st.one_of(st.just(1), st.integers(2, 9), st.sampled_from([2**32 - 1, 3 * 2**30 + 1, 2**32])),
        st.sampled_from(OFFSETS),
        st.integers(1, 12),
    ),
    max_size=40,
)


def expand(runs):
    bounds = [h for h, _, count in runs for _ in range(count)]
    offsets = [o for _, o, count in runs for _ in range(count)]
    return bounds, offsets


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    runs=runs,
    excluding=st.booleans(),
    offset=st.integers(0, 3),
    chunk=st.sampled_from([1, 2, 3, draws_mod._CHUNK]),
)
@example(seed=0, runs=[], excluding=True, offset=1, chunk=draws_mod._CHUNK)
@example(
    seed=1,
    runs=[(1, 0, 2), (3 * 2**30 + 1, -1, 3), (2**32 - 1, 0, 1), (9, 0, 7), (1, -1, 1)],
    excluding=True,
    offset=1,
    chunk=3,
)
def test_below_many_equals_per_call_draws(seed, runs, excluding, offset, chunk):
    bounds, offsets = expand(runs)
    with mock.patch.object(draws_mod, "_CHUNK", chunk):
        assert_continue_alike(*replay_many(seed, bounds, offsets if excluding else None, offset))


# Picks with h = 9 at offset 0 are drawn until they land on 0 (values 1-8
# are excluded), so each takes about 9 draws; picks with h = 5 at offset -1
# take one.
REDRAWN, ONCE = (9, 0), (5, -1)


# A chunk starts after the last excluded pick, so with chunks of 1-3 these
# put a REDRAWN pick first in a chunk ([REDRAWN, ONCE, ONCE] from the start),
# last in one ([ONCE, ONCE, REDRAWN] after it), and two or three in one.
@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize(
    "picks",
    [
        [REDRAWN, ONCE, ONCE] * 3,
        [ONCE, ONCE, REDRAWN] * 3,
        [REDRAWN, ONCE, REDRAWN, REDRAWN, ONCE, ONCE],
        [REDRAWN] * 4,
    ],
    ids=["first", "last", "several", "only"],
)
def test_below_each_redraws_excluded_picks_anywhere_in_a_chunk(picks, chunk):
    taken = []
    per_call(np.random.default_rng(21), [h for h, _ in picks], [o for _, o in picks], set(EXCLUDED), taken)
    # The seed makes every REDRAWN pick take at least two draws, most of them more.
    assert all(t >= 2 for t, pick in zip(taken, picks) if pick == REDRAWN)
    assert max(taken) >= 3
    with mock.patch.object(draws_mod, "_CHUNK", chunk):
        assert_continue_alike(*replay_many(21, [h for h, _ in picks], [o for _, o in picks], offset=0))


@pytest.mark.parametrize("excluding", [False, True])
def test_below_many_across_blocks(excluding):
    """Over 9.7k picks, at least 19 chunks, with rejections by Lemire's
    step and, when excluding, excluded picks that send chunks back to
    redraw."""
    rng = np.random.default_rng(12)
    picked = rng.integers(4, size=1500)
    bounds = np.array([1, 9, 3 * 2**30 + 1, 2**32 - 1])[picked]
    offsets = np.array(OFFSETS)[rng.integers(3, size=1500)]
    counts = rng.integers(1, 13, size=1500)
    bounds, offsets = np.repeat(bounds, counts).tolist(), np.repeat(offsets, counts).tolist()
    assert len(bounds) > 18 * draws_mod._CHUNK
    assert_continue_alike(*replay_many(12, bounds, offsets if excluding else None, offset=1))


def test_below_many_picks_passing_on_their_first_word():
    # 2**32 % 9 == 4: a word is rejected with probability about 2**-30, and
    # nothing is excluded, so each of the 26 chunks is one call.
    bounds = [9] * 13_000
    assert len(bounds) > 25 * draws_mod._CHUNK
    assert_continue_alike(*replay_many(13, bounds, None, offset=1))


def test_below_many_after_below_shares_the_stream():
    rng, want = np.random.default_rng(6), np.random.default_rng(6)
    draws = Draws(rng)
    assert draws.below(2**32 - 1) == int(want.integers(2**32 - 1))
    draws.sync()
    bounds = [3 * 2**30 + 1] * 5000
    assert below_each(rng, np.asarray(bounds), np.full(5000, -1), np.array([])).tolist() == per_call(
        want, bounds, [-1] * 5000, []
    )
    assert draws.below(7) == int(want.integers(7))
    draws.sync()
    assert_continue_alike(want, rng)


def test_below_many_bounds_of_one_use_no_word():
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    # Value 0 is excluded at offset 0, but a bound of 1 is never drawn again.
    values = below_each(rng, np.ones(5, dtype=np.int64), np.zeros(5, dtype=np.int64), np.array([0]))
    assert values.tolist() == [0] * 5
    assert rng.bit_generator.state == before


def test_below_each_with_nothing_excluded():
    # Every pick is checked, against an empty exclusion.
    bounds = [9, 2**32, 3 * 2**30 + 1] * 400
    assert_continue_alike(*replay_many(15, bounds, [0] * len(bounds), offset=1, excluded=[]))


@pytest.mark.parametrize("prelude", ["half word", "random"])
def test_below_each_after_other_draws(prelude):
    """After one 32-bit draw the generator holds the other half of its
    64-bit word; `random()` takes a whole word and leaves none."""
    want, got = np.random.default_rng(16), np.random.default_rng(16)
    for rng in (want, got):
        rng.integers(5) if prelude == "half word" else rng.random()
    assert want.bit_generator.state["has_uint32"] == (prelude == "half word")
    bounds, offsets = expand([(9, 0, 5), (2**32, -1, 3), (3 * 2**30 + 1, 100, 9), (1, 0, 2)])
    values = below_each(got, np.asarray(bounds), np.asarray(offsets), np.asarray(EXCLUDED))
    assert values.tolist() == per_call(want, bounds, offsets, set(EXCLUDED))
    assert_continue_alike(want, got)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bounds=st.lists(bounds, max_size=30),
    prelude=st.lists(st.sampled_from(["integers", "random"]), max_size=3),
)
def test_array_bound_integers_equals_per_call_draws(seed, bounds, prelude):
    """The premise of `below_each`: `integers(0, bounds)` takes the same
    words as one `integers(h)` call per bound."""
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (want, got):
        for draw in prelude:
            rng.integers(5) if draw == "integers" else rng.random()
    values = got.integers(0, np.asarray(bounds, dtype=np.int64))
    assert values.tolist() == [int(want.integers(h)) for h in bounds]
    assert_continue_alike(want, got)


@pytest.mark.parametrize("h", [0, -1, 2**32 + 1])
def test_below_many_bound_out_of_range_rejected(h):
    with pytest.raises(ValueError):
        below_each(np.random.default_rng(0), np.array([3, h, 5], dtype=np.int64), np.full(3, -1), np.array([]))
