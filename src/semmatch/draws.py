"""numpy's per-call integer draws: read from blocks of raw words for
synth's catalog, and by array-bound `integers` calls for an epoch's picks.

`Generator.integers(h)` and `Generator.choice(n, size=k, replace=False)`
are fixed functions of the bit generator's 32-bit word stream (the words
`integers(0, 2**32, dtype=np.uint32)` returns). `integers(h)` is Lemire's
bounded integer with rejection (Lemire, *Fast Random Integer Generation in
an Interval*, TOMACS 2019). `choice` without replacement is Floyd's sample
followed by a shuffle (Bentley & Floyd, *A Sample of Brilliance*, CACM
1987), or a partial shuffle of the whole range for large samples of large
ranges. `Draws`, which synth's catalog loop uses, reads the words one block
at a time and returns the same values without a numpy call per value;
`sync()` then leaves the generator exactly where the per-call draws would
have left it. `below_each` serves an epoch's picks, each drawn again while
it lands in an excluded set, from numpy's own `integers(0, bounds)`: given
an array of bounds, that call takes the same words as one call per bound.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096
# Picks per `integers(0, bounds)` call of `below_each`. An excluded pick
# costs the picks before it in its chunk a second draw; the benchmark
# workloads' epochs expect 8-19 excluded first draws over 39-51 chunks.
_CHUNK = 512
_WORD = 1 << 32
_LOW = _WORD - 1


def below_each(
    rng: np.random.Generator, bounds: np.ndarray, offsets: np.ndarray, excluded: np.ndarray
) -> np.ndarray:
    """The int64 values, and the generator state after them, of the
    per-pick loop

        for i, h in enumerate(bounds):
            v = rng.integers(h)
            while h > 1 and offsets[i] >= 0 and offsets[i] + v in excluded:
                v = rng.integers(h)

    for 1 <= h <= 2**32 and a sorted `excluded`. Each chunk of `_CHUNK`
    picks is one `rng.integers(0, bounds[chunk])` call. When a pick of the
    chunk is excluded, the generator goes back to the chunk's start, draws
    the picks up to that one again in one call, redraws that pick alone
    until it is allowed, and the next chunk starts after it."""
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.size and not (1 <= bounds.min() and bounds.max() <= _WORD):
        raise ValueError(f"a bound is outside [1, 2**32]: {bounds.min()}..{bounds.max()}")
    offsets, excluded = np.asarray(offsets, dtype=np.int64), np.asarray(excluded, dtype=np.int64)
    checked = (offsets >= 0) & (bounds > 1)
    out = np.empty(bounds.size, dtype=np.int64)

    def banned(start: int, end: int) -> np.ndarray:
        keys = offsets[start:end] + out[start:end]
        found = np.searchsorted(excluded, keys)
        hit = checked[start:end] & (found < excluded.size)
        hit[hit] = excluded[found[hit]] == keys[hit]
        return hit

    start = 0
    while start < bounds.size:
        end = min(start + _CHUNK, bounds.size)
        state = rng.bit_generator.state
        out[start:end] = rng.integers(0, bounds[start:end])
        hit = banned(start, end)
        if hit.any():
            end = start + int(hit.argmax()) + 1
            rng.bit_generator.state = state
            out[start:end] = rng.integers(0, bounds[start:end])
            while banned(end - 1, end)[0]:
                out[end - 1] = rng.integers(bounds[end - 1])
        start = end
    return out


class Draws:
    """Draws that equal `rng`'s per-call ones, read from blocks of its words.

    From the first value served until `sync()`, `rng` runs ahead of the
    values and must not be drawn from directly."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._start: dict | None = None
        self._words: list[int] = []
        self._pos = 0
        self._drawn = 0

    def _refill(self) -> None:
        if not self._drawn:
            self._start = self._rng.bit_generator.state
        self._words = self._rng.integers(0, _WORD, size=_BLOCK, dtype=np.uint32).tolist()
        self._pos = 0
        self._drawn += _BLOCK

    def _word(self) -> int:
        if self._pos == len(self._words):
            self._refill()
        self._pos += 1
        return self._words[self._pos - 1]

    def below(self, h: int) -> int:
        """`int(rng.integers(h))`: uniform in [0, h), for 1 <= h <= 2**32.
        h == 1 uses no word."""
        if h == 1:
            return 0
        if not 1 <= h <= _WORD:
            raise ValueError(f"bound {h} is outside [1, 2**32]")
        m = self._word() * h
        if m & _LOW < h:
            threshold = _WORD % h
            while m & _LOW < threshold:
                m = self._word() * h
        return m >> 32

    def sample(self, n: int, k: int) -> list[int]:
        """`rng.choice(n, size=k, replace=False).tolist()`, for 0 <= k <= n."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n} without replacement")
        if n > 10000 and k > n // 50:
            # numpy shuffles the tail of range(n) from the top down.
            moved: dict[int, int] = {}
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = self.below(i + 1)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(n - k, n)]
        out: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            v = self.below(j + 1)
            if v in seen:
                v = j
            seen.add(v)
            out.append(v)
        for i in range(k - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def sync(self) -> None:
        """Rewind the generator and draw exactly the words used, so its state
        equals that of the per-call draws. The generator may then be drawn
        from directly, and later values continue from where it is left."""
        if not self._drawn:
            return
        used = self._drawn - (len(self._words) - self._pos)
        self._rng.bit_generator.state = self._start
        self._rng.integers(0, _WORD, size=used, dtype=np.uint32)
        self._words, self._pos, self._drawn = [], 0, 0
