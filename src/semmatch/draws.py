"""numpy's per-call integer draws, read from blocks of raw words.

`Generator.integers(h)` and `Generator.choice(n, size=k, replace=False)`
are fixed functions of the bit generator's 32-bit word stream (the words
`integers(0, 2**32, dtype=np.uint32)` returns). `integers(h)` is Lemire's
bounded integer with rejection (Lemire, *Fast Random Integer Generation in
an Interval*, TOMACS 2019). `choice` without replacement is Floyd's sample
followed by a shuffle (Bentley & Floyd, *A Sample of Brilliance*, CACM
1987), or a partial shuffle of the whole range for large samples of large
ranges. `Draws` reads the words one block at a time and returns the same
values without a numpy call per value; `sync()` then leaves the generator
exactly where the per-call draws would have left it. `below_many` serves a
whole array of `below` picks at once, each drawn again while it lands in an
excluded set: it computes every pick's Lemire step from its own word and
accepts the run before the first rejection.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096
_WORD = 1 << 32
_LOW = _WORD - 1


class Draws:
    """Draws that equal `rng`'s per-call ones, read from blocks of its words.

    From the first value served until `sync()`, `rng` runs ahead of the
    values and must not be drawn from directly."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._start: dict | None = None
        self._block = np.empty(0, dtype=np.uint32)
        self._words: list[int] = []
        self._pos = 0
        self._drawn = 0

    def _refill(self) -> None:
        if not self._drawn:
            self._start = self._rng.bit_generator.state
        self._block = self._rng.integers(0, _WORD, size=_BLOCK, dtype=np.uint32)
        self._words = self._block.tolist()
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

    def below_many(
        self,
        bounds: np.ndarray,
        offsets: np.ndarray | None = None,
        excluded: np.ndarray | None = None,
    ) -> np.ndarray:
        """The int64 values of `below(h)` for each h in `bounds`, where pick i
        with offsets[i] >= 0 and h > 1 is drawn again while offsets[i] + its
        value is in the sorted array `excluded`: the same values, from the
        same words, as the per-pick loop

            for i, h in enumerate(bounds):
                v = below(h)
                while h > 1 and offsets[i] >= 0 and offsets[i] + v in excluded:
                    v = below(h)

        A pass computes a chunk of picks at once, each pick with h > 1 from
        its own word, and accepts the run before the first pick that fails,
        by Lemire's rejection or by exclusion. The failed pick spends its
        word, the picks after it give theirs back, and the next pass starts
        at it. Chunks start at 4096 picks and shrink after a failure to about
        twice the run it ended. A pick that fails again as the first of its
        pass is served, with the picks alike to it that follow (same bound
        and offset), from the next words in one step: each word is tested
        against their common bound and offset, and the words that pass go
        to them in order. So frequent failures recompute neither long chunks
        nor one chunk per failure."""
        h = np.asarray(bounds, dtype=np.int64)
        if h.size and not (1 <= h.min() and h.max() <= _WORD):
            raise ValueError(f"a bound is outside [1, 2**32]: {h.min()}..{h.max()}")
        n = h.size
        offsets = np.full(n, -1, dtype=np.int64) if offsets is None else np.asarray(offsets, dtype=np.int64)
        excluded = np.empty(0, dtype=np.int64) if excluded is None else np.asarray(excluded, dtype=np.int64)
        h = h.astype(np.uint64)
        takes = h > 1
        threshold = np.uint64(_WORD) % h
        # words_before[i]: words the picks before i take when none fails.
        words_before = np.concatenate(([0], np.cumsum(takes)))
        # Picks alike to the one before them start no new run.
        run_ends = np.append(np.flatnonzero((h[1:] != h[:-1]) | (offsets[1:] != offsets[:-1])) + 1, n)

        def failing(words, bound, threshold, offset) -> tuple[np.ndarray, np.ndarray]:
            """Values of `bound` from `words`, and which of them fail."""
            m = words.astype(np.uint64) * bound
            values = (m >> 32).astype(np.int64)
            keys = offset + values
            at = np.minimum(np.searchsorted(excluded, keys), excluded.size - 1)
            hit = (offset >= 0) & (excluded[at] == keys) if excluded.size else False
            return values, (m & _LOW < threshold) | hit

        out = np.empty(n, dtype=np.int64)
        start, size, alike_end = 0, _BLOCK, 0
        while start < n:
            if self._pos == len(self._words) and takes[start]:
                self._refill()
            first, left = self._pos, len(self._words) - self._pos
            if start < alike_end:
                # Serve the picks alike to the one that failed: each takes
                # the next word that passes their common test.
                count = alike_end - start
                take = min(left, 64 * count)
                values, failed = failing(
                    self._block[first : first + take], h[start], threshold[start], offsets[start]
                )
                passed = np.flatnonzero(~failed)[:count]
                out[start : start + passed.size] = values[passed]
                self._pos += int(passed[-1]) + 1 if passed.size == count else take
                start += passed.size
                continue
            end = min(
                start + size,
                int(np.searchsorted(words_before, words_before[start] + left, side="right")) - 1,
            )
            picks = slice(start, end)
            word = takes[picks]
            self._pos += int(words_before[end] - words_before[start])
            values = np.zeros(end - start, dtype=np.int64)
            failed = np.zeros(end - start, dtype=bool)
            values[word], failed[word] = failing(
                self._block[first : self._pos], h[picks][word], threshold[picks][word], offsets[picks][word]
            )
            fail = int(failed.argmax()) if failed.any() else end - start
            out[start : start + fail] = values[:fail]
            if fail == end - start:
                start, size = end, min(2 * size, _BLOCK)
                continue
            self._pos = first + int(words_before[start + fail + 1] - words_before[start])
            if fail == 0:  # the first pick of a pass failed, as after a restart
                alike_end = int(run_ends[np.searchsorted(run_ends, start, side="right")])
            start, size = start + fail, max(16, 2 * fail)
        return out

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
