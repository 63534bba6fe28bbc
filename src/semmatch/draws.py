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
whole array of `below` picks, each drawn again while it lands in an
excluded set: per chunk of picks, one vectorised pass computes every pick's
Lemire step from its own word and keeps the run before the first failure,
and a per-pick loop draws the rest of the chunk.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096
# Picks per vectorised pass of `below_many`. Of 256, 512 and 1024, 512 was
# the fastest, or within noise of it, on the benchmark workloads' epochs: a
# longer chunk draws more picks one by one after a failure, a shorter one
# pays for more passes.
_CHUNK = 512
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
        # Unused words stay in front, so a chunk's words are contiguous.
        fresh = self._rng.integers(0, _WORD, size=_BLOCK, dtype=np.uint32)
        self._block = np.concatenate((self._block[self._pos :], fresh))
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

        The picks are served in chunks of `_CHUNK`. One vectorised pass
        computes every pick of a chunk from its own word (a pick with h == 1
        takes none) and keeps the run before the first pick that fails, by
        Lemire's rejection or by exclusion. The loop above serves the rest of
        the chunk, starting from the failed pick's word."""
        h = np.asarray(bounds, dtype=np.int64)
        if h.size and not (1 <= h.min() and h.max() <= _WORD):
            raise ValueError(f"a bound is outside [1, 2**32]: {h.min()}..{h.max()}")
        n = h.size
        offsets = np.full(n, -1, dtype=np.int64) if offsets is None else np.asarray(offsets, dtype=np.int64)
        excluded = np.empty(0, dtype=np.int64) if excluded is None else np.asarray(excluded, dtype=np.int64)
        banned: set[int] | None = None
        out = np.empty(n, dtype=np.int64)
        for start in range(0, n, _CHUNK):
            end = min(start + _CHUNK, n)
            bound, offset = h[start:end], offsets[start:end]
            takes = bound > 1
            count = int(np.count_nonzero(takes))
            if len(self._words) - self._pos < count:
                self._refill()
            bound = bound[takes].astype(np.uint64)
            m = self._block[self._pos : self._pos + count].astype(np.uint64) * bound
            values = np.zeros(end - start, dtype=np.int64)
            values[takes] = m >> 32
            failed = np.zeros(end - start, dtype=bool)
            failed[takes] = m & _LOW < np.uint64(_WORD) % bound
            if excluded.size:
                keys = offset + values
                at = np.minimum(np.searchsorted(excluded, keys), excluded.size - 1)
                failed |= takes & (offset >= 0) & (excluded[at] == keys)
            clean = int(failed.argmax()) if failed.any() else end - start
            out[start : start + clean] = values[:clean]
            self._pos += int(np.count_nonzero(takes[:clean]))
            if clean == end - start:
                continue
            if banned is None:
                banned = set(excluded.tolist())
            rest = []
            for bound_i, offset_i in zip(h[start + clean : end].tolist(), offset[clean:].tolist()):
                v = self.below(bound_i)
                while bound_i > 1 and offset_i >= 0 and offset_i + v in banned:
                    v = self.below(bound_i)
                rest.append(v)
            out[start + clean : end] = rest
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
        self._block, self._words = np.empty(0, dtype=np.uint32), []
        self._pos, self._drawn = 0, 0
