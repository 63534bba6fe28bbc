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
exactly where the per-call draws would have left it.
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
        self._words: list[int] = []
        self._pos = 0
        self._drawn = 0

    def _word(self) -> int:
        if self._pos == len(self._words):
            if not self._drawn:
                self._start = self._rng.bit_generator.state
            self._words = self._rng.integers(0, _WORD, size=_BLOCK, dtype=np.uint32).tolist()
            self._pos = 0
            self._drawn += _BLOCK
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
