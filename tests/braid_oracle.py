"""The braid-closure word problem, kept as an oracle for ``CoxeterSystem``.

Tits' solution: a word is reduced iff no word in its braid-move closure
contains two equal adjacent letters, and two reduced words represent the
same element iff braid moves alone connect them.  The normal form is the
least word of the closure.  Every word a closure search visits is memoized.
Bruhat order is decided by the lifting property on these normal forms.
This is independent of the root arithmetic in ``ivhecke.coxeter`` and much
slower; the tests compare the two on short random words.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

Word = tuple[int, ...]


class BraidOracle:
    def __init__(self, matrix: Sequence[Sequence[int]]) -> None:
        self.matrix = tuple(tuple(row) for row in matrix)
        self.rank = len(self.matrix)
        self._nf: dict[Word, Word] = {(): ()}
        self._bruhat: dict[tuple[Word, Word], bool] = {}

    def reduce(self, word: Iterable[int]) -> Word:
        word = tuple(word)
        nf = self._nf.get(word)
        if nf is not None:
            return nf
        matrix = self.matrix
        seen = {word}
        queue = deque((word,))
        while queue:
            w = queue.popleft()
            n = len(w)
            for i in range(n - 1):
                a, b = w[i], w[i + 1]
                if a == b:
                    # not reduced: cancel the pair and reduce what is left
                    res = self.reduce(w[:i] + w[i + 2 :])
                    for u in seen:
                        self._nf[u] = res
                    return res
                m = matrix[a][b]
                if m and i + m <= n:
                    if any(w[i + k] != (a if k % 2 == 0 else b) for k in range(2, m)):
                        continue
                    flipped = tuple(b if k % 2 == 0 else a for k in range(m))
                    new = w[:i] + flipped + w[i + m :]
                    if new in seen:
                        continue
                    hit = self._nf.get(new)
                    if hit is not None:
                        for u in seen:
                            self._nf[u] = hit
                        return hit
                    seen.add(new)
                    queue.append(new)
        # no adjacent pair anywhere in the closure: the word is reduced, and
        # `seen` is the set of all its reduced expressions
        nf = min(seen)
        for u in seen:
            self._nf[u] = nf
        return nf

    def multiply(self, a: Iterable[int], b: Iterable[int]) -> Word:
        return self.reduce(self.reduce(a) + self.reduce(b))

    def inverse(self, a: Iterable[int]) -> Word:
        return self.reduce(self.reduce(a)[::-1])

    def left_mult(self, s: int, a: Word) -> Word:
        return self.reduce((s,) + a)

    def right_mult(self, a: Word, s: int) -> Word:
        return self.reduce(a + (s,))

    def apply_automorphism(self, perm: Sequence[int], word: Iterable[int]) -> Word:
        return self.reduce(perm[c] for c in self.reduce(word))

    def bruhat_leq(self, x: Iterable[int], w: Iterable[int]) -> bool:
        return self._bruhat_leq(self.reduce(x), self.reduce(w))

    def _bruhat_leq(self, x: Word, w: Word) -> bool:
        # lifting property: for s = w[0], x <= w iff (sx <= sw if sx < x else x <= sw)
        if not x:
            return True
        if len(x) >= len(w):
            return x == w
        key = (x, w)
        if key not in self._bruhat:
            s, sw = w[0], w[1:]
            sx = self.left_mult(s, x)
            self._bruhat[key] = self._bruhat_leq(sx if len(sx) < len(x) else x, sw)
        return self._bruhat[key]
