"""Plumbing of braided surfaces as an exact operation on band words.

Two braided surfaces are plumbed by identifying the last disc of the first
with the first disc of the second.  On words this is: relabel the second
word's strands upward by ``n1 - 1``, then interleave the two letter
sequences by a shuffle pattern that keeps each word's internal order.
Deplumbing splits a word whose letters separate cleanly at the shared
disc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .words import BKLWord


class PlumbingError(ValueError):
    pass


@dataclass(frozen=True)
class ShufflePattern:
    """A sequence over {1, 2} recording which word supplies each letter."""

    marks: tuple[int, ...]

    def __init__(self, marks: Iterable[int]):
        marks = tuple([int(m) for m in marks])
        if any(m not in (1, 2) for m in marks):
            raise PlumbingError("pattern marks must be 1 or 2")
        object.__setattr__(self, "marks", marks)

    @staticmethod
    def parse(text: str) -> "ShufflePattern":
        return ShufflePattern(int(ch) for ch in text.strip())

    @staticmethod
    def sequential(count1: int, count2: int) -> "ShufflePattern":
        return ShufflePattern((1,) * count1 + (2,) * count2)

    def counts(self) -> tuple[int, int]:
        return self.marks.count(1), self.marks.count(2)

    def __str__(self) -> str:
        return "".join(str(m) for m in self.marks)


def relabel_second(w2: BKLWord, n1: int) -> BKLWord:
    """Shift every strand index of ``w2`` up by ``n1 - 1``."""
    if n1 < 1:
        raise PlumbingError("first strand count must be >= 1")
    off = n1 - 1
    return BKLWord(w2.strands + off, tuple([(r + off, s + off, e) for r, s, e in w2.letters]))


def plumb(w1: BKLWord, w2: BKLWord, pattern: ShufflePattern | Sequence[int] | None = None) -> BKLWord:
    """Interleave ``w1`` with the relabelled ``w2`` according to ``pattern``.

    The default pattern is all of ``w1`` followed by all of ``w2``.  The
    result lives on ``n1 + n2 - 1`` strands and has ``|w1| + |w2|`` letters.
    """
    if pattern is None:
        pattern = ShufflePattern.sequential(len(w1.letters), len(w2.letters))
    elif not isinstance(pattern, ShufflePattern):
        pattern = ShufflePattern(pattern)
    c1, c2 = pattern.counts()
    if c1 != len(w1.letters) or c2 != len(w2.letters):
        raise PlumbingError(
            f"pattern has {c1}+{c2} marks for words of {len(w1.letters)}+{len(w2.letters)} letters"
        )
    shifted = relabel_second(w2, w1.strands)
    it1 = iter(w1.letters)
    it2 = iter(shifted.letters)
    letters = [next(it1) if m == 1 else next(it2) for m in pattern.marks]
    return BKLWord(w1.strands + w2.strands - 1, tuple(letters))


def deplumb(w: BKLWord, n1: int) -> tuple[BKLWord, BKLWord, ShufflePattern]:
    """Split ``w`` at disc ``n1`` into plumbands, recording the shuffle.

    Letters with both strands at most ``n1`` belong to the first word,
    letters with both strands at least ``n1`` to the second; any other
    letter straddles the shared disc and makes the split impossible.
    """
    if not 1 <= n1 <= w.strands:
        raise PlumbingError(f"no disc {n1} on {w.strands} strands")
    first: list[tuple[int, int, int]] = []
    second: list[tuple[int, int, int]] = []
    marks: list[int] = []
    off = n1 - 1
    for r, s, e in w.letters:
        if s <= n1:
            first.append((r, s, e))
            marks.append(1)
        elif r >= n1:
            second.append((r - off, s - off, e))
            marks.append(2)
        else:
            raise PlumbingError(
                f"not a braided plumbing along disc {n1}: letter ({r},{s}) straddles it"
            )
    w1 = BKLWord(n1, tuple(first))
    w2 = BKLWord(w.strands - off, tuple(second))
    return w1, w2, ShufflePattern(marks)
