"""Braid words in the Artin and band-generator presentations.

Words are stored as sequences of unit letters (exponents expanded), so
positions address individual crossings.  Two presentations coexist:

* Artin letters ``(i, sign)`` with ``1 <= i <= n - 1``, the classical
  generators crossing strands ``i`` and ``i + 1``.
* Band letters ``(r, s, sign)`` with ``1 <= r < s <= n``, where strands
  ``r`` and ``s`` cross in front of all intermediate strands.

Letters are immutable tuples of ints and are shared, not copied: the word
constructors keep a letter that already is such a tuple, ``parse_word``
makes one tuple per distinct letter, and handle reduction reuses the
letters of its input.

Equality of braid elements is decided by handle reduction, a terminating
rewriting procedure on Artin words.  It runs as one loop on two stacks: a
handle-free prefix and the rest of the word, reversed.  Each letter moved
from the rest onto the prefix is checked for a handle closing there; a
handle is rewritten in place on the prefix, and the letters from the lowest
position it changed go back onto the rest to be checked again, so a step
costs the handle's length, not the word's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union


class WordError(ValueError):
    """Raised for malformed words, tokens, or mismatched strand counts."""


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise WordError(f"sign must be +1 or -1, got {sign!r}")
    return sign


def _artin_letter(letter) -> tuple[int, int]:
    i, e = letter
    return (int(i), int(e))


def _band_letter(letter) -> tuple[int, int, int]:
    r, s, e = letter
    return (int(r), int(s), int(e))


@dataclass(frozen=True)
class ArtinWord:
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[tuple[int, int], ...]

    def __init__(self, strands: int, letters: Iterable[tuple[int, int]] = ()):
        if strands < 1:
            raise WordError(f"strand count must be >= 1, got {strands}")
        letters = tuple([
            x if type(x) is tuple and len(x) == 2 and type(x[0]) is int and type(x[1]) is int
            else _artin_letter(x)
            for x in letters
        ])
        for i, e in letters:
            _check_sign(e)
            if not 1 <= i <= strands - 1:
                raise WordError(f"generator index {i} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "ArtinWord":
        return ArtinWord(self.strands, tuple([(i, -e) for i, e in reversed(self.letters)]))

    def concat(self, other: "ArtinWord") -> "ArtinWord":
        if other.strands != self.strands:
            raise WordError("strand counts differ")
        return ArtinWord(self.strands, self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)


@dataclass(frozen=True)
class BKLWord:
    """A word in the band generators on ``strands`` strands; letters ``(r, s, sign)``."""

    strands: int
    letters: tuple[tuple[int, int, int], ...]

    def __init__(self, strands: int, letters: Iterable[tuple[int, int, int]] = ()):
        if strands < 1:
            raise WordError(f"strand count must be >= 1, got {strands}")
        letters = tuple([
            x
            if type(x) is tuple and len(x) == 3 and type(x[0]) is int and type(x[1]) is int
            and type(x[2]) is int
            else _band_letter(x)
            for x in letters
        ])
        for r, s, e in letters:
            _check_sign(e)
            if not 1 <= r < s <= strands:
                raise WordError(
                    f"band generator ({r},{s}) out of range for {strands} strands"
                )
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "BKLWord":
        return BKLWord(self.strands, tuple([(r, s, -e) for r, s, e in reversed(self.letters)]))

    def concat(self, other: "BKLWord") -> "BKLWord":
        if other.strands != self.strands:
            raise WordError("strand counts differ")
        return BKLWord(self.strands, self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)


Word = Union[ArtinWord, BKLWord]


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1..n}`` stored as the image tuple ``image[k-1]``."""

    image: tuple[int, ...]

    def __init__(self, image: Sequence[int]):
        image = tuple([int(x) for x in image])
        if sorted(image) != list(range(1, len(image) + 1)):
            raise WordError(f"not a permutation of 1..{len(image)}: {image}")
        object.__setattr__(self, "image", image)

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, k: int) -> int:
        return self.image[k - 1]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in range(1, self.size + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = self(start)
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self(k)
            out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        return len(self.cycles())


def artin_to_bkl(w: ArtinWord) -> BKLWord:
    """Embed letter for letter: the i-th Artin generator is the band (i, i+1)."""
    return BKLWord(w.strands, tuple([(i, i + 1, e) for i, e in w.letters]))


def bkl_to_artin(w: BKLWord) -> ArtinWord:
    """Expand each band letter into its conjugate Artin word.

    The band generator on strands ``(r, s)`` equals ``C^-1 a C`` where ``a``
    is the Artin generator ``s - 1`` and ``C`` is the descending product of
    Artin generators ``s - 2, ..., r``.  Conjugation contributes nothing to
    the exponent sum, so translation preserves it.
    """
    letters: list[tuple[int, int]] = []
    for r, s, e in w.letters:
        conj = list(range(s - 2, r - 1, -1))
        letters.extend((j, -1) for j in reversed(conj))
        letters.append((s - 1, e))
        letters.extend((j, 1) for j in conj)
    return ArtinWord(w.strands, tuple(letters))


def _generator_signs(w: Word) -> dict:
    signs: dict = {}
    if isinstance(w, ArtinWord):
        for i, e in w.letters:
            signs.setdefault(i, set()).add(e)
    else:
        for r, s, e in w.letters:
            signs.setdefault((r, s), set()).add(e)
    return signs


@dataclass(frozen=True)
class HomogeneityReport:
    """Outcome of a homogeneity check; ``mixed`` lists offending generators."""

    homogeneous: bool
    mixed: tuple = ()

    def __bool__(self) -> bool:
        return self.homogeneous


def homogeneity_report(w: Word) -> HomogeneityReport:
    """Report which generators occur with both signs in ``w``."""
    mixed = tuple(sorted(g for g, ss in _generator_signs(w).items() if len(ss) > 1))
    return HomogeneityReport(not mixed, mixed)


def is_homogeneous(w: Word) -> bool:
    """True iff every generator occurring in ``w`` occurs with a single sign."""
    return homogeneity_report(w).homogeneous


def permutation_of(w: Word) -> Permutation:
    """Underlying permutation: letters act left to right as position swaps.

    The image sends the strand entering at top position ``k`` to its bottom
    position; letter signs are irrelevant.
    """
    at = list(range(w.strands + 1))  # at[p] = strand now at position p
    artin = isinstance(w, ArtinWord)
    for letter in w.letters:
        a, b = (letter[0], letter[0] + 1) if artin else letter[:2]
        at[a], at[b] = at[b], at[a]
    image = [0] * w.strands
    for p in range(1, w.strands + 1):
        image[at[p] - 1] = p
    return Permutation(tuple(image))


def permutation_and_components(w: Word) -> tuple[Permutation, int]:
    """The permutation of ``w`` and the component count of its closure."""
    perm = permutation_of(w)
    return perm, perm.cycle_count()


def closure_components(w: Word) -> int:
    return permutation_of(w).cycle_count()


def exponent_sum(w: Word) -> int:
    """Sum of letter signs; invariant under translation between presentations."""
    return sum(letter[-1] for letter in w.letters)


# ---------------------------------------------------------------------------
# Handle reduction
# ---------------------------------------------------------------------------

def handle_reduce(w: ArtinWord) -> ArtinWord:
    """Reduce ``w`` to a handle-free word representing the same braid.

    Each step reduces the first handle, the one with the smallest closing
    position, and frees the result of cancelling pairs (Dehornoy, *A fast
    method for comparing braids*, 1997).  The word is freely reduced first
    and then kept as two stacks: ``done``, a handle-free prefix, and
    ``todo``, the rest of the word reversed.  Each letter ``sigma_i^e``
    popped from ``todo`` looks back in ``done`` for the nearest letter of
    index <= i; if that is ``sigma_i^-e``, the two close a handle whose
    middle has only letters of index > i.  The step truncates ``done`` at
    the opener ``sigma_i^-e``, pushes the middle with each ``sigma_(i+1)^d``
    rewritten as ``sigma_(i+1)^e sigma_i^d sigma_(i+1)^-e``, cancelling as
    it goes, cancels the seam against the top of ``todo`` and moves
    ``done[low:]`` back onto ``todo``, where ``low`` is the lowest length
    ``done`` reached while the middle was pushed.  Whether a handle closes
    at a position depends only on the letters up to it, so what is left of
    ``done``, a prefix the step did not change, stays handle-free.  Since
    the freely reduced form of a word is unique, every intermediate word is
    the one a rescan from position 0 with a full free reduction would give.
    """
    # done[0] is a sentinel of index 0: it stops every look-back and
    # cancels with no letter, so neither needs a bounds check.  Signs are
    # +-1, so two letters cancel iff they have the same index and different
    # signs.
    done: list[tuple[int, int]] = [(0, 0)]
    for letter in w.letters:
        top = done[-1]
        if top[0] == letter[0] and top[1] != letter[1]:
            done.pop()
        else:
            done.append(letter)
    todo = done[:0:-1]
    del done[1:]
    while todo:
        last = todo.pop()
        i = last[0]
        p = len(done) - 1
        while done[p][0] > i:
            p -= 1
        first = done[p]
        if first[0] != i or first[1] == last[1]:
            done.append(last)
            continue
        e = first[1]
        up, down = (i + 1, -e), (i + 1, e)
        middle = done[p + 1 :]
        del done[p:]
        low = p
        for letter in middle:
            if letter[0] == i + 1:
                pushed = (up, first if letter[1] == e else last, down)
            else:
                pushed = (letter,)
            for x in pushed:
                top = done[-1]
                if top[0] == x[0] and top[1] != x[1]:
                    done.pop()
                    low = min(low, len(done))
                else:
                    done.append(x)
        while todo and done[-1][0] == todo[-1][0] and done[-1][1] != todo[-1][1]:
            done.pop()
            todo.pop()
        todo += done[: low - 1 : -1]  # done[low:] reversed; low >= 1
        del done[low:]
    return ArtinWord(w.strands, tuple(done[1:]))


def is_trivial_braid(w: ArtinWord) -> bool:
    """True iff ``w`` represents the identity of the braid group.

    A nonempty handle-free word contains its lowest generator with a single
    sign, hence is nontrivial; the empty reduct is the only trivial one.
    """
    return len(handle_reduce(w)) == 0


def _as_artin(w: Word) -> ArtinWord:
    return w if isinstance(w, ArtinWord) else bkl_to_artin(w)


def braids_equal(u: Word, v: Word) -> bool:
    """Decide whether two words represent the same braid element."""
    if u.strands != v.strands:
        raise WordError(f"strand counts differ: {u.strands} vs {v.strands}")
    letters = list(_as_artin(u).letters)
    letters += [(i, -e) for i, e in reversed(_as_artin(v).letters)]
    return is_trivial_braid(ArtinWord(u.strands, letters))


# ---------------------------------------------------------------------------
# Word grammar
# ---------------------------------------------------------------------------

MAX_WORD_LETTERS = 10**6  # longest word, exponents expanded, that parse_word accepts
_ARTIN_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$")
_BKL_TOKEN = re.compile(r"^b\((\d+),(\d+)\)(?:\^(-?\d+))?$")


def _parse_token(token: str, shared: dict) -> tuple[bool, tuple, int]:
    """(band?, unit letter, count) of one token; equal letters come from ``shared``."""
    m = _ARTIN_TOKEN.match(token)
    band = m is None
    if band:
        m = _BKL_TOKEN.match(token)
        if m is None:
            raise WordError(f"cannot parse token {token!r}")
    *indices, power = m.groups()
    k = int(power) if power else 1
    if k == 0:
        raise WordError(f"zero exponent in token {token!r}")
    letter = tuple([int(x) for x in indices] + [1 if k > 0 else -1])
    return band, shared.setdefault(letter, letter), abs(k)


def parse_word(text: str, strands: int | None = None, kind: str | None = None) -> Word:
    """Parse the token grammar: ``s<i>``, ``b(<r>,<s>)``, optional ``^<k>``, ``e``.

    Exponents expand to unit letters; a word longer than
    ``MAX_WORD_LETTERS`` is rejected, as is one that mixes Artin and band
    tokens.  When ``strands`` is omitted it is inferred as one plus
    the largest strand index used (1 for the empty word).  ``kind`` forces
    ``"artin"`` or ``"bkl"`` output for the empty word.
    """
    artin: list[tuple[int, int]] = []
    bkl: list[tuple[int, int, int]] = []
    tokens: dict[str, tuple[bool, tuple, int]] = {}  # token -> (band?, letter, count)
    shared: dict[tuple, tuple] = {}  # one tuple object per distinct letter
    for token in text.split():
        if token == "e":
            continue
        parsed = tokens.get(token)
        if parsed is None:
            parsed = tokens[token] = _parse_token(token, shared)
        band, letter, count = parsed
        if len(artin) + len(bkl) + count > MAX_WORD_LETTERS:
            raise WordError(f"word longer than {MAX_WORD_LETTERS} letters at token {token!r}")
        (bkl if band else artin).extend([letter] * count)
    if artin and bkl:
        raise WordError("word mixes Artin and band tokens")
    if bkl or kind == "bkl":
        n = strands if strands is not None else max((s for _, s, _ in bkl), default=1)
        return BKLWord(n, tuple(bkl))
    n = strands if strands is not None else (max((i for i, _ in artin), default=0) + 1)
    return ArtinWord(n, tuple(artin))


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`, one token per unit letter."""
    if not w.letters:
        return "e"
    parts = []
    if isinstance(w, ArtinWord):
        for i, e in w.letters:
            parts.append(f"s{i}" if e > 0 else f"s{i}^-1")
    else:
        for r, s, e in w.letters:
            parts.append(f"b({r},{s})" if e > 0 else f"b({r},{s})^-1")
    return " ".join(parts)
