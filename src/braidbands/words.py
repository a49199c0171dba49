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
rewriting procedure on Artin words.  Each step rewrites one handle and
free-reduces only where the rewrite meets the rest of the word; the search
for the next handle resumes at the lowest position the step changed,
since no handle can close before it.
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

def _find_handle(letters: list[tuple[int, int]], start: int):
    # The first handle closing at or after ``start``: for each closing
    # position q, look back for the nearest letter of index <= i; a handle
    # needs that letter to be the same generator with opposite sign.  The
    # handle found this way has minimal closing position, hence contains no
    # nested handle and is safe to reduce.
    for q in range(start, len(letters)):
        i, e = letters[q]
        for p in range(q - 1, -1, -1):
            j, d = letters[p]
            if j > i:
                continue
            if j == i and d == -e:
                return p, q
            break
    return None


def _reduce_handle(letters: list[tuple[int, int]], p: int, q: int) -> int:
    """Reduce the handle ``letters[p..q]`` in place and free-reduce at its seams.

    ``letters`` is freely reduced on entry and on exit.  The prefix before
    ``p`` is the bottom of a stack; the rewritten middle is pushed onto it,
    cancelling as it goes, and the suffix after ``q`` cancels against the
    top until its first letter that does not, after which it is appended as
    one slice.  Returns ``low``, the lowest stack length reached: letters
    before ``low`` are those of the word before the step.
    """
    first, last = letters[p], letters[q]
    i, e = first
    up, down = (i + 1, -e), (i + 1, e)
    middle = letters[p + 1 : q]
    tail = letters[q + 1 :]
    del letters[p:]
    low = p
    # Letters are pushed with cancellation.  Signs are +-1, so two letters
    # cancel iff they have the same index and different signs.
    for letter in middle:
        if letter[0] == i + 1:
            pushed = (up, first if letter[1] == e else last, down)
        else:
            pushed = (letter,)
        for x in pushed:
            if letters and letters[-1][0] == x[0] and letters[-1][1] != x[1]:
                letters.pop()
                low = min(low, len(letters))
            else:
                letters.append(x)
    k = 0
    while k < len(tail) and letters and letters[-1][0] == tail[k][0] and letters[-1][1] != tail[k][1]:
        letters.pop()
        k += 1
    low = min(low, len(letters))
    letters.extend(tail[k:])
    return low


def handle_reduce(w: ArtinWord) -> ArtinWord:
    """Reduce ``w`` to a handle-free word representing the same braid.

    Each step reduces the first handle, the one with the smallest closing
    position, and frees the result of cancelling pairs (Dehornoy, *A fast
    method for comparing braids*, 1997).  A step changes the word only from
    the position ``low`` that :func:`_reduce_handle` returns, and whether a
    handle closes at position q depends only on the letters up to q, so no
    handle closes before ``low`` and the next search starts there.  Since
    the freely reduced form of a word is unique, every intermediate word is
    the one a rescan from position 0 with a full free reduction would give,
    at a cost of the handle's length instead of the word's per step.
    """
    letters: list[tuple[int, int]] = []
    for letter in w.letters:
        if letters and letters[-1][0] == letter[0] and letters[-1][1] != letter[1]:
            letters.pop()
        else:
            letters.append(letter)
    start = 0
    while True:
        found = _find_handle(letters, start)
        if found is None:
            return ArtinWord(w.strands, tuple(letters))
        start = _reduce_handle(letters, *found)


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
    ua, va = _as_artin(u), _as_artin(v)
    return is_trivial_braid(ua.concat(va.inverse()))


# ---------------------------------------------------------------------------
# Word grammar
# ---------------------------------------------------------------------------

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

    Exponents expand to unit letters.  Mixing Artin and band tokens in one
    word is rejected.  When ``strands`` is omitted it is inferred as one plus
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
