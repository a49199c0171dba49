"""Braid words in the Artin and band-generator presentations.

Words are stored as sequences of unit letters (exponents expanded), so
positions address individual crossings.  Two presentations coexist:

* Artin letters ``(i, sign)`` with ``1 <= i <= n - 1``, the classical
  generators crossing strands ``i`` and ``i + 1``.
* Band letters ``(r, s, sign)`` with ``1 <= r < s <= n``, where strands
  ``r`` and ``s`` cross in front of all intermediate strands.

Letters are immutable tuples of ints and are shared, not copied: the word
constructors check each distinct letter once and replace every letter by
the first letter of the word equal to it, and handle reduction reuses the
letters of its input.  A word with a letter that fails the check, or that
cannot be hashed, is coerced and checked letter by letter instead, so an
error names the first bad letter of the word.  ``parse_word`` parses each
distinct token once per process, up to ``TOKEN_MEMO_SIZE`` tokens, and
``bkl_to_artin`` expands each distinct band letter once per word: each makes
one tuple per distinct letter, range-checks the distinct letters by their
extremes and joins the letters without hashing each again.

Equality of braid elements is decided by handle reduction, a terminating
rewriting procedure on Artin words.  It runs as one loop on two stacks: a
handle-free prefix and the rest of the word, reversed.  Each letter moved
from the rest onto the prefix is checked for a handle closing there; a
handle is rewritten in place on the prefix, and the letters from the lowest
position it changed go back onto the rest to be checked again, so a step
costs the handle's length, not the word's.  The stacks hold int codes
(``2*i`` for ``sigma_i``, ``2*i + 1`` for its inverse) over a sentinel 0,
and the reduct's codes are turned back into the input's own letters.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable
from functools import lru_cache, reduce
from itertools import accumulate
from operator import iadd, itemgetter, lt


class WordError(ValueError):
    """Raised for malformed words, tokens, or mismatched strand counts."""


class _Record:
    """Slots with a dataclass's ``repr`` of ``_fields`` (by default the slots;
    a subclass with none keeps its base's) and ``==`` of ``_compared`` (by
    default ``_fields``).  The generic ``__init__`` takes the slots in order."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        if cls.__dict__.get("__slots__"):
            cls._fields = cls.__dict__.get("_fields", cls.__slots__)
            cls._compared = cls.__dict__.get("_compared", cls._fields)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} arguments")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """A frozen ``_Record``, hashed as the tuple of its compared fields; its
    constructors set its slots with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the slots here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise WordError(f"sign must be +1 or -1, got {sign!r}")
    return sign


def _check_strands(strands: int) -> None:
    if strands < 1:
        raise WordError(f"strand count must be >= 1, got {strands}")


def _artin_letter(letter) -> tuple[int, int]:
    i, e = letter
    return (int(i), int(e))


def _band_letter(letter) -> tuple[int, int, int]:
    r, s, e = letter
    return (int(r), int(s), int(e))


def _first_of_each(letters: tuple, valid) -> tuple | None:
    """``letters`` with each letter replaced by the first letter equal to it.

    ``valid`` is called once per distinct letter.  None means that it failed
    for one, or that a letter is unhashable (a list, say): the caller then
    coerces and checks the letters one by one, in word order.  Equal letters
    end up as one tuple, so a letter that equals a valid one without being an
    exact tuple of ints, such as ``(1, True)``, is replaced by that one.
    """
    try:
        first = {x: x for x in set(letters)}
    except TypeError:
        return None
    if not all(map(valid, first)):
        return None
    # A list, not an iterator: tuple() of an iterator starts at 10 slots and
    # resizes, which drains one tuple free list and fills the others.
    return tuple([first[x] for x in letters])


def _inverse_letters(letters: tuple) -> tuple:
    """The letters of the inverse word, with one tuple per distinct letter."""
    flipped = {x: (*x[:-1], -x[-1]) for x in set(letters)}
    return tuple([flipped[x] for x in reversed(letters)])


class _Word(_Value):
    """A word on ``strands`` strands.  A subclass names its letters: ``_valid``
    tests a letter, ``_coerce`` makes a tuple of ints of one, and
    ``_range_error`` words the refusal of a coerced letter out of range."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Iterable[tuple] = ()):
        _check_strands(strands)
        letters = tuple(letters)
        valid = self._valid
        checked = _first_of_each(letters, lambda x: valid(x, strands))
        if checked is None:
            checked = tuple([self._coerce(x) for x in letters])
            for x in checked:
                _check_sign(x[-1])
                if not valid(x, strands):
                    raise WordError(self._range_error(x, strands))
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", checked)

    @classmethod
    def _checked(cls, strands: int, distinct: dict, letters: tuple) -> _Word:
        """The word of ``letters``: tuples of ints with signs +-1, equal ones one tuple.

        Only the letters of ``distinct``, each distinct letter once, are
        range-checked, by their extremes, and ``letters`` is not hashed
        again.  If that check fails, each letter is checked in turn, so the
        error is ``__init__``'s; with ``distinct`` in first-occurrence order
        it names the first bad letter of the word.
        """
        _check_strands(strands)
        if not cls._in_range(distinct, strands):
            for x in distinct:
                if not cls._valid(x, strands):
                    raise WordError(cls._range_error(x, strands))
        word = object.__new__(cls)
        object.__setattr__(word, "strands", strands)
        object.__setattr__(word, "letters", letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> _Word:
        return type(self)(self.strands, _inverse_letters(self.letters))

    def concat(self, other: _Word) -> _Word:
        if other.strands != self.strands:
            raise WordError("strand counts differ")
        return type(self)(self.strands, self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)


class ArtinWord(_Word):
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    __slots__ = ()
    _coerce = staticmethod(_artin_letter)

    @staticmethod
    def _valid(x, strands: int) -> bool:
        return (type(x) is tuple and len(x) == 2 and type(x[0]) is int and type(x[1]) is int
                and x[1] in (1, -1) and 1 <= x[0] <= strands - 1)

    @staticmethod
    def _in_range(distinct, strands: int) -> bool:
        """Whether letters of ints with signs +-1 all have ``1 <= i <= strands - 1``."""
        i = itemgetter(0)
        return not distinct or (min(map(i, distinct)) >= 1 and max(map(i, distinct)) < strands)

    @staticmethod
    def _range_error(x, strands: int) -> str:
        return f"generator index {x[0]} out of range for {strands} strands"


class BKLWord(_Word):
    """A word in the band generators on ``strands`` strands; letters ``(r, s, sign)``."""

    __slots__ = ()
    _coerce = staticmethod(_band_letter)

    @staticmethod
    def _valid(x, strands: int) -> bool:
        return (type(x) is tuple and len(x) == 3 and type(x[0]) is int and type(x[1]) is int
                and type(x[2]) is int and x[2] in (1, -1) and 1 <= x[0] < x[1] <= strands)

    @staticmethod
    def _in_range(distinct, strands: int) -> bool:
        """Whether letters of ints with signs +-1 all have ``1 <= r < s <= strands``."""
        r, s = itemgetter(0), itemgetter(1)
        return not distinct or (min(map(r, distinct)) >= 1 and max(map(s, distinct)) <= strands
                                and all(map(lt, map(r, distinct), map(s, distinct))))

    @staticmethod
    def _range_error(x, strands: int) -> str:
        return f"band generator ({x[0]},{x[1]}) out of range for {strands} strands"


Word = ArtinWord | BKLWord


def artin_to_bkl(w: ArtinWord) -> BKLWord:
    """Embed letter for letter: the i-th Artin generator is the band (i, i+1)."""
    return BKLWord(w.strands, tuple([(i, i + 1, e) for i, e in w.letters]))


def bkl_to_artin(w: BKLWord) -> ArtinWord:
    """Expand each band letter into its conjugate Artin word.

    The band generator on strands ``(r, s)`` equals ``C^-1 a C`` where ``a``
    is the Artin generator ``s - 1`` and ``C`` is the descending product of
    Artin generators ``s - 2, ..., r``.  Conjugation contributes nothing to
    the exponent sum, so translation preserves it.  Each distinct band
    letter is expanded once, into letters shared across the expansions.
    """
    shared: dict[tuple, tuple] = {}
    expansion = {}
    for x in set(w.letters):
        r, s, e = x
        conj = range(s - 2, r - 1, -1)
        letters = [*[(j, -1) for j in reversed(conj)], (s - 1, e), *[(j, 1) for j in conj]]
        expansion[x] = tuple([shared.setdefault(y, y) for y in letters])
    letters = tuple(reduce(iadd, map(expansion.__getitem__, w.letters), []))
    return ArtinWord._checked(w.strands, shared, letters)


def _generator_signs(w: Word) -> dict:
    signs: dict = {}
    if isinstance(w, ArtinWord):
        for i, e in w.letters:
            signs.setdefault(i, set()).add(e)
    else:
        for r, s, e in w.letters:
            signs.setdefault((r, s), set()).add(e)
    return signs


class HomogeneityReport(_Value):
    """Outcome of a homogeneity check; ``mixed`` lists offending generators."""

    __slots__ = ("homogeneous", "mixed")

    def __init__(self, homogeneous: bool, mixed: tuple = ()):
        super().__init__(homogeneous, mixed)

    def __bool__(self) -> bool:
        return self.homogeneous


def homogeneity_report(w: Word) -> HomogeneityReport:
    """Report which generators occur with both signs in ``w``."""
    mixed = tuple(sorted(g for g, ss in _generator_signs(w).items() if len(ss) > 1))
    return HomogeneityReport(not mixed, mixed)


def is_homogeneous(w: Word) -> bool:
    """True iff every generator occurring in ``w`` occurs with a single sign."""
    return homogeneity_report(w).homogeneous


def permutation_of(w: Word) -> tuple[int, ...]:
    """Underlying permutation of ``{1..n}`` as its image tuple: letters act
    left to right as position swaps.

    Entry ``k - 1`` is the bottom position of the strand entering at top
    position ``k``; letter signs are irrelevant.
    """
    at = list(range(w.strands + 1))  # at[p] = strand now at position p
    artin = isinstance(w, ArtinWord)
    for letter in w.letters:
        a, b = (letter[0], letter[0] + 1) if artin else letter[:2]
        at[a], at[b] = at[b], at[a]
    image = [0] * w.strands
    for p in range(1, w.strands + 1):
        image[at[p] - 1] = p
    return tuple(image)


def closure_components(w: Word) -> int:
    """The number of cycles of ``w``'s permutation: its closure's components."""
    image = permutation_of(w)
    seen = [False] * (w.strands + 1)
    count = 0
    for k in range(1, w.strands + 1):
        count += not seen[k]
        while not seen[k]:  # walk k's cycle
            seen[k] = True
            k = image[k - 1]
    return count


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

    The stacks hold int codes, ``2*i`` for ``sigma_i`` and ``2*i + 1`` for
    ``sigma_i^-1``.  Two letters cancel iff their codes have ``x ^ y == 1``,
    and a letter's index is above ``i`` iff its code is at least
    ``2*i + 2``, so the look-back runs while ``done[p] >= 2*i + 2``.
    ``done[0]`` is the code 0 of a sentinel of index 0: it stops every
    look-back and cancels with no letter, so neither needs a bounds check.
    With the closer's code ``last``, a rewritten ``sigma_(i+1)^d`` pushes
    the codes ``2*i + 2 + (last & 1)``, its own code minus 2, and the first
    of these with its last bit flipped.  Each code of the reduct is turned
    back into a letter of ``w`` equal to it, so letters stay shared; only a
    letter that ``w`` lacks is a new tuple.
    """
    code_of = {x: 2 * x[0] + (x[1] < 0) for x in set(w.letters)}
    done = [0]
    for c in map(code_of.__getitem__, w.letters):
        if done[-1] ^ c == 1:
            done.pop()
        else:
            done.append(c)
    todo = done[:0:-1]
    del done[1:]
    while todo:
        last = todo.pop()
        lim = (last | 1) + 1  # 2*i + 2 for a letter of index i
        p = len(done) - 1
        while done[p] >= lim:
            p -= 1
        first = done[p]
        if first ^ last != 1:
            done.append(last)
            continue
        up = lim + (last & 1)  # sigma_(i+1) with the closer's sign
        down = up ^ 1
        middle = done[p + 1 :]
        del done[p:]
        low = p
        for x in middle:
            if x >= lim + 2:  # index above i + 1: pushed unchanged
                if done[-1] ^ x == 1:
                    done.pop()
                    if len(done) < low:
                        low = len(done)
                else:
                    done.append(x)
            elif done[-1] != down:  # only up could cancel, and only against down
                done += (up, x - 2, down)
            else:
                for y in (up, x - 2, down):
                    if done[-1] ^ y == 1:
                        done.pop()
                        if len(done) < low:
                            low = len(done)
                    else:
                        done.append(y)
        while todo and done[-1] ^ todo[-1] == 1:
            done.pop()
            todo.pop()
        todo += done[: low - 1 : -1]  # done[low:] reversed; low >= 1
        del done[low:]
    letter_of = {c: x for x, c in code_of.items()}
    for c in set(done[1:]).difference(letter_of):
        letter_of[c] = (c >> 1, -1 if c & 1 else 1)
    return ArtinWord(w.strands, tuple([letter_of[c] for c in done[1:]]))


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
    letters = _as_artin(u).letters + _inverse_letters(_as_artin(v).letters)
    return is_trivial_braid(ArtinWord(u.strands, letters))


# ---------------------------------------------------------------------------
# Word grammar
# ---------------------------------------------------------------------------

MAX_WORD_LETTERS = 10**6  # longest word, exponents expanded, that parse_word accepts
_INDEX_DIGITS = len(str(MAX_WORD_LETTERS)) + 1  # an index with this many digits is above it
# Digits are ASCII only: \d without re.ASCII would admit every Unicode digit.
_TOKEN = re.compile(r"(?:s(\d+)|b\((\d+),(\d+)\))(?:\^(-?)(\d+))?", re.ASCII)


def _index(digits: str) -> int:
    """The value of an index, read from at most _INDEX_DIGITS significant
    digits: enough to show that it is above MAX_WORD_LETTERS, never the
    thousands of digits that int() refuses with a ValueError."""
    return int(digits.lstrip("0")[:_INDEX_DIGITS] or "0")


def _read_token(token: str) -> tuple[tuple, int]:
    """(unit letter, count) of one token other than ``e``."""
    m = _TOKEN.fullmatch(token)
    if m is None:
        raise WordError(f"cannot parse token {token!r}")
    i, r, s, minus, power = m.groups()
    count = 1
    if power is not None:
        digits = power.lstrip("0")
        # More digits than MAX_WORD_LETTERS has is too long a run, and int()
        # would refuse a string of thousands of digits with a ValueError.
        if len(digits) > len(str(MAX_WORD_LETTERS)):
            raise WordError(f"word longer than {MAX_WORD_LETTERS} letters at token {token!r}")
        count = int(digits or "0")
        if count == 0:
            raise WordError(f"zero exponent in token {token!r}")
    letter = (_index(i),) if r is None else (_index(r), _index(s))
    if max(letter) > MAX_WORD_LETTERS:
        raise WordError(f"generator index above {MAX_WORD_LETTERS} in token {token!r}")
    return (*letter, -1 if minus else 1), count


# The parses of the last TOKEN_MEMO_SIZE distinct tokens up to
# MEMO_TOKEN_CHARS long are kept.  The words one process reads use a few
# hundred distinct tokens (108 in all 1,176 words of the braid benchmark's
# corpus), so this holds them all, and the full memo takes at most 1.5 MB.
# A token without leading zeros has at most 27 characters, such as
# b(1000000,1000000)^-1000000; a longer one is read each time, and a token
# that raises is not kept.
TOKEN_MEMO_SIZE = 4096
MEMO_TOKEN_CHARS = 32
_parse_token = lru_cache(maxsize=TOKEN_MEMO_SIZE)(_read_token)


def parse_word(text: str, strands: int | None = None, kind: str | None = None) -> Word:
    """Parse the token grammar: ``s<i>``, ``b(<r>,<s>)``, optional ``^<k>``, ``e``.

    Exponents expand to unit letters; a word longer than
    ``MAX_WORD_LETTERS`` is rejected, as is one that mixes Artin and band
    tokens, and a generator index or ``strands`` above that bound.  When
    ``strands`` is omitted it is inferred as one plus the largest strand
    index used (1 for the empty word).  ``kind`` forces ``"artin"`` or
    ``"bkl"`` output for the empty word.

    The error raised is the first of these: ``strands`` above the bound;
    the first token in word order that is malformed (an exponent of more
    than 7 digits, a zero exponent and an index above the bound included)
    or at which the word passes ``MAX_WORD_LETTERS`` letters, so an
    overflow before a malformed token is the one reported; mixed Artin and
    band tokens; a strand count below 1; the first letter in word order out
    of range for the strand count.

    Each distinct token is parsed once per process, into one letter and a
    count, up to ``TOKEN_MEMO_SIZE`` tokens; a token that fails is parsed
    again each time.  The length is checked from the counts before any
    letter is expanded, and the distinct letters are range-checked at once.
    """
    if strands is not None and strands > MAX_WORD_LETTERS:
        raise WordError(f"more than {MAX_WORD_LETTERS} strands")
    tokens = text.split()
    runs: dict[str, tuple] = {"e": ()}  # token -> its letters; (letter,) until the length is checked
    counts: dict[str, int] = {"e": 0}
    shared: dict[tuple, tuple] = {}  # one tuple per distinct letter, in first-occurrence order
    failure = None
    for token in dict.fromkeys(tokens):
        if token in runs:
            continue
        parse = _parse_token if len(token) <= MEMO_TOKEN_CHARS else _read_token
        try:
            letter, counts[token] = parse(token)
        except WordError as exc:
            # The tokens before the first bad one can still be too many letters.
            failure = exc
            del tokens[tokens.index(token):]
            break
        runs[token] = (shared.setdefault(letter, letter),)
    # No token has more letters than the longest run, so the sum is only
    # needed when the tokens times that run can pass the bound.
    if (len(tokens) * max(counts.values()) > MAX_WORD_LETTERS
            and sum(map(counts.__getitem__, tokens)) > MAX_WORD_LETTERS):
        running = list(accumulate(map(counts.__getitem__, tokens)))
        token = tokens[bisect_right(running, MAX_WORD_LETTERS)]
        raise WordError(f"word longer than {MAX_WORD_LETTERS} letters at token {token!r}")
    if failure is not None:
        raise failure
    sizes = set(map(len, shared))  # 2 for Artin letters, 3 for band letters
    if len(sizes) > 1:
        raise WordError("word mixes Artin and band tokens")
    if 3 in sizes or (kind == "bkl" and not sizes):
        cls, n = BKLWord, max(map(itemgetter(1), shared), default=1)
    else:
        cls, n = ArtinWord, max(map(itemgetter(0), shared), default=0) + 1
    for token, count in counts.items():
        if count > 1:
            runs[token] *= count
    # One pass in C: each token's run is appended in place to one list.
    letters = tuple(reduce(iadd, map(runs.__getitem__, tokens), []))
    return cls._checked(n if strands is None else strands, shared, letters)


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`, one token per unit letter."""
    if not w.letters:
        return "e"
    if isinstance(w, ArtinWord):
        token = {x: f"s{x[0]}" if x[1] > 0 else f"s{x[0]}^-1" for x in set(w.letters)}
    else:
        token = {x: f"b({x[0]},{x[1]})" if x[2] > 0 else f"b({x[0]},{x[1]})^-1" for x in set(w.letters)}
    return " ".join(map(token.__getitem__, w.letters))
