"""Braided Seifert surfaces: parallel discs joined by height-ordered bands.

A surface is a disc count plus a band list in strictly decreasing height;
the k-th letter of the corresponding band-generator word is the k-th
highest band, which makes the word/surface correspondence a bijection.

The isotopy moves rewrite the word while keeping the boundary link:
inflation/deflation add or remove a disc-band pair, slips exchange
unlinked neighbouring bands, slides move a band over a neighbour sharing a
disc, twirls rotate the disc order cyclically, turns move the lowest band
to the top, and the two normalizations flip the surface upside down or
mirror it left to right.  A count of twirls or turns is one rotation.
A slide down is a slide up conjugated by inversion of the two-letter word:
it inverts the pair, slides the inverse up and inverts the result back.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from .words import MAX_WORD_LETTERS, BKLWord, _Value, closure_components


class MoveError(ValueError):
    """A move was applied where its precondition fails."""

    def __init__(self, kind: str, position, reason: str):
        self.kind = kind
        self.position = position
        self.reason = reason
        super().__init__(f"{kind} at {position}: {reason}")


class BraidedSurface(_Value):
    """Discs 1..n left to right; bands (l, r, sign) from highest to lowest."""

    __slots__ = ("discs", "bands")

    def __init__(self, discs: int, bands: Iterable[tuple[int, int, int]] = ()):
        bands = tuple([(int(l), int(r), int(e)) for l, r, e in bands])
        if discs < 1:
            raise ValueError("a braided surface needs at least one disc")
        for l, r, e in bands:
            if not 1 <= l < r <= discs:
                raise ValueError(f"band ({l},{r}) out of range for {discs} discs")
            if e not in (1, -1):
                raise ValueError("band sign must be +1 or -1")
        object.__setattr__(self, "discs", discs)
        object.__setattr__(self, "bands", bands)

    @property
    def band_count(self) -> int:
        return len(self.bands)

    def to_json(self) -> str:
        return json.dumps(
            {"discs": self.discs, "bands": [{"l": l, "r": r, "e": e} for l, r, e in self.bands]}
        )

    @staticmethod
    def from_json(text: str) -> "BraidedSurface":
        """The surface of ``{"discs": n, "bands": [{"l": l, "r": r, "e": e}, ...]}``.

        One pass over the bands checks that each end is an integer and each
        band in range for ``n``, and the surface is built from the values as
        read, with no second coercion.  A band out of range, or ``n`` below
        1, is refused by the constructor, so the error is the first of: a
        band that is not an object with all three ends, a missing ``discs``,
        a value that is not an integer (a bool or a float included), ``n``
        above ``MAX_WORD_LETTERS``, ``n`` below 1, the first band out of range.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise MoveError("from_json", "surface", "not a JSON object")
        try:
            bands = tuple([(b["l"], b["r"], b["e"]) for b in data.get("bands", [])])
            discs = data["discs"]
            if type(discs) is not int:
                raise TypeError("discs and band ends must be integers")
            in_range = discs >= 1
            for l, r, e in bands:
                if type(l) is not int or type(r) is not int or type(e) is not int:
                    raise TypeError("discs and band ends must be integers")
                if not 1 <= l < r <= discs or e not in (1, -1):
                    in_range = False
            if discs > MAX_WORD_LETTERS:  # caps per-disc work, as in the genus
                raise ValueError(f"more than {MAX_WORD_LETTERS} discs")
            if not in_range:
                return BraidedSurface(discs, bands)  # raises the constructor's error
            surface = object.__new__(BraidedSurface)
            object.__setattr__(surface, "discs", discs)
            object.__setattr__(surface, "bands", bands)
            return surface
        except (KeyError, TypeError, ValueError) as exc:
            raise MoveError("from_json", "surface", f"malformed: {exc!r}") from exc


def from_word(w: BKLWord) -> BraidedSurface:
    return BraidedSurface(w.strands, w.letters)


def to_word(s: BraidedSurface) -> BKLWord:
    return BKLWord(s.discs, s.bands)


def _bands_commute(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    # Non-separation of the two strand pairs; shared endpoints do not commute.
    (r1, s1, _), (r2, s2, _) = a, b
    return (s1 - s2) * (s1 - r2) * (r1 - s2) * (r1 - r2) > 0


def inflate(s: BraidedSurface, strand: int, sign: int, height: int = 0) -> BraidedSurface:
    """Insert a fresh disc after ``strand`` and a band joining them at ``height``."""
    if not 1 <= strand <= s.discs:
        raise MoveError("inflate", strand, "strand out of range")
    if sign not in (1, -1):
        raise MoveError("inflate", strand, "sign must be +1 or -1")
    if not 0 <= height <= len(s.bands):
        raise MoveError("inflate", strand, "insertion height out of range")

    def f(a: int) -> int:
        return a if a <= strand else a + 1

    bands = [(f(l), f(r), e) for l, r, e in s.bands]
    bands.insert(height, (strand, strand + 1, sign))
    return BraidedSurface(s.discs + 1, bands)


def deflate(s: BraidedSurface, band_index: int) -> BraidedSurface:
    """Remove an inflation band: an adjacent pair whose right disc has degree 1."""
    if not 0 <= band_index < len(s.bands):
        raise MoveError("deflate", band_index, "no such band")
    l, r, _e = s.bands[band_index]
    if r != l + 1:
        raise MoveError("deflate", band_index, "band does not join adjacent discs")
    for k, (bl, br, _) in enumerate(s.bands):
        if k != band_index and (bl == r or br == r):
            raise MoveError("deflate", band_index, f"disc {r} carries another band")
    bands = [
        (bl if bl <= l else bl - 1, br if br <= l else br - 1, be)
        for k, (bl, br, be) in enumerate(s.bands)
        if k != band_index
    ]
    return BraidedSurface(s.discs - 1, bands)


def _rewrite_pair(s: BraidedSurface, position: int, kind: str, rewrite,
                  refusal: str = "pair matches no slide pattern") -> BraidedSurface:
    """``s`` with the bands at ``position`` and below it replaced by ``rewrite``'s pair."""
    if not 0 <= position < len(s.bands) - 1:
        raise MoveError(kind, position, "no adjacent pair there")
    new_pair = rewrite(s.bands[position], s.bands[position + 1])
    if new_pair is None:
        raise MoveError(kind, position, refusal)
    bands = list(s.bands)
    bands[position], bands[position + 1] = new_pair
    return BraidedSurface(s.discs, bands)


def slip(s: BraidedSurface, position: int) -> BraidedSurface:
    """Exchange the heights of two consecutive unlinked bands."""
    return _rewrite_pair(s, position, "slip", lambda a, b: (b, a) if _bands_commute(a, b) else None,
                         "bands are linked")


def _slide_up_pair(upper, lower):
    """Rewrite (upper, lower) sliding the lower band over the upper one."""
    (l1, r1, e1), (l2, r2, e2) = upper, lower
    if l1 == r2 and e1 == 1:
        i, j, k = l2, r2, r1  # (jk)^{+1} (ij)^{±1} -> (ik)^{±1} (jk)^{+1}
        return (i, k, e2), (j, k, 1)
    if r1 == l2 and e1 == -1:
        i, j, k = l1, r1, r2  # (ij)^{-1} (jk)^{±1} -> (ik)^{±1} (ij)^{-1}
        return (i, k, e2), (i, j, -1)
    if l1 == l2 and r1 < r2 and e1 == 1:
        i, j, k = l1, r1, r2  # (ij)^{+1} (ik)^{±1} -> (jk)^{±1} (ij)^{+1}
        return (j, k, e2), (i, j, 1)
    if r1 == r2 and l1 > l2 and e1 == -1:
        i, j, k = l2, l1, r1  # (jk)^{-1} (ik)^{±1} -> (ij)^{±1} (jk)^{-1}
        return (i, j, e2), (j, k, -1)
    return None


def _inverse_pair(upper, lower):
    """The two-letter word ``upper lower`` inverted: ``lower^-1 upper^-1``."""
    (l1, r1, e1), (l2, r2, e2) = upper, lower
    return (l2, r2, -e2), (l1, r1, -e1)


def _slide_down_pair(upper, lower):
    """Inverse rewriting: slide the upper band down under its neighbour.

    It is the slide up conjugated by inversion: ``a b = c d`` holds exactly
    when ``b^-1 a^-1 = d^-1 c^-1`` does.
    """
    up = _slide_up_pair(*_inverse_pair(upper, lower))
    return None if up is None else _inverse_pair(*up)


def slide_up(s: BraidedSurface, position: int) -> BraidedSurface:
    return _rewrite_pair(s, position, "slide_up", _slide_up_pair)


def slide_down(s: BraidedSurface, position: int) -> BraidedSurface:
    return _rewrite_pair(s, position, "slide_down", _slide_down_pair)


def twirl(s: BraidedSurface, times: int = 1) -> BraidedSurface:
    """Pass the leftmost disc to the rightmost position, ``times`` times over;
    ``s`` itself for a multiple of its disc count."""
    n = s.discs
    if times % n == 0:
        return s
    bands = []
    for l, r, e in s.bands:
        l, r = (l - 1 - times) % n + 1, (r - 1 - times) % n + 1
        bands.append((l, r, e) if l < r else (r, l, e))
    return BraidedSurface(n, bands)


def turn(s: BraidedSurface, times: int = 1) -> BraidedSurface:
    """Slide the lowest band round the back to the top, ``times`` times over;
    ``s`` itself for a multiple of its band count."""
    k = -times % len(s.bands) if s.bands else 0
    return BraidedSurface(s.discs, s.bands[k:] + s.bands[:k]) if k else s


def flip_vertical(s: BraidedSurface) -> BraidedSurface:
    """Turn the surface upside down: reverse the height order."""
    return BraidedSurface(s.discs, tuple(reversed(s.bands)))


def mirror(s: BraidedSurface) -> BraidedSurface:
    """Reverse the disc order and all band signs."""
    n = s.discs
    bands = [(n + 1 - r, n + 1 - l, -e) for l, r, e in s.bands]
    return BraidedSurface(n, bands)


def incidence_connected(s: BraidedSurface) -> bool:
    parent = list(range(s.discs + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for l, r, _ in s.bands:
        parent[find(l)] = find(r)
    return len({find(x) for x in range(1, s.discs + 1)}) == 1


def euler_genus(s: BraidedSurface) -> tuple[int, int, int]:
    """Return (euler characteristic, boundary components, genus) of a connected surface."""
    if not incidence_connected(s):
        raise ValueError("surface is disconnected")
    chi = s.discs - s.band_count
    mu = closure_components(to_word(s))
    twice_genus = 2 - chi - mu
    if twice_genus % 2:
        raise ValueError("inconsistent genus computation")
    return chi, mu, twice_genus // 2


def render_svg(s: BraidedSurface) -> str:
    """A band-diagram sketch: discs as vertical bars, bands as arcs with signs."""
    width = 80 * s.discs + 40
    height = 40 * (s.band_count + 2)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for d in range(1, s.discs + 1):
        x = 80 * d - 20
        parts.append(
            f'<rect x="{x - 4}" y="20" width="8" height="{height - 40}" fill="#444"/>'
        )
        parts.append(
            f'<text x="{x}" y="14" font-size="12" text-anchor="middle">{d}</text>'
        )
    for k, (l, r, e) in enumerate(s.bands):
        y = 40 * (k + 1)
        x1, x2 = 80 * l - 20, 80 * r - 20
        colour = "#c33" if e < 0 else "#383"
        parts.append(
            f'<path d="M {x1} {y} C {x1} {y + 24}, {x2} {y + 24}, {x2} {y}" '
            f'stroke="{colour}" stroke-width="4" fill="none"/>'
        )
        label = "+" if e > 0 else "−"
        parts.append(
            f'<text x="{(x1 + x2) / 2}" y="{y + 28}" font-size="12" '
            f'text-anchor="middle" fill="{colour}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
