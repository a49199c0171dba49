"""Exact Laurent polynomials in one variable over the integers.

Coefficients are arbitrary-precision ints keyed by exponent; the zero
polynomial has no entries, and no zero coefficient is ever stored.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .words import _Value


class Laurent(_Value):
    """An integer Laurent polynomial, stored as exponent -> coefficient."""

    __slots__ = ("coeffs",)
    __eq__ = _Value.__eq__  # in Laurent's own dict, where bench/tracing.py counts its calls
    __hash__ = _Value.__hash__  # a class body that sets __eq__ must set __hash__ as well

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = coeffs
        clean: dict[int, int] = {}
        for k, c in items:
            if c:
                clean[int(k)] = clean.get(int(k), 0) + int(c)
        object.__setattr__(
            self, "coeffs", tuple(sorted((k, c) for k, c in clean.items() if c))
        )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def from_list(coeffs: Iterable[int], offset: int = 0) -> "Laurent":
        return Laurent({offset + i: c for i, c in enumerate(coeffs)})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lowest(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no lowest exponent")
        return self.coeffs[0][0]

    @property
    def highest(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no highest exponent")
        return self.coeffs[-1][0]

    def coefficient_list(self) -> tuple[list[int], int]:
        """Dense coefficient list plus the exponent offset of its first entry."""
        if not self.coeffs:
            return [], 0
        lo, hi = self.lowest, self.highest
        dense = [0] * (hi - lo + 1)
        for k, c in self.coeffs:
            dense[k - lo] = c
        return dense, lo

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "Laurent":
        return Laurent({k: -c for k, c in self.coeffs})

    def shift(self, exponent: int) -> "Laurent":
        """Multiply by t**exponent."""
        return Laurent({k + exponent: c for k, c in self.coeffs})

    def normalized(self) -> "Laurent":
        """Canonical representative up to units: lowest exponent 0, positive lead."""
        if self.is_zero():
            return self
        shifted = self.shift(-self.lowest)
        if shifted.coeffs[-1][1] < 0:
            shifted = -shifted
        return shifted

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.coeffs:
            if k == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                sign = "-" if c < 0 else ""
                power = "t" if k == 1 else f"t^{k}"
                term = f"{sign}{mag}{power}"
                if c < 0:
                    parts.append(term)
                    continue
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out
