"""Exact Laurent polynomials in one variable over the integers.

Coefficients are arbitrary-precision ints keyed by exponent; the zero
polynomial has no entries.  All arithmetic keeps the canonical form (no
zero coefficients stored).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class Laurent:
    """An integer Laurent polynomial, stored as exponent -> coefficient."""

    coeffs: tuple[tuple[int, int], ...]

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
    def t(exponent: int = 1, coeff: int = 1) -> "Laurent":
        return Laurent({exponent: coeff})

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

    def coeff(self, exponent: int) -> int:
        for k, c in self.coeffs:
            if k == exponent:
                return c
        return 0

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

    def __add__(self, other: "Laurent") -> "Laurent":
        d = dict(self.coeffs)
        for k, c in other.coeffs:
            d[k] = d.get(k, 0) + c
        return Laurent(d)

    def __neg__(self) -> "Laurent":
        return Laurent({k: -c for k, c in self.coeffs})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        d: dict[int, int] = {}
        for k1, c1 in self.coeffs:
            for k2, c2 in other.coeffs:
                k = k1 + k2
                d[k] = d.get(k, 0) + c1 * c2
        return Laurent(d)

    def shift(self, exponent: int) -> "Laurent":
        """Multiply by t**exponent."""
        return Laurent({k + exponent: c for k, c in self.coeffs})

    def substitute_inverse(self) -> "Laurent":
        """The polynomial with t replaced by 1/t."""
        return Laurent({-k: c for k, c in self.coeffs})

    def divide_exact(self, divisor: "Laurent") -> "Laurent":
        """Exact division; raises ValueError when the division leaves a remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Laurent.zero()
        # Shift both to ordinary polynomials, divide, shift back.
        num, num_off = self.coefficient_list()
        den, den_off = divisor.coefficient_list()
        if len(num) < len(den):
            raise ValueError("non-exact Laurent division")
        quot = [0] * (len(num) - len(den) + 1)
        rem = list(num)
        lead = den[-1]
        for i in range(len(quot) - 1, -1, -1):
            q, r = divmod(rem[i + len(den) - 1], lead)
            if r:
                raise ValueError("non-exact Laurent division")
            quot[i] = q
            if q:
                for j, dc in enumerate(den):
                    rem[i + j] -= q * dc
        if any(rem):
            raise ValueError("non-exact Laurent division")
        return Laurent.from_list(quot, num_off - den_off)

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
