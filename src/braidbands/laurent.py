"""The normalized Alexander polynomial that ``invariants`` returns.

An integer Laurent polynomial known up to a unit +-t^k is kept as its
normalized representative: lowest exponent 0 and a positive leading
coefficient, stored as the dense tuple of its coefficients, lowest first.
The zero polynomial is the empty tuple.
"""

from __future__ import annotations

from .words import _Value


class Laurent(_Value):
    """A normalized integer Laurent polynomial: the coefficients of 1, t, t^2, ..."""

    __slots__ = ("coeffs",)
    __eq__ = _Value.__eq__  # in Laurent's own dict, where bench/tracing.py counts its calls
    __hash__ = _Value.__hash__  # a class body that sets __eq__ must set __hash__ as well

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        if coeffs and (not coeffs[0] or coeffs[-1] <= 0):
            raise ValueError(f"not a normalized coefficient tuple: {coeffs!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def coefficient_list(self) -> tuple[list[int], int]:
        """Dense coefficient list plus the exponent of its first entry, which is 0."""
        return list(self.coeffs), 0

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        text = str(self.coeffs[0])  # nonzero: the lowest exponent is 0
        for k, c in enumerate(self.coeffs[1:], 1):
            if c:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                text += f" {'-' if c < 0 else '+'} {mag}{'t' if k == 1 else f't^{k}'}"
        return text
