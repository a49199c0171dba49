"""Answer checks that share no code with the library.

Braid words are plain ``(strands, letters)`` data here: Artin letters are
``(i, sign)`` and band letters ``(r, s, sign)``.  Alexander polynomials are
compared through the reduced Burau matrix evaluated at random points modulo
the Mersenne prime 2^61 - 1.  With ``D_w(t) = det(B(w) - I)`` and
``f_n(t) = 1 + t + ... + t^(n-1)`` the closure of ``w`` on ``n`` strands has
Alexander polynomial ``D_w / f_n`` up to a unit ``+-t^k``.  Two closures have
the same polynomial exactly when ``D_a f_m = +-t^k D_b f_n`` as Laurent
polynomials; the unit is read off at one point and confirmed at another, so
a wrong answer slips through only if a nonzero polynomial of degree below a
few thousand vanishes at a random point of a field of size 2^61.
"""

from __future__ import annotations

import math
import random

P = (1 << 61) - 1


def band_to_artin(letters):
    """Expand band letters: b(r,s) is C^-1 s_(s-1) C with C = s_(s-2) ... s_r."""
    out = []
    for r, s, e in letters:
        conj = range(s - 2, r - 1, -1)
        out.extend((j, -1) for j in reversed(conj))
        out.append((s - 1, e))
        out.extend((j, 1) for j in conj)
    return out


def components(strands: int, letters) -> int:
    """Cycle count of the permutation; letters may be Artin or band letters."""
    at = list(range(strands + 1))  # at[position] = strand there now
    for letter in letters:
        a, b = (letter[0], letter[0] + 1) if len(letter) == 2 else letter[:2]
        at[a], at[b] = at[b], at[a]
    seen = [False] * (strands + 1)
    cycles = 0
    for k in range(1, strands + 1):
        if not seen[k]:
            cycles += 1
            while not seen[k]:
                seen[k] = True
                k = at[k]
    return cycles


def homogeneous(letters) -> bool:
    """Every generator occurs with a single sign."""
    sign = {}
    return all(sign.setdefault(letter[:-1], letter[-1]) == letter[-1] for letter in letters)


def _burau_det(strands: int, artin, t: int) -> int:
    """det(B(w) - I) mod P at t, with B the reduced Burau matrix.

    Columns are kept as lists; right-multiplying by a generator rewrites one
    column, so a letter costs O(n).
    """
    m = strands - 1
    if m == 0:
        return 0
    u = pow(t, P - 2, P)  # t^-1
    cols = [[int(i == j) for i in range(m)] for j in range(m)]
    zero = [0] * m
    for i, e in artin:
        k = i - 1
        left = cols[k - 1] if k > 0 else zero
        mid = cols[k]
        right = cols[k + 1] if k + 1 < m else zero
        if e > 0:  # column k becomes t*left - t*mid + right
            cols[k] = [(t * (a - b) + c) % P for a, b, c in zip(left, mid, right)]
        else:  # column k becomes left - u*mid + u*right
            cols[k] = [(a + u * (c - b)) % P for a, b, c in zip(left, mid, right)]
    a = [[(cols[j][i] - (i == j)) % P for j in range(m)] for i in range(m)]
    det = 1
    for c in range(m):
        piv = next((r for r in range(c, m) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % P
        inv = pow(a[c][c], P - 2, P)
        for r in range(c + 1, m):
            f = a[r][c] * inv % P
            if f:
                row, top = a[r], a[c]
                for j in range(c, m):
                    row[j] = (row[j] - f * top[j]) % P
    return det % P


def _geometric(n: int, t: int) -> int:
    return sum(pow(t, k, P) for k in range(n)) % P


def _unit_exponent(ratio: int, t: int, bound: int):
    """Return (sign, k) with ratio == sign * t^k and |k| <= bound, else None.

    Baby-step giant-step over the window, for both signs.
    """
    width = 2 * bound + 1
    step = math.isqrt(width) + 1
    baby = {}
    x = 1
    for j in range(step):
        baby.setdefault(x, j)
        x = x * t % P
    giant = pow(pow(t, step, P), P - 2, P)
    shift = pow(t, bound, P)
    for sign in (1, -1):
        y = sign * ratio * shift % P
        for i in range(step + 1):
            j = baby.get(y)
            if j is not None and i * step + j < width:
                return sign, i * step + j - bound
            y = y * giant % P
    return None


def same_alexander(a, b, rng: random.Random) -> bool:
    """True iff closures of words ``a`` and ``b`` share their Alexander polynomial.

    Each word is ``(strands, artin_letters)``.
    """
    (na, wa), (nb, wb) = a, b
    bound = (na - 1) * len(wa) + (nb - 1) * len(wb) + na + nb
    unit = None
    for _ in range(2):
        t = rng.randrange(2, P - 1)
        lhs = _burau_det(na, wa, t) * _geometric(nb, t) % P
        rhs = _burau_det(nb, wb, t) * _geometric(na, t) % P
        if lhs == 0 or rhs == 0:
            if lhs != rhs:
                return False
            continue
        ratio = rhs * pow(lhs, P - 2, P) % P
        if unit is None:
            unit = _unit_exponent(ratio, t, bound)
            if unit is None:
                return False
        elif ratio != unit[0] * pow(t, unit[1] % (P - 1), P) % P:
            return False
    return True
