"""Small finite fields GF(p^k) whose elements are the integers 0..q-1.

Element a stands for the polynomial c_0 + c_1 x + ... + c_{k-1} x^{k-1}
over GF(p) whose residues (c_0, ..., c_{k-1}) are the base-p digits of a,
most significant first (Field.residues).  So 0..q-1 lists the residue
tuples in lexicographic order, zero first, and the field's one has index
q/p.  Extension fields reduce modulo the lexicographically smallest monic
irreducible polynomial of degree k, found by an exhaustive trial-division
scan; the scan is feasible because the whole module is capped at desk-scale
orders (q <= 2^16 by default).

Field.int_arith is the arithmetic: a log/antilog pair for the first
primitive element, and an integer field sum that is (a + b) mod p in a prime
field, XOR when p = 2, and goes through a Zech-log table otherwise.  Every
table has O(q) entries and is built on first use, so code that never
evaluates a polynomial family never pays for it.  The residue product that
builds the tables runs only there; certificates write each coefficient as
its residue tuple.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, NamedTuple

from zng.errors import BudgetError

DEFAULT_ORDER_CAP = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ----------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient lists from the constant up
# ----------------------------------------------------------------------

def _poly_divides(div: list[int], num: list[int], p: int) -> bool:
    """Whether the monic polynomial div divides num over GF(p)."""
    rem = list(num)
    while len(rem) >= len(div):
        lead = rem[-1]
        if lead:
            shift = len(rem) - len(div)
            for i, c in enumerate(div):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return not any(rem)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Exhaustive factor check: no monic divisor of degree 1..deg/2."""
    degree = len(poly) - 1
    for deg in range(1, degree // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if _poly_divides([*tail, 1], poly, p):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates are monic with lower coefficients (c_0, ..., c_{k-1}) scanned
    in lexicographic order, so the result is canonical for every (p, k).
    """
    for lower in itertools.product(range(p), repeat=k):
        candidate = [*lower, 1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


# ----------------------------------------------------------------------
# the field itself
# ----------------------------------------------------------------------

class IntArith(NamedTuple):
    """GF(q) arithmetic on element indices.

    With g the primitive element, log[a] is the e in 0..q-2 with g^e = a,
    and log[0] is 2(q-1); exp[log[a] + log[b]] is then the index of a*b for
    every a and b, zero included, because exp reads 0 from 2(q-1) on.
    total(terms) is the index of the field sum of an iterable of indices.
    """

    log: list[int]
    exp: list[int]
    total: Callable[[Iterable[int]], int]


class Field:
    """GF(p^k) on the element indices 0..q-1.

    Element a is the polynomial in x whose residues mod p, constant term
    first, are the base-p digits of a, most significant first (residues).

    Attributes:
        p: field characteristic (prime).
        k: extension degree, q = p**k.
        q: field order.
        modulus: monic degree-k reduction polynomial as a coefficient tuple
            from the constant term up; None exactly when k == 1.
    """

    __slots__ = ("p", "k", "q", "modulus", "_arith")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._arith: IntArith | None = None

    def residues(self, a: int) -> tuple[int, ...]:
        """The k residues of element a, constant term first."""
        digits = []
        for _ in range(self.k):
            a, c = divmod(a, self.p)
            digits.append(c)
        return tuple(reversed(digits))

    def int_arith(self) -> IntArith:
        """The integer tables of this field, built on the first call."""
        if self._arith is None:
            self._arith = self._build_int_arith()
        return self._arith

    def _build_int_arith(self) -> IntArith:
        p, k, q, n = self.p, self.k, self.q, self.q - 1
        one = q // p  # residues (1, 0, ..., 0)
        residues, modulus = self.residues, self.modulus

        def times(a: int, b: int) -> int:
            """a*b by schoolbook product of residues and long division by modulus."""
            if k == 1:
                return a * b % p
            conv = [0] * (2 * k - 1)
            ys = residues(b)
            for i, x in enumerate(residues(a)):
                if x:
                    for j, y in enumerate(ys, i):
                        conv[j] += x * y
            for top in range(2 * k - 2, k - 1, -1):
                c = conv[top] % p
                if c:
                    for i, m in enumerate(modulus):
                        conv[top - k + i] -= c * m
            out = 0
            for c in conv[:k]:
                out = out * p + c % p
            return out

        def power(a: int, e: int) -> int:
            """a^e by square-and-multiply on times."""
            out = one
            while e:
                if e & 1:
                    out = times(out, a)
                a = times(a, a)
                e >>= 1
            return out

        # the first element of order q-1: g^(n/l) != 1 for every prime l | n
        factors, rest, f = [], n, 2
        while f * f <= rest:
            if rest % f == 0:
                factors.append(f)
                while rest % f == 0:
                    rest //= f
            f += 1
        if rest > 1:
            factors.append(rest)
        g = next(g for g in range(1, q) if all(power(g, n // l) != one for l in factors))
        powers = [one]  # index of g^e for e in 0..q-2
        x = g
        while x != one:
            powers.append(x)
            x = times(x, g)
        exp = powers * 2 + [0] * (2 * n + 1)
        log = [2 * n] * q
        for e, a in enumerate(powers):
            log[a] = e
        if k == 1:
            def total(terms: Iterable[int]) -> int:
                return sum(terms) % p
        elif p == 2:
            def total(terms: Iterable[int]) -> int:
                return functools.reduce(operator.xor, terms, 0)
        else:
            # zech[e] = log(1 + g^e); adding 1 adds one to the leading digit
            zech = [log[(a + one) % q] for a in powers]

            def total(terms: Iterable[int]) -> int:
                acc = 0
                for b in terms:
                    if not acc:
                        acc = b
                    elif b:
                        # a + b = a (1 + b/a)
                        la = log[acc]
                        acc = exp[la + zech[log[b] - la]]
                return acc
        return IntArith(log, exp, total)

    # -- serialization and plumbing -------------------------------------

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "modulus": list(self.modulus) if self.modulus is not None else None,
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"Field(GF({self.q}))"


def make_field(p: int, k: int, order_cap: int = DEFAULT_ORDER_CAP) -> Field:
    """Build GF(p^k), scanning for the canonical modulus when k > 1.

    Args:
        p: characteristic, must be prime.
        k: extension degree, at least 1.
        order_cap: refuse fields with q = p**k above this bound.

    Raises:
        ValueError: p is not prime, or k < 1.
        BudgetError: the order exceeds order_cap.
    """
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime; the characteristic must be prime")
    q = p**k
    if q > order_cap:
        raise BudgetError(
            f"field order {q} exceeds the cap {order_cap}", required=q, budget=order_cap
        )
    modulus = _smallest_irreducible(p, k) if k > 1 else None
    return Field(p, k, modulus)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q as p**k with p prime, or reject.

    Returns:
        (p, k) with q == p**k.

    Raises:
        ValueError: q is not a prime power.
    """
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            rest = q
            while rest % p == 0:
                rest //= p
                k += 1
            if rest != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
        p += 1
    return q, 1
