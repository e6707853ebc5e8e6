"""Small finite fields GF(p^k) whose elements are the integers 0..q-1.

Element a stands for the polynomial c_0 + c_1 x + ... + c_{k-1} x^{k-1}
over GF(p) whose residues (c_0, ..., c_{k-1}) are the base-p digits of a,
most significant first (Field.residues).  So 0..q-1 lists the residue
tuples in lexicographic order, zero first, and the field's one has index
q/p.  Extension fields reduce modulo the lexicographically smallest monic
irreducible polynomial of degree k, found by an exhaustive trial-division
scan; the scan is feasible because make_field refuses orders above
DEFAULT_ORDER_CAP = 2^16.

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
from typing import Callable, Iterable, Iterator, NamedTuple

from zng.errors import BudgetError, int_text

DEFAULT_ORDER_CAP = 1 << 16


def _factor(n: int) -> Iterator[tuple[int, int]]:
    """n's (prime, exponent) pairs, smallest prime first, by lazy trial division."""
    f = 2
    while f * f <= n:
        k = 0
        while n % f == 0:
            n //= f
            k += 1
        if k:
            yield f, k
        f += 1
    if n > 1:
        yield n, 1


# ----------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient lists from the constant up
# ----------------------------------------------------------------------

def _poly_rem(num: list[int], div: tuple[int, ...] | list[int], p: int) -> list[int]:
    """num modulo the monic polynomial div over GF(p), as residues 0..p-1.

    num's coefficients may be any integers; the result has len(div) - 1
    entries when num has at least that many.
    """
    rem = list(num)
    while len(rem) >= len(div):
        lead = rem.pop() % p
        if lead:
            for i, c in enumerate(div[:-1], len(rem) + 1 - len(div)):
                rem[i] -= lead * c
    return [c % p for c in rem]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Exhaustive factor check: no monic divisor of degree 1..deg/2."""
    degree = len(poly) - 1
    for deg in range(1, degree // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if not any(_poly_rem(poly, [*tail, 1], p)):
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
            out = 0
            for c in _poly_rem(conv, modulus, p):
                out = out * p + c
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
        primes = [l for l, _ in _factor(n)]
        g = next(g for g in range(1, q) if all(power(g, n // l) != one for l in primes))
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


def make_field(q: int) -> Field:
    """Build GF(q), scanning for the canonical modulus when q is not prime.

    The order cap comes before any trial division, so a huge q is refused
    at once.

    Raises:
        ValueError: q < 2, or q is not a prime power.
        BudgetError: q exceeds DEFAULT_ORDER_CAP.
    """
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    if q > DEFAULT_ORDER_CAP:
        raise BudgetError(f"field order {int_text(q)} exceeds the cap {DEFAULT_ORDER_CAP}")
    p, k = next(_factor(q))  # the smallest prime only
    if p**k != q:
        raise ValueError(f"{q} is not a prime power")
    return Field(p, k, _smallest_irreducible(p, k) if k > 1 else None)
