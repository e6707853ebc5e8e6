"""Small finite fields GF(p^k) whose elements are the integers 0..q-1.

Element a stands for the polynomial c_0 + c_1 x + ... + c_{k-1} x^{k-1}
over GF(p) whose residues (c_0, ..., c_{k-1}) are the base-p digits of a,
most significant first (Field.residues).  So 0..q-1 lists the residue
tuples in lexicographic order, zero first, and the field's one has index
q/p.  Extension fields reduce modulo the lexicographically smallest monic
irreducible polynomial of degree k, found by an exhaustive trial-division
scan; the scan is feasible because make_field refuses orders above
DEFAULT_ORDER_CAP = 2^16.

Field.int_arith is the multiplication: a log/antilog pair for the first
primitive element, with O(q) entries each.  A sum of elements is the sum of
their base-p digits mod p, which mpoly.graph_mask forms for every domain
point at once.  A Field is a plain value and keeps no tables:
mpoly.monomial_rows builds them once per build, so code that never evaluates
a polynomial family never pays for them.  Certificates write each
coefficient as its residue tuple.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

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


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates are monic with lower coefficients (c_0, ..., c_{k-1}) scanned
    in lexicographic order, so the result is canonical for every (p, k).  A
    candidate is irreducible iff no monic divisor of degree 1..k/2 leaves a
    zero remainder, which exhaustive trial division checks.
    """
    tails = (itertools.product(range(p), repeat=deg) for deg in range(1, k // 2 + 1))
    divisors = [[*tail, 1] for tail in itertools.chain.from_iterable(tails)]
    for lower in itertools.product(range(p), repeat=k):
        candidate = [*lower, 1]
        if all(any(_poly_rem(candidate, divisor, p)) for divisor in divisors):
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
    """

    log: list[int]
    exp: list[int]


class Field(NamedTuple):
    """GF(p^k) on the element indices 0..q-1.

    Element a is the polynomial in x whose residues mod p, constant term
    first, are the base-p digits of a, most significant first (residues).

    Attributes:
        p: field characteristic (prime).
        k: extension degree, q = p**k.
        modulus: monic degree-k reduction polynomial as a coefficient tuple
            from the constant term up; None exactly when k == 1.
    """

    p: int
    k: int
    modulus: tuple[int, ...] | None

    @property
    def q(self) -> int:
        """The field order p**k."""
        return self.p**self.k

    def residues(self, a: int) -> tuple[int, ...]:
        """The k residues of element a, constant term first."""
        p = self.p
        return tuple(a // p**i % p for i in range(self.k - 1, -1, -1))

    def int_arith(self) -> IntArith:
        """The integer tables of this field, built anew on every call."""
        p, k, q = self.p, self.k, self.q
        n, one = q - 1, q // p  # one has residues (1, 0, ..., 0)
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
        return IntArith(log, exp)


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
