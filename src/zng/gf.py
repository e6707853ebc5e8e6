"""Small finite fields GF(p^k) with explicit polynomial-basis elements.

Elements are plain tuples of k residues mod p, listed from the constant term
up, so they are hashable, cheap, and stable across processes.  Extension
fields reduce modulo the lexicographically smallest monic irreducible
polynomial of degree k, found by an exhaustive trial-division scan; the scan
is feasible because the whole module is capped at desk-scale orders
(q <= 2^16 by default).  Inverses use a^(q-2), which keeps the arithmetic
a single well-tested code path instead of an extended-gcd special case.

Hot loops use Field.int_arith instead: the same arithmetic on element
indices 0..q-1 (positions in elements()), through a log/antilog pair for
the first primitive element in elements() order.  Sums are (a + b) mod p in
a prime field, XOR when p = 2, and go through a Zech-log table otherwise.
Every table has O(q) entries and is built on first use, so code that never
evaluates a polynomial family never pays for it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, NamedTuple

from zng.errors import BudgetError

DEFAULT_ORDER_CAP = 1 << 16

FieldElement = tuple[int, ...]


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
    """GF(q) arithmetic on element indices, the positions in elements().

    With g the primitive element, log[a] is the e in 0..q-2 with g^e = a,
    and log[0] is 2(q-1); exp[log[a] + log[b]] is then the index of a*b for
    every a and b, zero included, because exp reads 0 from 2(q-1) on.
    total(terms) is the index of the field sum of an iterable of indices.
    """

    log: list[int]
    exp: list[int]
    total: Callable[[Iterable[int]], int]


class Field:
    """Arithmetic for GF(p^k) on tuple-of-residue elements.

    Attributes:
        p: field characteristic (prime).
        k: extension degree, q = p**k.
        q: field order.
        modulus: monic degree-k reduction polynomial as a coefficient tuple
            from the constant term up; None exactly when k == 1.
    """

    __slots__ = ("p", "k", "q", "modulus", "_reduce_rows", "_elements", "_index", "_arith")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        # x^j mod modulus for j in k .. 2k-2, used to fold products back down
        self._reduce_rows: list[tuple[int, ...]] = []
        if k > 1:
            assert modulus is not None
            row = [(-c) % p for c in modulus[:k]]  # x^k
            self._reduce_rows.append(tuple(row))
            for _ in range(k - 2):
                shifted = [0, *row[: k - 1]]
                lead = row[k - 1]
                row = [(shifted[i] + lead * self._reduce_rows[0][i]) % p for i in range(k)]
                self._reduce_rows.append(tuple(row))
        self._elements: tuple[FieldElement, ...] | None = None
        self._index: dict[FieldElement, int] | None = None
        self._arith: IntArith | None = None

    # -- identities ----------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return (0,) * self.k

    @property
    def one(self) -> FieldElement:
        return (1,) + (0,) * (self.k - 1)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a: FieldElement) -> FieldElement:
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:k]]
        for j in range(k, 2 * k - 1):
            c = conv[j] % p
            if c:
                row = self._reduce_rows[j - k]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        if e < 0:
            raise ValueError("negative exponent; invert first")
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: FieldElement) -> FieldElement:
        if a == self.zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    # -- enumeration ---------------------------------------------------

    def elements(self) -> tuple[FieldElement, ...]:
        """All q elements, lexicographic on the coefficient tuple; zero first."""
        if self._elements is None:
            self._elements = tuple(itertools.product(range(self.p), repeat=self.k))
        return self._elements

    def index(self, a: FieldElement) -> int:
        """Position of a in elements(); the canonical vertex number of a."""
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements())}
        return self._index[a]

    # -- integer arithmetic on element indices ---------------------------

    def int_arith(self) -> IntArith:
        """The integer tables of this field, built on the first call."""
        if self._arith is None:
            self._arith = self._build_int_arith()
        return self._arith

    def _build_int_arith(self) -> IntArith:
        elems, n, p = self.elements(), self.q - 1, self.p
        factors = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
        g = next(
            a for a in elems[1:] if all(self.pow(a, n // r) != self.one for r in factors)
        )
        powers = []  # index of g^e for e in 0..q-2
        x = self.one
        for _ in range(n):
            powers.append(self.index(x))
            x = self.mul(x, g)
        exp = powers * 2 + [0] * (2 * n + 1)
        log = [2 * n] * self.q
        for e, a in enumerate(powers):
            log[a] = e
        if self.k == 1:
            def total(terms: Iterable[int]) -> int:
                return sum(terms) % p
        elif p == 2:
            def total(terms: Iterable[int]) -> int:
                return functools.reduce(operator.xor, terms, 0)
        else:
            # zech[e] = log(1 + g^e); a negative e reads zech[e + q - 1]
            zech = [log[self.index(self.add(self.one, elems[a]))] for a in powers]

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
