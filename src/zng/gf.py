"""Small finite fields GF(p^k) with explicit polynomial-basis elements.

Elements are plain tuples of k residues mod p, listed from the constant term
up, so they are hashable, cheap, and stable across processes.  Extension
fields reduce modulo the lexicographically smallest monic irreducible
polynomial of degree k, found by an exhaustive trial-division scan; the scan
is feasible because the whole module is capped at desk-scale orders
(q <= 2^16 by default).  Inverses use a^(q-2), which keeps the arithmetic
a single well-tested code path instead of an extended-gcd special case.
"""

from __future__ import annotations

import itertools

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

class Field:
    """Arithmetic for GF(p^k) on tuple-of-residue elements.

    Attributes:
        p: field characteristic (prime).
        k: extension degree, q = p**k.
        q: field order.
        modulus: monic degree-k reduction polynomial as a coefficient tuple
            from the constant term up; None exactly when k == 1.
    """

    __slots__ = ("p", "k", "q", "modulus", "_reduce_rows", "_elements", "_index")

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
