"""The dihedral group of order 2n: elements, subgroups up to conjugacy,
complex irreducible representations, and the exact spectral bookkeeping
(N-function, fixed-subspace dimensions, character inner products) used by
the representation-theoretic parts of the package.

Elements are written r^i (rotations) and s*r^i (reflections) for the
presentation  r^n = s^2 = (s*r)^2 = 1.  Subgroups are kept in the conjugacy
normal form H(alpha) = <s, r^(n/alpha)>, K(alpha) = <s*r, r^(n/alpha)>,
C(alpha) = <r^(n/alpha)> with alpha dividing n; H(n) = K(n) is the whole
group.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CyclotomicInteger
from .divisors import divisors, euler_phi, _check_positive
from .errors import InvalidArgumentError, SignatureSyntaxError


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidArgumentError(f"n must be an integer >= 2, got {n!r}")


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class DihedralElement:
    """Group element s^e * r^i with e in {0,1} and i taken mod n."""

    n: int
    reflector: bool
    exponent: int

    def __post_init__(self):
        _check_n(self.n)
        object.__setattr__(self, "exponent", self.exponent % self.n)

    @classmethod
    def identity(cls, n: int) -> "DihedralElement":
        return cls(n, False, 0)

    @classmethod
    def rotation(cls, n: int, i: int) -> "DihedralElement":
        return cls(n, False, i)

    @classmethod
    def reflection(cls, n: int, i: int) -> "DihedralElement":
        return cls(n, True, i)

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        n = self.n
        if n != other.n:
            raise InvalidArgumentError("cannot multiply elements of different groups")
        return element_from_index(
            n, index_mul(n, element_index(self), element_index(other))
        )

    def inverse(self) -> "DihedralElement":
        return element_from_index(self.n, index_inverse(self.n, element_index(self)))

    def __pow__(self, k: int) -> "DihedralElement":
        if self.reflector:
            return self if k % 2 else DihedralElement.identity(self.n)
        return DihedralElement(self.n, False, self.exponent * k)

    def conjugate_by(self, g: "DihedralElement") -> "DihedralElement":
        return g * self * g.inverse()

    @property
    def is_identity(self) -> bool:
        return not self.reflector and self.exponent == 0

    def order(self) -> int:
        """Least k >= 1 with self^k = identity."""
        return index_order(self.n, element_index(self))

    def __str__(self) -> str:
        if not self.reflector:
            if self.exponent == 0:
                return "1"
            if self.exponent == 1:
                return "r"
            return f"r^{self.exponent}"
        if self.exponent == 0:
            return "s"
        if self.exponent == 1:
            return "s*r"
        return f"s*r^{self.exponent}"


_ELEMENT_RE = re.compile(
    r"""^\s*(?:
        (?P<one>1|e)
      | (?P<refl>s)\s*(?:\*?\s*r(?:\^(?P<rexp>-?\d+))?)?
      | r(?:\^(?P<exp>-?\d+))?
    )\s*$""",
    re.VERBOSE,
)


def parse_element(n: int, text: str) -> DihedralElement:
    """Parse 'r^i', 's', 's*r^i' (also 'sr^i', '1') into an element of D_n."""
    _check_n(n)
    m = _ELEMENT_RE.match(text)
    if not m:
        raise SignatureSyntaxError(f"cannot parse element {text!r}")
    if m.group("one"):
        return DihedralElement.identity(n)
    if m.group("refl"):
        raw = m.group("rexp")
        has_r = "r" in text
        exp = int(raw) if raw is not None else (1 if has_r else 0)
        return DihedralElement.reflection(n, exp)
    raw = m.group("exp")
    return DihedralElement.rotation(n, int(raw) if raw is not None else 1)


def all_elements(n: int) -> list[DihedralElement]:
    """The 2n elements by integer id: rotations first, exponents ascending."""
    _check_n(n)
    return [element_from_index(n, x) for x in range(2 * n)]


# ---------------------------------------------------------------------------
# integer encoding: r^i -> i, s*r^i -> n + i


def element_index(g: DihedralElement) -> int:
    return g.exponent + g.n * (1 if g.reflector else 0)


def element_from_index(n: int, idx: int) -> DihedralElement:
    if not 0 <= idx < 2 * n:
        raise InvalidArgumentError(f"element index {idx} out of range for n = {n}")
    return DihedralElement(n, idx >= n, idx % n)


def index_mul(n: int, x: int, y: int) -> int:
    """Product of two integer-encoded elements of D_n."""
    # (s^e1 r^i1)(s^e2 r^i2) = s^(e1+e2) r^(i2 + (-1)^e2 i1)
    r1, i1 = x // n, x % n
    r2, i2 = y // n, y % n
    sign = -1 if r2 else 1
    return (i2 + sign * i1) % n + n * (r1 ^ r2)


def index_inverse(n: int, x: int) -> int:
    """Inverse of an integer-encoded element: reflections are involutions."""
    return x if x >= n else -x % n


def index_order(n: int, x: int) -> int:
    """Order of an integer-encoded element; the identity 0 has order 1."""
    return 2 if x >= n else n // math.gcd(n, x)


def span(n: int, ids) -> frozenset[int]:
    """Subgroup of D_n generated by the integer-encoded elements ids.

    Breadth-first search from the identity that multiplies by the generators
    only: O(|subgroup| * len(ids)) products, no table and no knowledge of the
    subgroup lattice.
    """
    gens = set(ids)
    elems = {0}
    frontier = [0]
    while frontier:
        grown = []
        for g in frontier:
            for x in gens:
                h = index_mul(n, g, x)
                if h not in elems:
                    elems.add(h)
                    grown.append(h)
        frontier = grown
    return frozenset(elems)


# ---------------------------------------------------------------------------
# subgroups in conjugacy normal form


@dataclass(frozen=True)
class Subgroup:
    """Subgroup H(alpha), K(alpha) or C(alpha) of D_n, alpha | n."""

    n: int
    family: str  # 'H', 'K' or 'C'
    alpha: int

    def __post_init__(self):
        _check_n(self.n)
        if self.family not in ("H", "K", "C"):
            raise InvalidArgumentError(f"unknown subgroup family {self.family!r}")
        if self.alpha < 1 or self.n % self.alpha != 0:
            raise InvalidArgumentError(
                f"alpha = {self.alpha} must divide n = {self.n}"
            )

    @classmethod
    def whole_group(cls, n: int) -> "Subgroup":
        return cls(n, "H", n)

    @property
    def order(self) -> int:
        return self.alpha if self.family == "C" else 2 * self.alpha

    @property
    def is_whole_group(self) -> bool:
        return self.family in ("H", "K") and self.alpha == self.n

    def elements(self) -> list[DihedralElement]:
        n, step = self.n, self.n // self.alpha
        rot = [DihedralElement.rotation(n, k * step) for k in range(self.alpha)]
        if self.family == "C":
            return rot
        offset = 0 if self.family == "H" else 1
        ref = [
            DihedralElement.reflection(n, offset + k * step) for k in range(self.alpha)
        ]
        return rot + ref

    def contains_subgroup(self, other: "Subgroup") -> bool:
        """Containment up to simultaneous conjugacy in the normal-form lattice."""
        if self.n != other.n:
            raise InvalidArgumentError("subgroups of different groups")
        if self.alpha % other.alpha != 0:
            return False
        if other.family == "C":
            return True
        if self.family == "C":
            return False
        if self.is_whole_group:
            return True
        if self.family == other.family:
            return True
        # H(alpha) and K(alpha) chains only merge at the whole group for even
        # n/alpha; with n/alpha odd the two families are conjugate
        return (self.n // self.alpha) % 2 == 1 or (other.n // other.alpha) % 2 == 1

    def __str__(self) -> str:
        return f"{self.family}({self.alpha})"


def subgroup_classes(n: int):
    """Every subgroup of D_n up to conjugacy, for alpha | n ascending: C(alpha),
    H(alpha), and K(alpha) when n/alpha is even (else it is conjugate to
    H(alpha))."""
    for alpha in divisors(n):
        yield Subgroup(n, "C", alpha)
        yield Subgroup(n, "H", alpha)
        if (n // alpha) % 2 == 0:
            yield Subgroup(n, "K", alpha)


_SUBGROUP_RE = re.compile(r"^\s*([HKC])\s*\(\s*(\d+)\s*\)\s*$")


def parse_subgroup(n: int, text: str) -> Subgroup:
    m = _SUBGROUP_RE.match(text)
    if not m:
        raise SignatureSyntaxError(f"cannot parse subgroup {text!r}")
    return Subgroup(n, m.group(1), int(m.group(2)))


def subgroup_from_elements(n: int, gens) -> Subgroup:
    """Closure of gens reduced to conjugacy normal form."""
    _check_n(n)
    ids = []
    for g in gens:
        if g.n != n:
            raise InvalidArgumentError("generator belongs to a different group")
        ids.append(element_index(g))
    elems = span(n, ids)
    alpha = sum(1 for x in elems if x < n)
    refl = [x - n for x in elems if x >= n]
    if not refl:
        return Subgroup(n, "C", alpha)
    if n % 2 == 1 or (n // alpha) % 2 == 1:
        return Subgroup(n, "H", alpha)
    # reflection exponent parity is conjugacy invariant here
    return Subgroup(n, "H" if refl[0] % 2 == 0 else "K", alpha)


# ---------------------------------------------------------------------------
# irreducible representations


@dataclass(frozen=True)
class Irrep:
    """Complex irreducible representation of D_n.

    kind 'psi1'..'psi4' are the 1-dimensional characters (psi3, psi4 only for
    even n); kind 'rho' with index h is the 2-dimensional representation
    r -> diag(zeta^h, zeta^-h), s -> swap, for 1 <= h <= floor((n-1)/2)
    (h <= (n-2)/2 when n is even).
    """

    n: int
    kind: str
    h: int = 0

    def __post_init__(self):
        _check_n(self.n)
        if self.kind in ("psi1", "psi2"):
            if self.h:
                raise InvalidArgumentError("psi characters carry no index")
        elif self.kind in ("psi3", "psi4"):
            if self.n % 2 != 0:
                raise InvalidArgumentError(f"{self.kind} requires even n")
            if self.h:
                raise InvalidArgumentError("psi characters carry no index")
        elif self.kind == "rho":
            if not 1 <= self.h <= rho_index_bound(self.n):
                raise InvalidArgumentError(
                    f"rho index h = {self.h} out of range for n = {self.n}"
                )
        else:
            raise InvalidArgumentError(f"unknown irrep kind {self.kind!r}")

    @property
    def degree(self) -> int:
        return 2 if self.kind == "rho" else 1

    def _psi_is_negative(self, g: DihedralElement) -> bool:
        """Whether a 1-dimensional character takes the value -1 at g: psi3
        and psi4 negate odd powers of r, psi2 and psi4 negate s."""
        flip_r = self.kind in ("psi3", "psi4") and g.exponent % 2 == 1
        flip_s = self.kind in ("psi2", "psi4") and g.reflector
        return flip_r != flip_s

    def character(self, g: DihedralElement) -> CyclotomicInteger:
        if g.n != self.n:
            raise InvalidArgumentError("element belongs to a different group")
        n = self.n
        if self.kind != "rho":
            return CyclotomicInteger.from_int(n, -1 if self._psi_is_negative(g) else 1)
        if g.reflector:
            return CyclotomicInteger.zero(n)
        e = self.h * g.exponent
        return CyclotomicInteger.root(n, e) + CyclotomicInteger.root(n, -e)

    def eigenvalue_exponents(self, g: DihedralElement) -> tuple[tuple[int, int], ...]:
        """Eigenvalues of the representing matrix at g, as pairs (alpha, m)
        meaning zeta_m^alpha with m = order(g) and 1 <= alpha <= m."""
        if g.n != self.n:
            raise InvalidArgumentError("element belongs to a different group")
        m = g.order()
        if self.kind != "rho":
            return ((m // 2 if self._psi_is_negative(g) else m, m),)
        if g.reflector:
            return ((1, 2), (2, 2))
        if g.is_identity:
            return ((1, 1), (1, 1))
        step = math.gcd(self.n, g.exponent)  # = n/m
        e = (self.h * (g.exponent // step)) % m
        a1 = e if e else m
        a2 = (m - e) % m or m
        return ((a1, m), (a2, m))

    def __str__(self) -> str:
        return f"rho^{self.h}" if self.kind == "rho" else self.kind


def rho_index_bound(n: int) -> int:
    """Largest valid rho index: (n-1)//2 for odd n, (n-2)//2 for even n."""
    return (n - 1) // 2 if n % 2 else (n - 2) // 2


@lru_cache(maxsize=None)
def irreducible_reps(n: int) -> tuple[Irrep, ...]:
    """psi1, psi2 (, psi3, psi4), rho^1 ... in a fixed order; the squared
    degrees sum to 2n."""
    _check_n(n)
    reps = [Irrep(n, "psi1"), Irrep(n, "psi2")]
    if n % 2 == 0:
        reps += [Irrep(n, "psi3"), Irrep(n, "psi4")]
    reps += [Irrep(n, "rho", h) for h in range(1, rho_index_bound(n) + 1)]
    return tuple(reps)


def rational_irrep_of_divisor(n: int, q: int) -> frozenset[Irrep]:
    """Galois orbit {rho^h : gcd(n, h) = n/q} attached to a divisor q >= 3 of
    n; its size is phi(q)/2."""
    _check_n(n)
    if q < 3 or n % q != 0:
        raise InvalidArgumentError(f"q must be a divisor of n with q >= 3, got {q}")
    target = n // q
    orbit = frozenset(
        Irrep(n, "rho", h)
        for h in range(1, rho_index_bound(n) + 1)
        if math.gcd(n, h) == target
    )
    assert len(orbit) == euler_phi(q) // 2
    return orbit


# ---------------------------------------------------------------------------
# N-function and fixed dimensions


def n_function(V: Irrep, g: DihedralElement) -> Fraction:
    """N(V, g) = sum over eigenvalues zeta_m^alpha of V(g) of (m - alpha)/m,
    computed from the eigenvalue exponents."""
    total = Fraction(0)
    for alpha, m in V.eigenvalue_exponents(g):
        total += Fraction(m - alpha, m)
    return total


def n_function_table(V: Irrep, g: DihedralElement) -> Fraction:
    """Closed dihedral values of N(V, g); independent of the eigenvalue path
    and used to cross-check it."""
    n = V.n
    if g.n != n:
        raise InvalidArgumentError("element belongs to a different group")
    if g.is_identity:
        return Fraction(0)
    if g.reflector:
        if V.kind == "rho":
            return Fraction(1, 2)
        if V.kind == "psi1":
            return Fraction(0)
        if V.kind == "psi2":
            return Fraction(1, 2)
        # psi3 vanishes on the <s> class, psi4 on the <s*r> class
        odd_exp = g.exponent % 2 == 1
        if V.kind == "psi3":
            return Fraction(1, 2) if odd_exp else Fraction(0)
        return Fraction(0) if odd_exp else Fraction(1, 2)
    q = g.order()
    if V.kind in ("psi1", "psi2"):
        return Fraction(0)
    if V.kind in ("psi3", "psi4"):
        delta = 0 if n % (2 * q) == 0 else 1
        return Fraction(delta, 2)
    return Fraction(0) if V.h % q == 0 else Fraction(1)


def fixed_dim(V: Irrep, H: Subgroup) -> int:
    """Dimension of the subspace of V fixed by H (closed lemma values)."""
    if V.n != H.n:
        raise InvalidArgumentError("irrep and subgroup belong to different groups")
    n, alpha = H.n, H.alpha
    delta = 1 if (n // alpha) % 2 == 0 else 0
    if H.family == "C":
        if V.kind == "rho":
            return 2 if math.gcd(n, V.h) % alpha == 0 else 0
        return {"psi1": 1, "psi2": 1, "psi3": delta, "psi4": delta}[V.kind]
    if V.kind == "rho":
        return 1 if math.gcd(n, V.h) % alpha == 0 else 0
    if H.family == "H":
        return {"psi1": 1, "psi2": 0, "psi3": delta, "psi4": 0}[V.kind]
    return {"psi1": 1, "psi2": 0, "psi3": 0, "psi4": delta}[V.kind]


def character_inner_product(n: int, chi1, chi2) -> int:
    """<chi1, chi2> = (1/2n) sum_g chi1(g) conj(chi2(g)), exactly.

    chi1, chi2 map elements to CyclotomicInteger.
    """
    total = CyclotomicInteger.zero(n)
    for g in all_elements(n):
        total = total + chi1(g) * chi2(g).conjugate()
    value = total.as_integer()
    if value % (2 * n) != 0:
        raise InvalidArgumentError("inner product is not an integer")
    return value // (2 * n)


def irrep_inner_product(V: Irrep, W: Irrep) -> int:
    if V.n != W.n:
        raise InvalidArgumentError("irreps of different groups")
    return character_inner_product(V.n, V.character, W.character)


def fixed_dim_by_average(V: Irrep, H: Subgroup) -> int:
    """(1/|H|) sum_{h in H} chi_V(h); independent route used to verify the
    lemma table."""
    total = CyclotomicInteger.zero(V.n)
    for g in H.elements():
        total = total + V.character(g)
    value = total.as_integer()
    if value % H.order != 0:
        raise InvalidArgumentError("character average is not an integer")
    return value // H.order
