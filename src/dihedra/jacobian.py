"""Isogeny decompositions of Jacobians of surfaces with dihedral action.

The group algebra of D_n splits the Jacobian JS into the Jacobian of the
quotient S/D_n, abelian subvarieties B_2 (, B_3, B_4 for even n) attached to
the remaining degree-one representations, and one subvariety B(q) for every
divisor q >= 3 of n, attached to the Galois orbit of rho^(n/q).  Closed
dimension formulas come from the analytic character; the multiplicities in
the Jacobians of intermediate quotients S/H and in Prym varieties of the
intermediate covers are fixed-subspace dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .correspondence import _stabilizer_classes, analytic_from_geosig
from .divisors import divisors, euler_phi, prime_factors
from .errors import InvalidArgumentError
from .group import Irrep, Subgroup, element_index, fixed_dim, index_mul, subgroup_classes
from .realizability import enumerate_realizable_geosigs, require_realizable
from .signatures import GeometricSignature

_KIND_ORDER = {"J": 0, "B2": 1, "B3": 2, "B4": 3, "Bq": 4}


@dataclass(frozen=True)
class Factor:
    """One isogeny factor: kind 'J', 'B2', 'B3', 'B4' or 'Bq' (with q)."""

    kind: str
    q: int | None
    dim: int
    mult: int

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise InvalidArgumentError(f"unknown factor kind {self.kind!r}")
        if (self.q is not None) != (self.kind == "Bq"):
            raise InvalidArgumentError("q is carried by Bq factors exactly")

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.q or 0)

    def label(self) -> str:
        if self.kind == "J":
            return "J(S/G)"
        if self.kind == "Bq":
            return f"B({self.q})"
        return self.kind

    def __str__(self) -> str:
        return self.label() if self.mult == 1 else f"{self.label()}^{self.mult}"

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim, "mult": self.mult}
        if self.q is not None:
            out["q"] = self.q
        return out


@dataclass(frozen=True)
class IsogenyDecomposition:
    """Product of factors up to isogeny, in canonical order, zero factors
    dropped."""

    n: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        kept = tuple(
            sorted(
                (f for f in self.factors if f.dim and f.mult),
                key=Factor.sort_key,
            )
        )
        object.__setattr__(self, "factors", kept)

    @property
    def total_dimension(self) -> int:
        return sum(f.dim * f.mult for f in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " x ".join(str(f) for f in self.factors)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "factors": [f.to_json_dict() for f in self.factors],
        }


@lru_cache(maxsize=64)
def _factors(
    gs: GeometricSignature, allow_low_genus: bool
) -> tuple[tuple[str, int | None, int, Irrep], ...]:
    """(kind, q, dim, attached irrep) for every potential factor of a
    realizable gs, zeros included; the irrep drives fixed-dimension
    multiplicities.  Memoized for recent signatures: the full, quotient and
    Prym decompositions of one signature share it, and an unrealizable gs
    raises on every call."""
    require_realizable(gs, allow_low_genus)
    n, V = gs.n, analytic_from_geosig(gs)
    out: list[tuple[str, int | None, int, Irrep]] = [
        ("J", None, V.psi[0], Irrep(n, "psi1")),
        ("B2", None, V.psi[1], Irrep(n, "psi2")),
    ]
    if n % 2 == 0:
        out.append(("B3", None, V.psi[2], Irrep(n, "psi3")))
        out.append(("B4", None, V.psi[3], Irrep(n, "psi4")))
    for q in divisors(n):
        if q < 3:
            continue
        dim = (euler_phi(q) // 2) * V.mult_rho(n // q)
        out.append(("Bq", q, dim, Irrep(n, "rho", n // q)))
    return tuple(out)


def component_dimensions(
    gs: GeometricSignature, *, allow_low_genus: bool = False
) -> dict[str, int]:
    """Dimensions of all potential factors (zeros included), keyed 'J',
    'B2', 'B3', 'B4', 'B(q)'."""
    return {
        f"B({q})" if kind == "Bq" else kind: dim
        for kind, q, dim, _ in _factors(gs, allow_low_genus)
    }


def full_decomposition(
    gs: GeometricSignature, *, allow_low_genus: bool = False
) -> IsogenyDecomposition:
    """JS up to isogeny: J(S/G) x B2 (x B3 x B4) x prod B(q)^2."""
    factors = [
        Factor(kind, q, dim, 2 if kind == "Bq" else 1)
        for kind, q, dim, _ in _factors(gs, allow_low_genus)
    ]
    return IsogenyDecomposition(gs.n, tuple(factors))


def quotient_decomposition(
    gs: GeometricSignature, H: Subgroup, *, allow_low_genus: bool = False
) -> IsogenyDecomposition:
    """J(S/H) up to isogeny: each factor appears with multiplicity equal to
    the dimension of the subspace of its representation fixed by H."""
    if H.n != gs.n:
        raise InvalidArgumentError("subgroup belongs to a different group")
    factors = [
        Factor(kind, q, dim, fixed_dim(irrep, H))
        for kind, q, dim, irrep in _factors(gs, allow_low_genus)
    ]
    return IsogenyDecomposition(gs.n, tuple(factors))


def prym_decomposition(
    gs: GeometricSignature,
    H: Subgroup,
    K: Subgroup,
    *,
    allow_low_genus: bool = False,
) -> IsogenyDecomposition:
    """Prym variety of the cover S/H -> S/K for H < K, up to isogeny: each
    factor appears with the difference of its fixed dimensions."""
    if H.n != gs.n or K.n != gs.n:
        raise InvalidArgumentError("subgroup belongs to a different group")
    if H == K or not K.contains_subgroup(H):
        raise InvalidArgumentError(f"{K} must strictly contain {H}")
    factors = [
        Factor(kind, q, dim, fixed_dim(irrep, H) - fixed_dim(irrep, K))
        for kind, q, dim, irrep in _factors(gs, allow_low_genus)
    ]
    return IsogenyDecomposition(gs.n, tuple(factors))


def quotient_genus(
    gs: GeometricSignature, H: Subgroup, *, allow_low_genus: bool = False
) -> int:
    """Genus of S/H by Riemann-Hurwitz over S/G; independent of the
    character formulas.

    Over a branch point with stabilizer Sigma the fiber of S/H -> S/G has
    one point per double coset H g Sigma, and the ramification indices of
    the fiber add up to the degree [G:H]; so the branch point adds
    [G:H] - #(H\\G/Sigma) to the Euler count.
    """
    if H.n != gs.n:
        raise InvalidArgumentError("subgroup belongs to a different group")
    require_realizable(gs, allow_low_genus)
    index = (2 * gs.n) // H.order
    total = index * (2 * gs.gamma - 2)
    for sigma, count in _stabilizer_classes(gs):
        if count:
            total += count * (index - _double_cosets(H, sigma))
    if total % 2 != 0:
        raise AssertionError(f"odd Euler contribution for {gs} and {H}")
    genus = (total + 2) // 2
    if genus < 0:
        raise AssertionError(f"negative quotient genus for {gs} and {H}")
    return genus


@lru_cache(maxsize=1024)
def _double_cosets(H: Subgroup, sigma: Subgroup) -> int:
    """#(H\\G/sigma), walked on integer ids.  It depends on the two subgroups
    only, so the quotients of every signature of D_n share it; one n has at
    most 3 d(n) (d(n) + 2) such pairs, so the bound holds several n at once."""
    n = H.n
    h_ids = [element_index(h) for h in H.elements()]
    s_ids = [element_index(s) for s in sigma.elements()]
    covered: set[int] = set()
    cosets = 0
    for g in range(2 * n):
        if g in covered:
            continue
        cosets += 1
        for h in h_ids:
            hg = index_mul(n, h, g)
            covered.update(index_mul(n, hg, s) for s in s_ids)
    return cosets


# ---------------------------------------------------------------------------
# Prym realization of single factors


def q_theta(gs: GeometricSignature, *, allow_low_genus: bool = False) -> tuple[int, ...]:
    """Divisors q >= 3 of n whose factor B(q) has positive dimension."""
    return tuple(
        q for kind, q, dim, _ in _factors(gs, allow_low_genus)
        if kind == "Bq" and dim > 0
    )


@dataclass(frozen=True)
class PrymRealization:
    """Witness that B(q) is isogenous to the Prym variety of the cover
    S/sub -> S/sup."""

    q: int
    sub: Subgroup
    sup: Subgroup


def prym_realization(
    gs: GeometricSignature, q: int, *, allow_low_genus: bool = False
) -> PrymRealization | None:
    """A pair of nested subgroups whose Prym variety is exactly B(q), or
    None when no intermediate cover isolates it.

    Prym multiplicities are differences of fixed dimensions, which are class
    functions, so searching the nested pairs of subgroup classes is
    exhaustive.  sub runs by decreasing order; for each sub, sup runs over
    the double covers S/sub -> S/sup first, then the whole group, then the
    rest by increasing order.
    """
    active = [
        (kind == "Bq" and fq == q, irrep)
        for kind, fq, dim, irrep in _factors(gs, allow_low_genus)
        if dim > 0
    ]
    if not any(is_q for is_q, _ in active):
        raise InvalidArgumentError(f"B({q}) is not an active factor of {gs}")
    classes = list(subgroup_classes(gs.n))
    for sub in sorted(classes, key=lambda H: H.order, reverse=True):
        for sup in sorted(
            classes,
            key=lambda K: (K.order != 2 * sub.order, not K.is_whole_group, K.order),
        ):
            if (
                sup.order > sub.order
                and sup.contains_subgroup(sub)
                and all(
                    fixed_dim(irrep, sub) - fixed_dim(irrep, sup) == is_q
                    for is_q, irrep in active
                )
            ):
                return PrymRealization(q, sub, sup)
    return None


def is_prym_affordable_group(n: int) -> bool:
    """Whether every realizable signature for D_n admits a Prym realization
    of each of its active factors B(q): exactly the prime powers."""
    if not isinstance(n, int) or n < 3:
        raise InvalidArgumentError(f"n must be an integer >= 3, got {n!r}")
    return len(prime_factors(n)) == 1


# ---------------------------------------------------------------------------
# classification of completely decomposable Jacobians


@dataclass(frozen=True)
class ClassificationRow:
    n: int
    genus: int
    gs: GeometricSignature
    decomposition: IsogenyDecomposition

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "genus": self.genus,
            "geosig": self.gs.to_json_dict(),
            "decomposition": self.decomposition.to_json_dict(),
        }


def _max_complete_genus(n: int) -> int:
    """Upper bound for the genus of a completely decomposable JS: every
    factor has dimension 1, the degree-one parts give at most 2 (4 for even
    n), and B(q) needs phi(q) = 2, so q in {3, 4, 6}."""
    bound = 2 + (2 if n % 2 == 0 else 0)
    bound += 2 * sum(1 for q in (3, 4, 6) if n % q == 0)
    return bound


def _classify(n: int, k: int, genus_bound: int) -> list[ClassificationRow]:
    """Realizable signatures with genus <= genus_bound whose Jacobian splits
    into factors all of dimension exactly k, sorted by genus."""
    rows = []
    for gs in enumerate_realizable_geosigs(n, genus_bound):
        dec = full_decomposition(gs)
        if all(f.dim == k for f in dec.factors):
            rows.append(ClassificationRow(n, gs.genus(), gs, dec))
    return rows


def classify_complete(n: int) -> list[ClassificationRow]:
    """All realizable signatures for D_n whose Jacobian splits into factors
    of dimension one, with their decompositions, sorted by genus."""
    return _classify(n, 1, _max_complete_genus(n))


def classify_k_decompositions(
    n: int, k: int, genus_bound: int
) -> list[ClassificationRow]:
    """Realizable signatures with genus <= genus_bound whose Jacobian splits
    into factors all of dimension exactly k >= 2.

    The search stops at genus 1 + 2nk/phi(n): dim B(n) = (phi(n)/2) nu_1 = k
    fixes nu_1 = 2(gamma - 1) + t/2 + v, and genus = 1 + n nu_1 - sum n/m_j."""
    if not isinstance(n, int) or n < 3:
        raise InvalidArgumentError(f"n must be an integer >= 3, got {n!r}")
    if not isinstance(k, int) or k < 2:
        raise InvalidArgumentError(f"k must be an integer >= 2, got {k!r}")
    # B(n) is active at genus >= 2 with dimension (phi(n)/2) nu_1, nu_1 >= 1:
    # k must be a multiple of phi(n)/2, and nu_1 = 2k/phi(n) caps the genus
    if k % (euler_phi(n) // 2) != 0:
        return []
    return _classify(n, k, min(genus_bound, 1 + 2 * n * k // euler_phi(n)))
