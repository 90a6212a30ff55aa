"""Existence of dihedral actions: realizability of geometric signatures,
explicit generating vectors, and the analyticity criterion for characters.

Each check returns a RealizabilityResult whose reason string is a stable
identifier for the first failed condition (or 'ok'), so callers and the CLI
can report outcomes without parsing prose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .correspondence import (
    AnalyticCharacter,
    geosig_from_analytic,
    presignature_function,
)
from .divisors import divisors, inverse_divisor_transform
from .errors import (
    DegenerateSignatureError,
    InvalidArgumentError,
    NotRealizableError,
)
from .group import DihedralElement, Irrep
from .oracle import GeneratingVector, geosig_of_ske, verify_ske
from .signatures import GeometricSignature


@dataclass(frozen=True)
class RealizabilityResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


_OK = RealizabilityResult(True, "ok")


def _fail(reason: str) -> RealizabilityResult:
    return RealizabilityResult(False, reason)


def _conditions(gs: GeometricSignature) -> RealizabilityResult:
    """The existence conditions alone, with no genus gate."""
    n, gamma = gs.n, gs.gamma
    if n % 2 == 1:
        t = gs.t
        if t % 2:
            return _fail("odd.cond1.parity")
        if gamma == 0 and t < 2:
            return _fail("odd.cond2.count")
        if (gamma, t) in ((0, 2), (1, 0)) and gs.lcm_periods() != n:
            return _fail("odd.cond3.lcm")
        return _OK
    a, b, A = gs.a, gs.b, gs.count_A()
    if a % 2 != b % 2 or b % 2 != A % 2:
        tag = "even0" if gamma == 0 else "evenP"
        return _fail(f"{tag}.cond1.parity")
    if gamma == 0:
        if a + b < 2:
            return _fail("even0.cond2.count")
        if a + b == 2 and gs.lcm_periods() != n:
            return _fail("even0.cond3.lcm")
        if a + b > 2 and (a == 0 or b == 0) and A == 0:
            return _fail("even0.cond4.A")
        return _OK
    if gamma == 1 and a == 0 and b == 0:
        lcm = gs.lcm_periods()
        if lcm not in (n, n // 2):
            return _fail("evenP.cond2.lcm")
        if lcm == n // 2 and n % 4 == 0 and gs.count_B() % 2 == 0:
            return _fail("evenP.cond2.B")
    return _OK


def is_realizable(
    gs: GeometricSignature, *, allow_low_genus: bool = False
) -> RealizabilityResult:
    """Whether some action on a surface of genus >= 2 has signature gs.

    With allow_low_genus the genus gate is skipped and the group-theoretic
    existence conditions alone decide (they remain exact at genus 0 and 1).
    """
    if not allow_low_genus:
        try:
            if gs.genus() < 2:
                return _fail("genus.low")
        except DegenerateSignatureError:
            return _fail("genus.invalid")
    return _conditions(gs)


def require_realizable(gs: GeometricSignature, allow_low_genus: bool) -> None:
    """Raise NotRealizableError, naming the failed condition, unless gs is
    realizable."""
    res = is_realizable(gs, allow_low_genus=allow_low_genus)
    if not res:
        raise NotRealizableError(f"{gs} is not realizable: {res.reason}")


# ---------------------------------------------------------------------------
# explicit generating vectors


def _omega(g: DihedralElement) -> DihedralElement:
    """The automorphism r -> r, s -> s*r; swaps the two reflection classes."""
    if g.reflector:
        return DihedralElement.reflection(g.n, g.exponent + 1)
    return g


def _omega_vector(vec: GeneratingVector) -> GeneratingVector:
    return GeneratingVector(
        vec.n,
        vec.gamma,
        tuple(_omega(g) for g in vec.hyperbolic),
        tuple(_omega(g) for g in vec.elliptic),
    )


def _half_exponent(n: int, x: int) -> int:
    """y with 2y = x mod n; for odd x and odd n uses (n + x)/2."""
    if x % 2 == 0:
        return (x // 2) % n
    if n % 2 == 1:
        return ((n + x) // 2) % n
    raise InvalidArgumentError(f"{x} has no half modulo even n = {n}")


def _build_vector(gs: GeometricSignature) -> GeneratingVector:
    n, gamma, a, b = gs.n, gs.gamma, gs.a, gs.b
    rot = lambda e: DihedralElement.rotation(n, e)
    refl = lambda e: DihedralElement.reflection(n, e)
    s, sr = refl(0), refl(1)
    period_elems = tuple(rot(n // m) for m in gs.periods)
    xi3 = sum(n // m for m in gs.periods)
    xi2 = b % 2

    if gamma == 0:
        if a % 2 == 1 and b % 2 == 1 and a + b > 2:
            if a >= 3:
                ell = (s,) * (a - 1) + (refl(1 + xi3),) + (sr,) * b
                return GeneratingVector(n, 0, (), ell + period_elems)
            swapped = _build_vector(
                GeometricSignature(n, 0, b, a, gs.periods)
            )
            return _omega_vector(swapped)
        if a + b == 2:
            base = GeneratingVector(n, 0, (), (s, refl(-xi3)) + period_elems)
            return base if a >= 1 else _omega_vector(base)
        if a and b:
            ell = (s,) * a + (sr,) * (b - 1) + (refl(1 - xi3),)
            return GeneratingVector(n, 0, (), ell + period_elems)
        if b == 0:
            ell = (s,) * (a - 2) + (refl(2), refl(2 - xi3))
            return GeneratingVector(n, 0, (), ell + period_elems)
        swapped = _build_vector(GeometricSignature(n, 0, b, 0, gs.periods))
        return _omega_vector(swapped)

    ell = (s,) * a + (sr,) * b + period_elems
    if gamma == 1 and a == 0 and b == 0:
        # the half of xi3 is only fixed modulo n/2; exactly one lift
        # generates when the periods span just <r^2>
        for delta in (0, 1):
            if (delta * n + xi3) % 2:
                continue
            xi1 = (delta * n + xi3) // 2
            vec = GeneratingVector(n, 1, (s, rot(xi1)), ell)
            if vec.long_relation_product().is_identity and vec.generates():
                return vec
        raise NotRealizableError(f"{gs}: no generating lift exists")
    k = _half_exponent(n, xi2 + xi3)
    if gamma == 1:
        if a:
            return GeneratingVector(n, 1, (sr, rot(k)), ell)
        swapped = _build_vector(
            GeometricSignature(n, 1, b, a, gs.periods)
        )
        return _omega_vector(swapped)
    hyp = (s, rot(k)) + (rot(1),) * (2 * gamma - 2)
    return GeneratingVector(n, gamma, hyp, ell)


def generating_vector(
    gs: GeometricSignature, *, allow_low_genus: bool = False
) -> GeneratingVector:
    """An explicit ske presenting gs, built by the case constructions.

    The result is re-verified: it satisfies the long relation, has exact
    elliptic orders, generates, and presents gs itself.
    """
    require_realizable(gs, allow_low_genus)
    vec = _build_vector(gs)
    if not verify_ske(vec, gs.plain()) or geosig_of_ske(vec) != gs:
        raise AssertionError(f"constructed vector {vec} fails verification for {gs}")
    return vec


# ---------------------------------------------------------------------------
# analyticity of characters


def is_analytic_representation(V: AnalyticCharacter) -> RealizabilityResult:
    """Whether V is the analytic representation of some action on a surface
    of genus >= 2 (the genus is the dimension, so dimension >= 2 is part of
    the criterion)."""
    n = V.n
    if V.dimension < 2:
        return _fail("dim.low")
    phi = presignature_function(V)
    tilde = {
        q: inverse_divisor_transform(phi, q) for q in divisors(n) if q > 1
    }
    lcm_supp = math.lcm(*(q for q, c in tilde.items() if c), 1)
    odd = n % 2 == 1
    tag = "odd" if odd else "even"
    psi = V.psi
    skew = 0 if odd else abs(psi[2] - psi[3])
    if psi[1] + 1 < psi[0] + skew:
        return _fail(f"{tag}.cond1")
    if any(c < 0 for c in tilde.values()):
        return _fail(f"{tag}.cond2")
    for h in range(1, len(V.nu) + 1):
        if V.nu[h - 1] != V.mult_rho(math.gcd(n, h)):
            return _fail(f"{tag}.cond3")
    if odd:
        if psi[0] <= 1 and psi[1] == 0 and lcm_supp != n:
            return _fail("odd.cond4")
        return _OK
    if psi[0] == 0 and psi[1] == 0 and lcm_supp != n:
        return _fail("even.cond4")
    if psi[0] == 0 and psi[1] >= 1 and skew == psi[1] + 1:
        if phi(n) <= phi(n // 2):
            return _fail("even.cond5")
    if psi[0] == 1 and psi[1] == 0:
        if lcm_supp not in (n, n // 2):
            return _fail("even.cond6.lcm")
        if lcm_supp == n // 2 and n % 4 == 0:
            if (phi(n // 2) - phi(n // 4)) % 2 == 0:
                return _fail("even.cond6.B")
    return _OK


def irreducible_analytic_cases() -> list[tuple[int, GeometricSignature]]:
    """The irreducible analytic representations: rho^1 for n in {3, 4, 6},
    with the genus-2 signatures they correspond to."""
    out = []
    for n in (3, 4, 6):
        V = AnalyticCharacter.of_irrep(Irrep(n, "rho", 1))
        assert is_analytic_representation(V).ok
        out.append((n, geosig_from_analytic(V)))
    return out


# ---------------------------------------------------------------------------
# bounded enumeration of realizable signatures


def enumerate_realizable_geosigs(
    n: int, genus_bound: int, *, allow_low_genus: bool = False
) -> list[GeometricSignature]:
    """All realizable geometric signatures for D_n with genus <= genus_bound,
    sorted by (genus, gamma, a, b, periods)."""
    if not isinstance(n, int) or n < 2:
        raise InvalidArgumentError(f"n must be an integer >= 2, got {n!r}")
    if genus_bound < 0:
        return []
    period_values = [m for m in divisors(n) if m >= 2]
    period_cost = {m: n - n // m for m in period_values}
    found: list[GeometricSignature] = []

    def add_candidate(gamma: int, a: int, b: int, periods: tuple[int, ...]):
        gs = GeometricSignature(n, gamma, a, b, periods)
        if is_realizable(gs, allow_low_genus=allow_low_genus):
            found.append(gs)

    def extend_periods(
        gamma: int, a: int, b: int, start: int,
        periods: tuple[int, ...], budget: int,
    ):
        add_candidate(gamma, a, b, periods)
        for idx in range(start, len(period_values)):
            m = period_values[idx]
            if period_cost[m] <= budget:
                extend_periods(
                    gamma, a, b, idx,
                    periods + (m,), budget - period_cost[m],
                )

    gamma = 0
    while True:
        base = 1 + n * (2 * gamma - 2)
        if base > genus_bound:
            break
        budget_after_gamma = 2 * (genus_bound - base)  # in units of 2g
        t = 0
        while n * t <= budget_after_gamma:
            budget = (budget_after_gamma - n * t) // 2
            if n % 2 == 1:
                extend_periods(gamma, t, 0, 0, (), budget)
            else:
                for a in range(t + 1):
                    extend_periods(gamma, a, t - a, 0, (), budget)
            t += 1
        gamma += 1
    found.sort(key=lambda gs: (gs.genus(), gs.sort_key()))
    return found
