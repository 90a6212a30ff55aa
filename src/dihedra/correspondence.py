"""Correspondence between geometric signatures and analytic characters.

An analytic character records the multiplicities of the irreducible dihedral
representations in the analytic (holomorphic) representation of an action.
Closed formulas express it from the geometric signature, and the signature is
recovered by inverting the divisor transform of the presignature function.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .divisors import IntegerFunction, divisors, inverse_divisor_transform
from .errors import (
    InvalidArgumentError,
    NotAnalyticError,
    ParityError,
    UnsupportedScopeError,
)
from .group import Irrep, Subgroup, _check_n, fixed_dim, rho_index_bound
from .signatures import GeometricSignature


@dataclass(frozen=True)
class AnalyticCharacter:
    """Multiplicity vector over the irreducible representations of D_n.

    psi holds the multiplicities of the degree-one representations (two for
    odd n, four for even n); nu[h-1] is the multiplicity of the degree-two
    representation rho^h for 1 <= h <= rho_index_bound(n).
    """

    n: int
    psi: tuple[int, ...]
    nu: tuple[int, ...]

    def __post_init__(self):
        _check_n(self.n)
        expected = 2 if self.n % 2 else 4
        if len(self.psi) != expected:
            raise InvalidArgumentError(
                f"psi must have {expected} entries for n = {self.n}"
            )
        if len(self.nu) != rho_index_bound(self.n):
            raise InvalidArgumentError(
                f"nu must have {rho_index_bound(self.n)} entries for n = {self.n}"
            )
        for value in (*self.psi, *self.nu):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidArgumentError(
                    f"multiplicity {value!r} must be a nonnegative integer"
                )
        object.__setattr__(self, "psi", tuple(self.psi))
        object.__setattr__(self, "nu", tuple(self.nu))

    def mult_psi(self, j: int) -> int:
        if not 1 <= j <= len(self.psi):
            raise InvalidArgumentError(f"psi_{j} is not a representation of D_{self.n}")
        return self.psi[j - 1]

    def mult_rho(self, h: int) -> int:
        h %= self.n
        if h > self.n // 2:
            h = self.n - h
        if not 1 <= h <= rho_index_bound(self.n):
            raise InvalidArgumentError(f"rho^{h} is not a representation of D_{self.n}")
        return self.nu[h - 1]

    def mult(self, irrep: Irrep) -> int:
        if irrep.n != self.n:
            raise InvalidArgumentError("irrep belongs to a different group")
        if irrep.kind == "rho":
            return self.mult_rho(irrep.h)
        return self.mult_psi(int(irrep.kind[3]))

    @property
    def dimension(self) -> int:
        return sum(self.psi) + 2 * sum(self.nu)

    @classmethod
    def of_irrep(cls, irrep: Irrep) -> "AnalyticCharacter":
        psi = [0] * (2 if irrep.n % 2 else 4)
        nu = [0] * rho_index_bound(irrep.n)
        if irrep.kind == "rho":
            nu[irrep.h - 1] = 1
        else:
            psi[int(irrep.kind[3]) - 1] = 1
        return cls(irrep.n, tuple(psi), tuple(nu))

    def pretty(self) -> str:
        terms = []
        for j, mult in enumerate(self.psi, start=1):
            if mult:
                terms.append(f"psi{j}" if mult == 1 else f"{mult} psi{j}")
        for h, mult in enumerate(self.nu, start=1):
            if mult:
                terms.append(f"rho^{h}" if mult == 1 else f"{mult} rho^{h}")
        return " + ".join(terms) if terms else "0"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "psi": list(self.psi),
            "rho": {str(h): mult for h, mult in enumerate(self.nu, start=1)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AnalyticCharacter":
        """Read the form of schemas/analytic_character.v1.json: keys n, psi
        and rho only, integer values, rho keys 1, 2, ...; rho may be omitted."""
        try:
            n, psi, rho = data["n"], data["psi"], data.get("rho", {})
            unknown = sorted(set(data) - {"n", "psi", "rho"})
            if unknown:
                raise ValueError(f"unknown keys {unknown}")
            if not isinstance(psi, list) or not isinstance(rho, dict):
                raise ValueError("psi must be an array and rho an object")
            for h in rho:
                if not isinstance(h, str) or not re.fullmatch("[1-9][0-9]*", h):
                    raise ValueError(f"rho key {h!r} is not an index 1, 2, ...")
            for value in (n, *psi, *rho.values()):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"{value!r} is not an integer")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed analytic character: {exc}") from exc
        rho = {int(h): m for h, m in rho.items()}
        bound = rho_index_bound(n) if n >= 2 else 0
        for h in rho:
            if not 1 <= h <= bound:
                raise InvalidArgumentError(f"rho^{h} is not a representation of D_{n}")
        nu = tuple(rho.get(h, 0) for h in range(1, bound + 1))
        return cls(n, tuple(psi), nu)

    def __str__(self) -> str:
        return self.pretty()


def analytic_from_geosig(gs: GeometricSignature) -> AnalyticCharacter:
    """Multiplicities of the analytic representation, by closed formula.

    The formulas are total whenever the parity constraints hold; they produce
    nonnegative values exactly on realizable signatures (the constructor
    rejects negatives otherwise).
    """
    n, gamma, t = gs.n, gs.gamma, gs.t
    hat = gs.hat_signature_function
    if t % 2:
        what = "reflection count t" if n % 2 else "a + b"
        raise ParityError(f"{gs}: {what} = {t} must be even")
    psi = [gamma, gamma - 1 + t // 2]
    if n % 2 == 0:
        A = hat(n) - hat(n // 2)
        if (gs.b + A) % 2:
            raise ParityError(f"{gs}: b = {gs.b} and A = {A} must have equal parity")
        psi += [gamma - 1 + (gs.b + A) // 2, gamma - 1 + (gs.a + A) // 2]
    base = 2 * (gamma - 1) + t // 2 + hat(n)
    nu = tuple(base - hat(h) for h in range(1, rho_index_bound(n) + 1))
    return AnalyticCharacter(n, tuple(psi), nu)


def presignature(V: AnalyticCharacter, q: int) -> int:
    """Presignature function of an analytic character at q >= 1.

    Equals the divisor transform of the signature function when V arises
    from an action; defined from the character alone.
    """
    n = V.n
    if n < 3:
        raise UnsupportedScopeError("presignature requires n >= 3")
    if not isinstance(q, int) or q < 1:
        raise InvalidArgumentError(f"q must be a positive integer, got {q!r}")
    g = math.gcd(n, q)
    rho1 = V.nu[0]
    if g == n:
        return rho1 - V.psi[0] - V.psi[1] + 1
    if n % 2 == 0 and g == n // 2:
        return rho1 - V.psi[2] - V.psi[3]
    return rho1 - V.mult_rho(g)


def presignature_function(V: AnalyticCharacter) -> IntegerFunction:
    return IntegerFunction(V.n, {q: presignature(V, q) for q in divisors(V.n)})


def tilde_presignature(V: AnalyticCharacter, q: int) -> int:
    """Moebius inversion of the presignature over the divisors of q.

    Recovers the number of periods equal to q when V is analytic.
    """
    return inverse_divisor_transform(presignature_function(V), q)


def geosig_from_analytic(V: AnalyticCharacter) -> GeometricSignature:
    """Inverse of analytic_from_geosig on analytic characters.

    Raises NotAnalyticError when the recovered reflection counts or period
    multiplicities are negative; other analyticity failures surface through
    the realizability checks, not here.
    """
    n = V.n
    gamma = V.psi[0]
    if n % 2 == 1:
        t = 2 * (V.psi[1] - V.psi[0] + 1)
        if t < 0:
            raise NotAnalyticError(f"recovered reflection count t = {t} is negative")
        a, b = t, 0
    else:
        a = V.psi[1] + V.psi[3] - V.psi[0] - V.psi[2] + 1
        b = V.psi[1] + V.psi[2] - V.psi[0] - V.psi[3] + 1
        if a < 0 or b < 0:
            raise NotAnalyticError(
                f"recovered reflection counts (a, b) = ({a}, {b}) are negative"
            )
    presig = presignature_function(V)
    periods: list[int] = []
    for m in divisors(n)[1:]:
        count = inverse_divisor_transform(presig, m)
        if count < 0:
            raise NotAnalyticError(f"recovered multiplicity of period {m} is {count}")
        periods.extend([m] * count)
    return GeometricSignature(n, gamma, a, b, tuple(periods))


def rational_multiplicity(gs: GeometricSignature, V: Irrep) -> int:
    """Multiplicity of V in the rational representation of the action.

    Computed from the Eichler trace bookkeeping: 2 d_V (gamma - 1) plus the
    fixed-dimension defects over the stabilizer classes, plus 2 for the
    trivial representation.  Doubles the analytic multiplicity.
    """
    d = V.degree
    total = 2 * d * (gs.gamma - 1)
    for sub, count in _stabilizer_classes(gs):
        if count:
            total += count * (d - fixed_dim(V, sub))
    if V.kind == "psi1":
        total += 2
    return total


def _stabilizer_classes(gs: GeometricSignature) -> list[tuple[Subgroup, int]]:
    """(stabilizer, number of branch points of S/G with it): H(1), K(1) and
    C(m) for each distinct period m, zero counts kept (b = 0 for odd n)."""
    n = gs.n
    out = [(Subgroup(n, "H", 1), gs.a), (Subgroup(n, "K", 1), gs.b)]
    out += [(Subgroup(n, "C", m), gs.periods.count(m)) for m in set(gs.periods)]
    return out
