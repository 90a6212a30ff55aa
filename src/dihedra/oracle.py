"""Brute-force oracle over surface-kernel epimorphisms (skes).

A ske for D_n with plain signature (gamma; m_1, ..., m_v) is a tuple
(alpha_1, beta_1, ..., alpha_gamma, beta_gamma; c_1, ..., c_v) of group
elements satisfying the long relation
prod [alpha_i, beta_i] * prod c_j = 1, with order(c_j) = m_j exactly, whose
entries generate the whole group.  Enumeration is exhaustive and ordered, so
the oracle is usable as an independent ground truth for the closed formulas.

Elements are encoded as integers exponent + n * reflector; tuples are
enumerated in lexicographic order of that encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .correspondence import AnalyticCharacter
from .errors import BudgetExceededError, InvalidArgumentError
from .group import (
    DihedralElement,
    _check_n,
    element_from_index,
    element_index,
    index_inverse,
    index_mul,
    index_order,
    irreducible_reps,
    n_function,
    parse_element,
    span,
)
from .signatures import GeometricSignature, PlainSignature

DEFAULT_MAX_GROUP_ORDER = 24
DEFAULT_MAX_TUPLE_LENGTH = 7


@dataclass(frozen=True)
class GeneratingVector:
    """Candidate ske tuple: 2*gamma hyperbolic entries and v elliptic ones."""

    n: int
    gamma: int
    hyperbolic: tuple[DihedralElement, ...]
    elliptic: tuple[DihedralElement, ...]

    def __post_init__(self):
        if len(self.hyperbolic) != 2 * self.gamma:
            raise InvalidArgumentError(
                f"expected {2 * self.gamma} hyperbolic entries, "
                f"got {len(self.hyperbolic)}"
            )
        for g in (*self.hyperbolic, *self.elliptic):
            if g.n != self.n:
                raise InvalidArgumentError("entry belongs to a different group")

    def long_relation_product(self) -> DihedralElement:
        prod = DihedralElement.identity(self.n)
        for i in range(self.gamma):
            a, b = self.hyperbolic[2 * i], self.hyperbolic[2 * i + 1]
            prod = prod * (a * b * a.inverse() * b.inverse())
        for c in self.elliptic:
            prod = prod * c
        return prod

    def generates(self) -> bool:
        entries = (*self.hyperbolic, *self.elliptic)
        return len(span(self.n, map(element_index, entries))) == 2 * self.n

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": self.gamma,
            "hyperbolic": [str(g) for g in self.hyperbolic],
            "elliptic": [str(g) for g in self.elliptic],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratingVector":
        try:
            n = int(data["n"])
            return cls(
                n,
                int(data["gamma"]),
                tuple(parse_element(n, t) for t in data["hyperbolic"]),
                tuple(parse_element(n, t) for t in data["elliptic"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed generating vector: {exc}") from exc

    def __str__(self) -> str:
        hyp = ", ".join(str(g) for g in self.hyperbolic)
        ell = ", ".join(str(g) for g in self.elliptic)
        return f"({hyp}; {ell})" if hyp else f"(; {ell})"


def verify_ske(vector: GeneratingVector, sig: PlainSignature) -> bool:
    """True iff the long relation holds, each elliptic entry has exactly the
    declared order, and the entries generate the whole group."""
    if len(vector.elliptic) != len(sig.periods) or vector.gamma != sig.gamma:
        raise InvalidArgumentError(
            f"vector shape ({vector.gamma}; {len(vector.elliptic)} elliptic) does "
            f"not match signature ({sig.gamma}; {len(sig.periods)} periods)"
        )
    for c, m in zip(vector.elliptic, sig.periods):
        if c.order() != m:
            return False
    if not vector.long_relation_product().is_identity:
        return False
    return vector.generates()


def _split(n: int, ell_ids) -> tuple[int, int, tuple[int, ...]]:
    """(a, b, sorted periods) of integer-encoded elliptic entries: reflections
    split by class (exponent parity, even n), rotations give their orders."""
    a = b = 0
    periods = []
    for x in ell_ids:
        if x < n:
            periods.append(index_order(n, x))
        elif n % 2 == 0 and (x - n) % 2:
            b += 1
        else:
            a += 1
    return a, b, tuple(sorted(periods))


def geosig_of_ske(vector: GeneratingVector) -> GeometricSignature:
    """Geometric signature of the action presented by a ske."""
    a, b, periods = _split(vector.n, map(element_index, vector.elliptic))
    return GeometricSignature(vector.n, vector.gamma, a, b, periods)


def chevalley_weil(vector: GeneratingVector) -> AnalyticCharacter:
    """Analytic-representation multiplicities of the action presented by a
    ske: gamma for the trivial character, and
    d_V (gamma - 1) + sum_j N(V, c_j) for every nontrivial V."""
    n, gamma = vector.n, vector.gamma
    psi: list[int] = []
    nu: list[int] = []
    for V in irreducible_reps(n):
        if V.kind == "psi1":
            psi.append(gamma)
            continue
        total = Fraction(V.degree * (gamma - 1))
        for c in vector.elliptic:
            total += n_function(V, c)
        if total.denominator != 1 or total < 0:
            raise InvalidArgumentError(
                f"{vector} is not a ske: multiplicity of {V} would be {total}"
            )
        (psi if V.kind != "rho" else nu).append(int(total))
    return AnalyticCharacter(n, tuple(psi), tuple(nu))


@dataclass(frozen=True)
class SkeRecord:
    vector: GeneratingVector
    geosig: GeometricSignature
    analytic: AnalyticCharacter

    def to_json_dict(self) -> dict:
        return {
            "vector": self.vector.to_json_dict(),
            "geosig": self.geosig.to_json_dict(),
            "analytic": self.analytic.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# enumeration engine over integer-encoded elements


# Both memos hold O(n^2) data per n: the bound keeps every n = 2..12 that the
# default budget admits, not every n a process has ever scanned.
@lru_cache(maxsize=12)
def _tables(n: int):
    size = 2 * n
    M = [[index_mul(n, x, y) for y in range(size)] for x in range(size)]
    inv = [index_inverse(n, x) for x in range(size)]
    order = [index_order(n, x) for x in range(size)]
    by_order: dict[int, list[int]] = {}
    for x in range(size):
        by_order.setdefault(order[x], []).append(x)
    # commutator solution table: solutions[a][c] = sorted b with [a, b] = c
    solutions: list[dict[int, list[int]]] = []
    for a in range(size):
        row: dict[int, list[int]] = {}
        for b in range(size):
            c = M[M[M[a][b]][inv[a]]][inv[b]]
            row.setdefault(c, []).append(b)
        solutions.append(row)
    return M, inv, order, by_order, solutions


class _SubgroupInterner:
    """Interns subgroups of D_n as small integers with a memoized
    extend-by-one-generator step, so generation checks along the search tree
    cost one dictionary lookup per chosen element."""

    def __init__(self, n: int):
        self._n = n
        self._sets: list[frozenset[int]] = [frozenset([0])]
        self._ids: dict[frozenset[int], int] = {self._sets[0]: 0}
        self._extend: dict[tuple[int, int], int] = {}
        self.trivial = 0
        self.whole = self._intern(frozenset(range(2 * n)))

    def _intern(self, elems: frozenset[int]) -> int:
        sid = self._ids.get(elems)
        if sid is None:
            sid = len(self._sets)
            self._sets.append(elems)
            self._ids[elems] = sid
        return sid

    def extend(self, sid: int, x: int) -> int:
        key = (sid, x)
        out = self._extend.get(key)
        if out is None:
            base = self._sets[sid]
            out = sid if x in base else self._intern(span(self._n, base | {x}))
            self._extend[key] = out
        return out


@lru_cache(maxsize=12)
def _interner(n: int) -> _SubgroupInterner:
    return _SubgroupInterner(n)


def _check_budget(
    n: int, sig: PlainSignature, max_group_order: int, max_tuple_length: int
) -> None:
    if 2 * n > max_group_order:
        raise BudgetExceededError(
            f"group order 2n = {2 * n} exceeds budget {max_group_order}"
        )
    if 2 * sig.gamma + len(sig.periods) > max_tuple_length:
        raise BudgetExceededError(
            f"tuple length 2*gamma + v = {2 * sig.gamma + len(sig.periods)} "
            f"exceeds budget {max_tuple_length}"
        )


def scan_skes(
    n: int,
    sig: PlainSignature,
    on_leaf,
    *,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
    max_tuple_length: int = DEFAULT_MAX_TUPLE_LENGTH,
) -> bool:
    """Run on_leaf(hyp_ids, ell_ids) for every ske, in lexicographic order of
    the integer-encoded tuple.  A truthy return from on_leaf stops the scan;
    returns True iff stopped early.
    """
    _check_n(n)
    _check_budget(n, sig, max_group_order, max_tuple_length)
    gamma, periods = sig.gamma, sig.periods
    M, inv, order, by_order, solutions = _tables(n)
    interner = _interner(n)
    extend, whole = interner.extend, interner.whole
    v = len(periods)
    if gamma == 0 and v == 0:
        return False
    candidates = [by_order.get(m, []) for m in periods]
    if any(not c for c in candidates):
        return False

    all_ids = list(range(2 * n))

    # units: gamma commutator pairs, then v elliptic slots; the final slot is
    # solved from the running product instead of searched
    stop = False

    def pair_unit(k: int, prefix: int, sub: int, chosen: tuple[int, ...]):
        nonlocal stop
        last_pair = k == gamma - 1 and v == 0
        if last_pair:
            need = inv[prefix]
            for a in all_ids:
                if stop:
                    return
                sols = solutions[a].get(need)
                if not sols:
                    continue
                sub_a = extend(sub, a)
                for b in sols:
                    sub_ab = extend(sub_a, b)
                    if sub_ab == whole:
                        if on_leaf(chosen + (a, b), ()):
                            stop = True
                            return
            return
        for a in all_ids:
            if stop:
                return
            sub_a = extend(sub, a)
            inv_a = inv[a]
            row_a = M[a]
            for b in all_ids:
                comm = M[M[row_a[b]][inv_a]][inv[b]]
                next_prefix = M[prefix][comm]
                sub_ab = extend(sub_a, b)
                if k + 1 < gamma:
                    pair_unit(k + 1, next_prefix, sub_ab, chosen + (a, b))
                else:
                    elliptic_unit(0, next_prefix, sub_ab, chosen + (a, b), ())
                if stop:
                    return

    def elliptic_unit(
        j: int, prefix: int, sub: int,
        hyp: tuple[int, ...], ell: tuple[int, ...],
    ):
        nonlocal stop
        if j == v - 1:
            c = inv[prefix]
            if order[c] == periods[j] and extend(sub, c) == whole:
                if on_leaf(hyp, ell + (c,)):
                    stop = True
            return
        for c in candidates[j]:
            if stop:
                return
            elliptic_unit(j + 1, M[prefix][c], extend(sub, c), hyp, ell + (c,))

    if gamma:
        pair_unit(0, 0, interner.trivial, ())
    else:
        elliptic_unit(0, 0, interner.trivial, (), ())
    return stop


def vector_from_ids(
    n: int, gamma: int, hyp_ids: tuple[int, ...], ell_ids: tuple[int, ...]
) -> GeneratingVector:
    return GeneratingVector(
        n,
        gamma,
        tuple(element_from_index(n, x) for x in hyp_ids),
        tuple(element_from_index(n, x) for x in ell_ids),
    )


def record_from_ids(
    n: int, gamma: int, hyp_ids: tuple[int, ...], ell_ids: tuple[int, ...]
) -> SkeRecord:
    vector = vector_from_ids(n, gamma, hyp_ids, ell_ids)
    return SkeRecord(vector, geosig_of_ske(vector), chevalley_weil(vector))


def enumerate_skes(
    n: int,
    sig: PlainSignature,
    *,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
    max_tuple_length: int = DEFAULT_MAX_TUPLE_LENGTH,
) -> list[SkeRecord]:
    """All skes for (D_n, sig) as records, in canonical lexicographic order."""
    records: list[SkeRecord] = []

    def collect(hyp_ids, ell_ids):
        records.append(record_from_ids(n, sig.gamma, hyp_ids, ell_ids))
        return False

    scan_skes(
        n,
        sig,
        collect,
        max_group_order=max_group_order,
        max_tuple_length=max_tuple_length,
    )
    return records


def exists_ske(
    n: int,
    sig: PlainSignature,
    *,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
    max_tuple_length: int = DEFAULT_MAX_TUPLE_LENGTH,
) -> bool:
    return scan_skes(
        n,
        sig,
        lambda hyp, ell: True,
        max_group_order=max_group_order,
        max_tuple_length=max_tuple_length,
    )


def exists_ske_with_geosig(
    gs: GeometricSignature,
    *,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
    max_tuple_length: int = DEFAULT_MAX_TUPLE_LENGTH,
) -> bool:
    """True iff some ske of the plain signature presents exactly gs (same
    reflection-class split and the same period multiset)."""
    n, target = gs.n, (gs.a, gs.b, gs.periods)
    return scan_skes(
        n,
        gs.plain(),
        lambda hyp, ell: _split(n, ell) == target,
        max_group_order=max_group_order,
        max_tuple_length=max_tuple_length,
    )
