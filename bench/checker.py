"""Independent checker for the outputs the benchmark collects from dihedra.

Standard library only; it imports nothing from ``dihedra`` and shares no code
with it.  Group elements of D_n (order 2n, r^n = s^2 = (sr)^2 = 1) are pairs
(f, e) meaning s^f r^e with f in {0, 1} and e taken mod n, so ``(1, 3)`` is
the element the library prints as ``s*r^3``.

What it computes from first principles:

* D_n arithmetic, element orders and the subgroup generated by a list of
  elements (breadth-first closure under right multiplication);
* the Riemann-Hurwitz genus of a geometric signature;
* |Aut(D_n)| = n * phi(n), which acts freely on surface-kernel epimorphisms,
  so every ske count is a multiple of it;
* the analytic character by Chevalley-Weil sums of N(V, c) over explicit
  eigenvalues, and from it the group-algebra decomposition of the Jacobian;
* the genus of an intermediate quotient S/H from the cycle counts of the
  branch generators on the cosets of H.

Every ``*_problems`` function returns a list of strings; empty means the
object passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# D_n arithmetic


def mul(n: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """s^f1 r^e1 * s^f2 r^e2 = s^(f1+f2) r^(e2 + (-1)^f2 e1), since r s = s r^-1."""
    f1, e1 = x
    f2, e2 = y
    return (f1 ^ f2, (e2 - e1 if f2 else e2 + e1) % n)


def inverse(n: int, x: tuple[int, int]) -> tuple[int, int]:
    f, e = x
    return x if f else (0, (-e) % n)


def order(n: int, x: tuple[int, int]) -> int:
    f, e = x
    if f:
        return 2
    return n // math.gcd(n, e) if e % n else 1


def commutator(n: int, a, b):
    return mul(n, mul(n, mul(n, a, b), inverse(n, a)), inverse(n, b))


def generated(n: int, gens) -> set[tuple[int, int]]:
    """Closure of gens: every product of generators (a finite group's
    submonoid is a subgroup)."""
    gens = [(f, e % n) for f, e in gens]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(n, x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def parse_element(n: int, text: str) -> tuple[int, int]:
    """'1', 'r', 'r^k', 's', 's*r', 's*r^k' as printed by the library."""
    text = text.strip()
    if text == "1":
        return (0, 0)
    f = 0
    if text.startswith("s"):
        f, text = 1, text[1:].lstrip("*")
        if not text:
            return (1, 0)
    if text == "r":
        return (f, 1 % n)
    if not text.startswith("r^"):
        raise ValueError(f"cannot read element {text!r}")
    return (f, int(text[2:]) % n)


def phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)


def aut_order(n: int) -> int:
    """|Aut(D_n)| for n >= 3: r -> r^u (u a unit), s -> s r^v."""
    return n * phi(n)


# ---------------------------------------------------------------------------
# signatures


def rh_genus(n: int, gamma: int, a: int, b: int, periods) -> int | None:
    """Genus by Riemann-Hurwitz for a degree-2n cover of a genus-gamma
    surface; None when 2g - 2 is not an even integer."""
    euler = Fraction(2 * gamma - 2) + Fraction(a + b, 2)
    euler += sum(1 - Fraction(1, m) for m in periods)
    doubled = 2 * n * euler  # 2g - 2
    if doubled.denominator != 1 or doubled.numerator % 2:
        return None
    return doubled.numerator // 2 + 1


def split_of(n: int, elliptic) -> tuple[int, int, tuple[int, ...]]:
    """Reflection-class split and cyclic periods of an elliptic tuple.  For
    even n the classes of s and s*r are told apart by exponent parity; for
    odd n all reflections are conjugate and counted in a."""
    a = b = 0
    periods = []
    for f, e in elliptic:
        if f:
            if n % 2 == 0 and e % 2:
                b += 1
            else:
                a += 1
        else:
            periods.append(order(n, (f, e)))
    return a, b, tuple(sorted(periods))


def branch_generators(n: int, a: int, b: int, periods):
    """One generator per branch point: s, s*r, r^(n/m)."""
    return [(1, 0)] * a + [(1, 1)] * b + [(0, n // m) for m in periods]


# ---------------------------------------------------------------------------
# generating vectors


def vector_problems(
    n: int,
    gamma: int,
    hyperbolic,
    elliptic,
    *,
    periods=None,
    geosig=None,
) -> list[str]:
    """Check a candidate ske: 2*gamma hyperbolic entries, the long relation
    prod [a_i, b_i] * prod c_j = 1, exact elliptic orders slot by slot
    (``periods``, the plain signature) or as a reflection split and period
    multiset (``geosig`` = (a, b, periods)), and generation of D_n."""
    problems = []
    if len(hyperbolic) != 2 * gamma:
        problems.append(f"{len(hyperbolic)} hyperbolic entries for gamma={gamma}")
        return problems
    prod = (0, 0)
    for i in range(gamma):
        prod = mul(n, prod, commutator(n, hyperbolic[2 * i], hyperbolic[2 * i + 1]))
    for c in elliptic:
        prod = mul(n, prod, c)
    if prod != (0, 0):
        problems.append(f"long relation gives {prod}, not the identity")
    if periods is not None:
        got = [order(n, c) for c in elliptic]
        if got != list(periods):
            problems.append(f"elliptic orders {got} != periods {list(periods)}")
    if geosig is not None:
        a, b, per = geosig
        got = split_of(n, elliptic)
        if got != (a, b, tuple(sorted(per))):
            problems.append(f"vector presents {got}, not {(a, b, tuple(sorted(per)))}")
    if len(generated(n, list(hyperbolic) + list(elliptic))) != 2 * n:
        problems.append("entries do not generate D_n")
    return problems


# ---------------------------------------------------------------------------
# Chevalley-Weil: analytic character and Jacobian decomposition


def rho_bound(n: int) -> int:
    return (n - 1) // 2 if n % 2 else (n - 2) // 2


def _linear_value(n: int, kind: int, x) -> int:
    """psi_kind(s^f r^e): psi2 = sign on s, psi3 = sign on r, psi4 both."""
    f, e = x
    sign_r = -1 if kind in (3, 4) else 1
    sign_s = -1 if kind in (2, 4) else 1
    return (sign_r ** e) * (sign_s ** f)


def _n_linear(n: int, value: int) -> int:
    """N(psi, x) in units of 1/(2n): the eigenvalue 1 contributes 0, the
    eigenvalue -1 = zeta_2^1 contributes 1/2."""
    return n if value == -1 else 0


def _n_rho(n: int, h: int, x) -> int:
    """N(rho^h, x) in units of 1/(2n): the sum over the eigenvalues
    exp(2 pi i j/n) of rho^h(x), 0 <= j < n, of (1 - j/n) for j > 0 (the
    eigenvalue 1 contributes nothing)."""
    f, e = x
    if f:
        return n  # eigenvalues 1 and -1
    return sum(2 * (n - j) for j in (h * e % n, -h * e % n) if j)


def analytic_character(n: int, gamma: int, a: int, b: int, periods) -> dict:
    """Multiplicities in the analytic representation, in the library's JSON
    layout {"n", "psi", "rho"}: gamma for the trivial character and
    d_V (gamma - 1) + sum_j N(V, c_j) for every other irreducible V."""
    gens = branch_generators(n, a, b, periods)
    kinds = (2, 3, 4) if n % 2 == 0 else (2,)
    units = [sum(_n_linear(n, _linear_value(n, kind, c)) for c in gens) for kind in kinds]
    units += [sum(_n_rho(n, h, c) for c in gens) for h in range(1, rho_bound(n) + 1)]
    if any(u % (2 * n) for u in units):
        raise ValueError(f"D{n} ({gamma}; {a}, {b}, {periods}) has no analytic character")
    psi = [gamma] + [gamma - 1 + u // (2 * n) for u in units[:len(kinds)]]
    rho = [2 * (gamma - 1) + u // (2 * n) for u in units[len(kinds):]]
    if min(psi + rho, default=0) < 0:
        raise ValueError(f"D{n} ({gamma}; {a}, {b}, {periods}) has no analytic character")
    return {"n": n, "psi": psi, "rho": {str(h): m for h, m in enumerate(rho, start=1)}}


def decomposition(n: int, gamma: int, a: int, b: int, periods) -> list[tuple]:
    """Group-algebra decomposition of JS as (kind, q, dim, mult), zero
    factors dropped, in the order J, B2, B3, B4, B(q) by q: the degree-one
    characters give factors of their multiplicity, and the Galois orbit of
    rho^(n/q) (phi(q)/2 members) gives B(q) with multiplicity 2."""
    V = analytic_character(n, gamma, a, b, periods)
    out = [("J", None, V["psi"][0], 1), ("B2", None, V["psi"][1], 1)]
    if n % 2 == 0:
        out += [("B3", None, V["psi"][2], 1), ("B4", None, V["psi"][3], 1)]
    for q in range(3, n + 1):
        if n % q == 0:
            out.append(("Bq", q, phi(q) // 2 * V["rho"][str(n // q)], 2))
    return [f for f in out if f[2]]


def factors_of_json(decomposition_json: dict) -> list[tuple]:
    return [
        (f["kind"], f.get("q"), f["dim"], f["mult"])
        for f in decomposition_json["factors"]
    ]


def decomposition_problems(n: int, gamma: int, a: int, b: int, periods, factors) -> list[str]:
    """Compare program factors (kind, q, dim, mult) with the Chevalley-Weil
    decomposition and their total dimension with the Riemann-Hurwitz genus."""
    problems = []
    expected = decomposition(n, gamma, a, b, periods)
    if list(factors) != expected:
        problems.append(f"factors {list(factors)} != {expected}")
    genus = rh_genus(n, gamma, a, b, periods)
    total = sum(dim * mult for _, _, dim, mult in factors)
    if total != genus:
        problems.append(f"factor dimensions sum to {total}, genus is {genus}")
    return problems


# ---------------------------------------------------------------------------
# subgroups and quotient genera


def subgroup_elements(n: int, name: str) -> frozenset:
    """H(k) = <s, r^(n/k)>, K(k) = <s*r, r^(n/k)>, C(k) = <r^(n/k)>."""
    family, k = name[0], int(name[2:-1])
    if name[1] != "(" or name[-1] != ")" or family not in "HKC" or n % k:
        raise ValueError(f"not a subgroup of D{n}: {name!r}")
    gens = [(0, n // k)]
    if family == "H":
        gens.append((1, 0))
    elif family == "K":
        gens.append((1, 1))
    return frozenset(generated(n, gens))


def conjugacy_classes(n: int) -> list[str]:
    """One name per conjugacy class of subgroups: C(d) and H(d) for every
    d | n, and K(d) when n/d is even and d < n (otherwise K(d) is conjugate
    to H(d))."""
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            out += [f"C({d})", f"H({d})"]
            if (n // d) % 2 == 0 and d < n:
                out.append(f"K({d})")
    return out


def contains_up_to_conjugacy(n: int, big: frozenset, small: frozenset) -> bool:
    for g in generated(n, [(0, 1), (1, 0)]):
        gi = inverse(n, g)
        if all(mul(n, mul(n, g, x), gi) in big for x in small):
            return True
    return False


def quotient_genus(n: int, gamma: int, a: int, b: int, periods, sub: frozenset) -> int:
    """Genus of S/H by Riemann-Hurwitz for S/H -> S/G: a branch point with
    generator c has one preimage per cycle of c on the right cosets Hg."""
    coset_of = {}
    cosets = 0
    for g in sorted(generated(n, [(0, 1), (1, 0)])):
        if g in coset_of:
            continue
        for h in sub:
            coset_of[mul(n, h, g)] = cosets
        cosets += 1
    reps = {}
    for g, cid in coset_of.items():
        reps.setdefault(cid, g)
    euler = cosets * (2 * gamma - 2)
    for c in branch_generators(n, a, b, periods):
        step = {cid: coset_of[mul(n, g, c)] for cid, g in reps.items()}
        seen, cycles = set(), 0
        for start in step:
            if start in seen:
                continue
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = step[x]
        euler += cosets - cycles
    if euler % 2:
        raise ValueError("odd Euler characteristic for a quotient")
    return euler // 2 + 1


# ---------------------------------------------------------------------------
# ske counts and classification rows


def ske_count_problems(n: int, count: int) -> list[str]:
    if count % aut_order(n):
        return [f"{count} skes for D{n} is not a multiple of |Aut(D{n})| = {aut_order(n)}"]
    return []


def row_problems(row: dict, k: int) -> list[str]:
    """A classification row (library JSON layout): every factor has
    dimension k, and the factors are the Chevalley-Weil decomposition of
    the row's signature, summing to its genus."""
    gs = row["geosig"]
    factors = factors_of_json(row["decomposition"])
    problems = [f"factor {f} has dimension {f[2]}, not {k}" for f in factors if f[2] != k]
    genus = rh_genus(gs["n"], gs["gamma"], gs["a"], gs["b"], gs["periods"])
    if row["genus"] != genus:
        problems.append(f"row genus {row['genus']} != Riemann-Hurwitz {genus}")
    problems += decomposition_problems(
        gs["n"], gs["gamma"], gs["a"], gs["b"], gs["periods"], factors
    )
    return problems


def lines_problems(got: list[str], expected: list[str], what: str) -> list[str]:
    if got == expected:
        return []
    for i, (x, y) in enumerate(zip(got, expected)):
        if x != y:
            return [f"{what}: row {i + 1} is {x}, expected {y}"]
    return [f"{what}: {len(got)} rows, expected {len(expected)}"]


# ---------------------------------------------------------------------------
# parametric k-decomposition families, restated by hand
#
# Each entry is (n, k, genus, (gamma, a, b, periods), factor kinds): a
# surface with that dihedral signature whose Jacobian splits into factors of
# dimension exactly k.  B-labels are the degree-one factors, integers are the
# B(q) factors (multiplicity 2).  m is the family parameter.


def family_instances() -> list[tuple]:
    rows = []
    for m in (2, 3, 4):
        rows += [
            (3, m, 2 * m, (0, 2, 0, (3,) * (m + 1)), (3,)),
            (3, m, 3 * m, (0, 2 * m + 2, 0, (3,)), ("B2", 3)),
            (4, m, 2 * m, (0, 1, 1, (2,) * m + (4,)), (4,)),
            (4, m, 4 * m, (0, 1, 2 * m + 1, (4,)), ("B2", "B3", 4)),
            (4, m, 4 * m, (0, 2 * m + 1, 1, (4,)), ("B2", "B4", 4)),
            (5, 2 * m, 4 * m, (0, 2, 0, (5,) * (m + 1)), (5,)),
            (6, m, 4 * m, (0, 1, 1, (3,) * m + (6,)), (3, 6)),
            (6, m, 6 * m, (0, 1, 2 * m + 1, (6,)), ("B2", "B3", 3, 6)),
            (6, m, 6 * m, (0, 2 * m + 1, 1, (6,)), ("B2", "B4", 3, 6)),
        ]
    for m in (1, 2, 3, 4):
        rows += [
            # p = 7: B(7) has orbit size 3
            (7, 3 * m, 6 * m, (0, 2, 0, (7,) * (m + 1)), (7,)),
            # p^e = 9
            (9, 3 * m, 6 * m, (0, 2, 0, (3,) * m + (9,)), (9,)),
            # 2^e = 8
            (8, 2 * m, 4 * m, (0, 1, 1, (2,) * m + (8,)), (8,)),
            # 2p = 10
            (10, 2 * m, 8 * m, (0, 1, 1, (5,) * m + (10,)), (5, 10)),
        ]
    rows += [
        (5, 2, 6, (0, 6, 0, ()), ("B2", 5)),
        (15, 4, 8, (0, 2, 0, (3, 5)), (15,)),
        (10, 2, 4, (0, 1, 1, (2, 5)), (10,)),
    ]
    return rows


def family_row(n: int, k: int, genus: int, sig, kinds) -> tuple:
    """The instance as (genus, (gamma, a, b, periods), factors) for
    comparison with a classification row."""
    factors = tuple(
        (kind, None, k, 1) if isinstance(kind, str) else ("Bq", kind, k, 2)
        for kind in kinds
    )
    gamma, a, b, periods = sig
    return (genus, (gamma, a, b, tuple(sorted(periods))), factors)


def row_key(row: dict) -> tuple:
    gs = row["geosig"]
    return (
        row["genus"],
        (gs["gamma"], gs["a"], gs["b"], tuple(gs["periods"])),
        tuple(factors_of_json(row["decomposition"])),
    )
