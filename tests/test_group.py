import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dihedra import (
    DihedralElement,
    InvalidArgumentError,
    Irrep,
    Subgroup,
    all_elements,
    divisors,
    fixed_dim,
    irreducible_reps,
    n_function,
    parse_element,
    parse_subgroup,
    rational_irrep_of_divisor,
    rho_index_bound,
    subgroup_classes,
    subgroup_from_elements,
)
from dihedra.group import (
    character_inner_product,
    element_index,
    fixed_dim_by_average,
    index_mul,
    irrep_inner_product,
    n_function_table,
    span,
)
from dihedra.oracle import GeneratingVector

small_n = st.integers(min_value=2, max_value=30)


# ---------------------------------------------------------------------------
# elements


@given(small_n)
def test_presentation_relations(n):
    e = DihedralElement.identity(n)
    r = DihedralElement.rotation(n, 1)
    s = DihedralElement.reflection(n, 0)
    rn = e
    for _ in range(n):
        rn = rn * r
    assert rn == e
    assert s * s == e
    sr = s * r
    assert sr * sr == e


def _perm(g):
    # left action on Z/n: rotation by the exponent, then negation if reflecting
    n = g.n
    return tuple(
        (-(i + g.exponent)) % n if g.reflector else (i + g.exponent) % n
        for i in range(n)
    )


@pytest.mark.parametrize("n", range(2, 11))
def test_multiplication_matches_permutation_model(n):
    for a in all_elements(n):
        for b in all_elements(n):
            lhs = _perm(a * b)
            rhs = tuple(_perm(a)[_perm(b)[i]] for i in range(n))
            assert lhs == rhs
            ab = index_mul(n, element_index(a), element_index(b))
            assert ab == element_index(a * b)


@pytest.mark.parametrize("n", range(2, 13))
def test_inverse_and_order(n):
    e = DihedralElement.identity(n)
    for g in all_elements(n):
        assert g * g.inverse() == e
        assert g.inverse() * g == e
        k, power = 1, g
        while not power.is_identity:
            power = power * g
            k += 1
        assert k == g.order()


def test_conjugation():
    # commutator identity [s, r^k] = r^(-2k)
    for n in range(3, 12):
        s = DihedralElement.reflection(n, 0)
        for k in range(n):
            rk = DihedralElement.rotation(n, k)
            assert rk.conjugate_by(s) == rk.inverse()


@pytest.mark.parametrize("n", range(2, 13))
def test_element_str_parse_roundtrip(n):
    for g in all_elements(n):
        assert parse_element(n, str(g)) == g
    assert str(DihedralElement.identity(n)) == "1"


def test_element_validation():
    with pytest.raises(InvalidArgumentError):
        DihedralElement(0, 0, 0)
    with pytest.raises(InvalidArgumentError):
        DihedralElement(1, 0, 0)  # the group layer starts at n = 2
    g = DihedralElement(4, 0, 7)  # exponent reduced mod n
    assert g.exponent == 3


# ---------------------------------------------------------------------------
# subgroups


def _canonical_subgroups(n):
    for alpha in divisors(n):
        yield Subgroup(n, "C", alpha)
        yield Subgroup(n, "H", alpha)
        yield Subgroup(n, "K", alpha)


@pytest.mark.parametrize("n", range(3, 13))
def test_subgroup_elements_are_subgroups(n):
    for S in _canonical_subgroups(n):
        elems = set(S.elements())
        assert len(elems) == S.order
        assert DihedralElement.identity(n) in elems
        assert all(a * b in elems for a in elems for b in elems)


@pytest.mark.parametrize("n", range(3, 13))
def test_containment_matches_conjugate_inclusion(n):
    # the subgroup lattice is taken up to conjugacy: T >= S iff some
    # conjugate of S is elementwise inside T
    subs = list(_canonical_subgroups(n))
    for S in subs:
        conjugates = [
            {x.conjugate_by(g) for x in S.elements()} for g in all_elements(n)
        ]
        for T in subs:
            included = any(c <= set(T.elements()) for c in conjugates)
            assert T.contains_subgroup(S) == included


@pytest.mark.parametrize("n", range(3, 13))
def test_subgroup_normal_form(n):
    for alpha in divisors(n):
        C = Subgroup(n, "C", alpha)
        H = Subgroup(n, "H", alpha)
        K = Subgroup(n, "K", alpha)
        assert subgroup_from_elements(n, C.elements()) == C
        assert subgroup_from_elements(n, H.elements()) == H
        # K is conjugate to H exactly when n/alpha is odd, and the normal
        # form picks the H representative in that case
        expected = H if (n // alpha) % 2 == 1 else K
        assert subgroup_from_elements(n, K.elements()) == expected
    # subgroup_classes lists each normal form exactly once
    classes = list(subgroup_classes(n))
    assert len(set(classes)) == len(classes)
    assert set(classes) == {
        subgroup_from_elements(n, S.elements()) for S in _canonical_subgroups(n)
    }


def test_normal_form_is_conjugacy_invariant():
    n = 12
    for S in _canonical_subgroups(n):
        base = subgroup_from_elements(n, S.elements())
        for g in all_elements(n):
            conj = [x.conjugate_by(g) for x in S.elements()]
            assert subgroup_from_elements(n, conj) == base


def _all_pairs_closure(n, gens):
    """Reference closure: multiply every pair of elements until nothing new
    appears."""
    elems = set(gens) | {DihedralElement.identity(n)}
    while True:
        new = {a * b for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


@pytest.mark.parametrize("n", range(2, 11))
def test_span_and_generates_match_all_pairs_closure(n):
    elements = all_elements(n)
    for k in range(4):
        for gens in itertools.combinations(elements, k):
            closure = {element_index(g) for g in _all_pairs_closure(n, gens)}
            assert span(n, map(element_index, gens)) == closure
            vec = GeneratingVector(n, 0, (), gens)
            assert vec.generates() == (len(closure) == 2 * n)


def test_whole_group():
    G = Subgroup.whole_group(6)
    assert G.is_whole_group
    assert G.order == 12
    assert parse_subgroup(6, "H(6)") == G
    assert parse_subgroup(6, "C(3)") == Subgroup(6, "C", 3)
    with pytest.raises(InvalidArgumentError):
        parse_subgroup(6, "H(4)")  # 4 does not divide 6


# ---------------------------------------------------------------------------
# irreducible representations


@pytest.mark.parametrize("n", range(3, 16))
def test_irrep_inventory(n):
    reps = irreducible_reps(n)
    ones = [V for V in reps if V.degree == 1]
    twos = [V for V in reps if V.degree == 2]
    assert len(ones) == (2 if n % 2 else 4)
    assert len(twos) == rho_index_bound(n)
    assert sum(V.degree**2 for V in reps) == 2 * n


@pytest.mark.parametrize("n", range(3, 11))
def test_character_orthonormality(n):
    reps = irreducible_reps(n)
    for V in reps:
        for W in reps:
            assert irrep_inner_product(V, W) == (1 if V == W else 0)


@pytest.mark.parametrize("n", range(3, 11))
def test_characters_are_class_functions(n):
    for V in irreducible_reps(n):
        for g in all_elements(n):
            for x in all_elements(n):
                assert V.character(g.conjugate_by(x)) == V.character(g)


def test_character_values():
    # psi2 is the sign of the reflection part; rho^h traces to
    # zeta^(hk) + zeta^(-hk) on rotations and 0 on reflections
    n = 5
    psi2 = Irrep(n, "psi2")
    rho2 = Irrep(n, "rho", 2)
    s = DihedralElement.reflection(n, 3)
    r = DihedralElement.rotation(n, 1)
    assert psi2.character(s).as_integer() == -1
    assert psi2.character(r).as_integer() == 1
    assert rho2.character(s).is_zero()
    assert rho2.character(DihedralElement.identity(n)).as_integer() == 2


@pytest.mark.parametrize("n", range(3, 11))
def test_fixed_dim_against_character_average(n):
    for V in irreducible_reps(n):
        for S in _canonical_subgroups(n):
            assert fixed_dim(V, S) == fixed_dim_by_average(V, S)


@pytest.mark.parametrize("n", range(3, 9))
def test_n_function_against_closed_table(n):
    for V in irreducible_reps(n):
        for g in all_elements(n):
            assert n_function(V, g) == n_function_table(V, g)


def test_n_function_values():
    # N(rho^1, r) over D3: eigenvalues zeta, zeta^2 of order 3 give
    # (3-1)/3 + (3-2)/3 = 1
    V = Irrep(3, "rho", 1)
    assert n_function(V, DihedralElement.rotation(3, 1)) == Fraction(1)
    assert n_function(V, DihedralElement.reflection(3, 0)) == Fraction(1, 2)
    assert n_function(V, DihedralElement.identity(3)) == Fraction(0)


@pytest.mark.parametrize("n", [6, 8, 12, 15])
def test_rational_irrep_orbits_partition(n):
    rhos = {V for V in irreducible_reps(n) if V.kind == "rho"}
    seen = set()
    for q in divisors(n):
        if q < 3:
            continue
        orbit = rational_irrep_of_divisor(n, q)
        assert orbit  # q >= 3 always has phi(q)/2 >= 1 members
        assert all(math.gcd(n, V.h) == n // q for V in orbit)
        assert not (orbit & seen)
        seen |= orbit
    assert seen == rhos


def test_mismatched_groups_rejected():
    with pytest.raises(InvalidArgumentError):
        fixed_dim(Irrep(4, "psi1"), Subgroup(6, "C", 3))
    with pytest.raises(InvalidArgumentError):
        n_function_table(Irrep(4, "psi1"), DihedralElement.rotation(6, 1))
