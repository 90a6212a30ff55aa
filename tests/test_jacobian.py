import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dihedra import (
    DihedralElement,
    Factor,
    GeometricSignature,
    InvalidArgumentError,
    IsogenyDecomposition,
    NotRealizableError,
    Subgroup,
    UnsupportedScopeError,
    all_elements,
    classify_complete,
    classify_k_decompositions,
    component_dimensions,
    divisors,
    enumerate_realizable_geosigs,
    full_decomposition,
    is_prym_affordable_group,
    L_function,
    prym_decomposition,
    prym_realization,
    q_theta,
    quotient_decomposition,
    quotient_genus,
)

S3 = GeometricSignature(3, 0, 2, 0, (3, 3))
G45 = GeometricSignature(45, 0, 2, 0, (5, 9))


def _multmap(dec):
    return {(f.kind, f.q): f.mult for f in dec.factors}


# ---------------------------------------------------------------------------
# factors and decompositions as values


def test_factor_validation():
    with pytest.raises(InvalidArgumentError):
        Factor("B5", None, 1, 1)
    with pytest.raises(InvalidArgumentError):
        Factor("J", 3, 1, 1)  # only Bq carries q
    with pytest.raises(InvalidArgumentError):
        Factor("Bq", None, 1, 1)


def test_factor_labels():
    assert str(Factor("J", None, 2, 1)) == "J(S/G)"
    assert str(Factor("Bq", 15, 4, 2)) == "B(15)^2"
    assert Factor("B3", None, 1, 3).label() == "B3"


def test_decomposition_normalizes():
    dec = IsogenyDecomposition(
        6,
        (
            Factor("Bq", 6, 1, 2),
            Factor("B2", None, 1, 1),
            Factor("Bq", 3, 2, 0),  # dropped: mult 0
            Factor("J", None, 0, 1),  # dropped: dim 0
            Factor("Bq", 3, 1, 2),
            Factor("B4", None, 2, 1),
        ),
    )
    assert [f.label() for f in dec.factors] == ["B2", "B4", "B(3)", "B(6)"]
    assert dec.total_dimension == 1 + 2 + 2 + 2
    assert str(dec) == "B2 x B4 x B(3)^2 x B(6)^2"
    assert str(IsogenyDecomposition(6, ())) == "0"


def test_factor_json_carries_q_only_for_bq():
    assert Factor("Bq", 9, 3, 2).to_json_dict() == {
        "kind": "Bq", "dim": 3, "mult": 2, "q": 9,
    }
    assert "q" not in Factor("B2", None, 1, 1).to_json_dict()


# ---------------------------------------------------------------------------
# the worked D_45 example


def test_d45_full_decomposition():
    dec = full_decomposition(G45)
    assert str(dec) == "B(15)^2 x B(45)^2"
    assert dec.total_dimension == 32 == G45.genus()
    assert component_dimensions(G45) == {
        "J": 0, "B2": 0, "B(3)": 0, "B(5)": 0, "B(9)": 0, "B(15)": 4, "B(45)": 12,
    }


def test_d45_prym_witnesses():
    assert q_theta(G45) == (15, 45)
    w15 = prym_realization(G45, 15)
    assert (w15.sub, w15.sup) == (Subgroup(45, "H", 3), Subgroup(45, "H", 45))
    w45 = prym_realization(G45, 45)
    assert (w45.sub, w45.sup) == (Subgroup(45, "H", 1), Subgroup(45, "H", 3))
    with pytest.raises(InvalidArgumentError):
        prym_realization(G45, 5)  # B(5) has dimension zero


# ---------------------------------------------------------------------------
# quotients and Pryms


def test_quotient_genus_of_sigma3():
    values = {
        ("H", 3): 0,  # the whole group: S/G
        ("H", 1): 1,
        ("K", 1): 1,
        ("C", 1): 2,  # trivial subgroup: S itself
        ("C", 3): 0,
    }
    for spec, genus in values.items():
        assert quotient_genus(S3, Subgroup(3, *spec)) == genus


def _coset_walk_genus(gs, H):
    """Reference: Riemann-Hurwitz over S/G with the ramification index
    e = |Sigma| / |H & g Sigma g^-1| of every double coset H g Sigma,
    walked with element arithmetic."""
    n = gs.n
    h_elems = H.elements()
    total = (2 * n) // H.order * (2 * gs.gamma - 2)
    stabilizers = [(Subgroup(n, "H", 1), gs.a), (Subgroup(n, "K", 1), gs.b)]
    stabilizers += [(Subgroup(n, "C", m), gs.periods.count(m)) for m in set(gs.periods)]
    for sigma, count in stabilizers:
        if not count:
            continue
        sigma_elems = sigma.elements()
        covered: set[DihedralElement] = set()
        for g in all_elements(n):
            if g in covered:
                continue
            covered |= {h * g * s for h in h_elems for s in sigma_elems}
            stab = sum(1 for h in h_elems if g.inverse() * h * g in sigma_elems)
            total += count * (len(sigma_elems) // stab - 1)
    assert total % 2 == 0
    return (total + 2) // 2


def _subgroup_classes(n):
    for alpha in divisors(n):
        yield Subgroup(n, "C", alpha)
        yield Subgroup(n, "H", alpha)
        if (n // alpha) % 2 == 0:
            yield Subgroup(n, "K", alpha)


def test_quotient_genus_matches_the_coset_walk():
    cases = [gs for n in range(3, 13) for gs in enumerate_realizable_geosigs(n, 10)]
    cases += [
        GeometricSignature(200, 0, 2, 0, (200, 200)),
        GeometricSignature(201, 0, 2, 0, (3, 67)),
        GeometricSignature(240, 0, 2, 2, (2,)),
    ]
    for gs in cases:
        for H in _subgroup_classes(gs.n):
            assert quotient_genus(gs, H) == _coset_walk_genus(gs, H), (gs, H)


def test_quotient_dimension_matches_quotient_genus():
    # character route (fixed subspaces) vs double-coset Riemann-Hurwitz
    for n in (3, 4, 6):
        for gs in enumerate_realizable_geosigs(n, 8):
            assert full_decomposition(gs).total_dimension == gs.genus()
            specs = [(kind, d) for kind in "CH" for d in divisors(n)]
            if n % 2 == 0:
                specs += [("K", d) for d in divisors(n)]
            for spec in specs:
                H = Subgroup(n, *spec)
                assert (
                    quotient_decomposition(gs, H).total_dimension
                    == quotient_genus(gs, H)
                ), (gs, spec)


def test_prym_dimension_is_the_genus_drop():
    for n in (4, 6):
        for gs in enumerate_realizable_geosigs(n, 8):
            for kind in "CHK":
                for alpha in divisors(n):
                    for beta in divisors(n):
                        if beta == alpha or beta % alpha:
                            continue
                        sub, sup = Subgroup(n, kind, alpha), Subgroup(n, kind, beta)
                        dec = prym_decomposition(gs, sub, sup)
                        assert dec.total_dimension == (
                            quotient_genus(gs, sub) - quotient_genus(gs, sup)
                        ), (gs, kind, alpha, beta)


def test_prym_of_rotation_chain_splits_into_reflection_chains():
    # Prym(C_alpha, C_beta) carries each factor with the sum of its
    # multiplicities in Prym(H_alpha, H_beta) and Prym(K_alpha, K_beta)
    for n in (4, 6, 12):
        for gs in enumerate_realizable_geosigs(n, 8):
            for alpha in divisors(n):
                for beta in divisors(n):
                    if beta == alpha or beta % alpha:
                        continue
                    mc = _multmap(
                        prym_decomposition(gs, Subgroup(n, "C", alpha), Subgroup(n, "C", beta))
                    )
                    mh = _multmap(
                        prym_decomposition(gs, Subgroup(n, "H", alpha), Subgroup(n, "H", beta))
                    )
                    mk = _multmap(
                        prym_decomposition(gs, Subgroup(n, "K", alpha), Subgroup(n, "K", beta))
                    )
                    for key in set(mc) | set(mh) | set(mk):
                        assert mc.get(key, 0) == mh.get(key, 0) + mk.get(key, 0)


def test_prym_requires_strict_containment():
    gs = GeometricSignature(4, 2, 0, 0, ())
    with pytest.raises(InvalidArgumentError):
        prym_decomposition(gs, Subgroup(4, "H", 1), Subgroup(4, "H", 1))
    with pytest.raises(InvalidArgumentError):
        prym_decomposition(gs, Subgroup(4, "H", 1), Subgroup(4, "C", 2))


def test_subgroup_must_match_the_group():
    with pytest.raises(InvalidArgumentError):
        quotient_decomposition(S3, Subgroup(6, "H", 1))
    with pytest.raises(InvalidArgumentError):
        quotient_genus(S3, Subgroup(6, "H", 1))


def test_unrealizable_signatures_are_rejected():
    bad = GeometricSignature(5, 0, 0, 0, (5, 5, 5))
    for call in (
        lambda: full_decomposition(bad),
        lambda: component_dimensions(bad),
        lambda: quotient_genus(bad, Subgroup(5, "H", 1)),
        lambda: q_theta(bad),
    ):
        with pytest.raises(NotRealizableError):
            call()
    low = GeometricSignature(5, 0, 2, 0, (5,))
    with pytest.raises(NotRealizableError):
        full_decomposition(low)
    assert str(full_decomposition(low, allow_low_genus=True)) == "0"


# ---------------------------------------------------------------------------
# the L function and Prym affordability


def test_l_function_known_values():
    assert L_function((15, 45), 15) == 1
    assert L_function((15, 45), 45) == 15
    assert L_function((3, 5, 15), 15) == 15
    assert L_function((4,), 8) == 4
    assert L_function((), 12) == 1
    with pytest.raises(InvalidArgumentError):
        L_function((3,), 0)
    with pytest.raises(InvalidArgumentError):
        L_function((3,), "3")


@given(st.data())
def test_l_function_properties(data):
    n = data.draw(st.integers(min_value=2, max_value=1000))
    universe = divisors(n)
    Q = tuple(data.draw(st.sets(st.sampled_from(universe))))
    q = data.draw(st.sampled_from(universe))
    L = L_function(Q, q)
    proper = [t for t in Q if t != q and q % t == 0]
    assert q % L == 0
    assert all(L % t == 0 for t in proper)
    assert (L == 1) == (max(proper, default=1) == 1)
    d = data.draw(st.sampled_from(universe))
    extended = L_function(Q + (d,), q)
    assert extended % L == 0
    if d != q and q % d == 0:
        assert extended == math.lcm(L, d)
    else:
        assert extended == L


def test_prym_realization_chains():
    gs9 = GeometricSignature(9, 2, 0, 0, ())
    assert q_theta(gs9) == (3, 9)
    assert (lambda w: (w.sub, w.sup))(prym_realization(gs9, 3)) == (
        Subgroup(9, "H", 3), Subgroup(9, "H", 9),
    )
    assert (lambda w: (w.sub, w.sup))(prym_realization(gs9, 9)) == (
        Subgroup(9, "H", 1), Subgroup(9, "H", 3),
    )
    gs8 = GeometricSignature(8, 2, 0, 0, ())
    assert (lambda w: (w.sub, w.sup))(prym_realization(gs8, 4)) == (
        Subgroup(8, "H", 2), Subgroup(8, "H", 4),
    )
    assert (lambda w: (w.sub, w.sup))(prym_realization(gs8, 8)) == (
        Subgroup(8, "H", 1), Subgroup(8, "H", 2),
    )


def test_prym_realization_can_be_impossible():
    # with 3, 5 and 15 all active, no intermediate cover isolates B(15)
    gs15 = GeometricSignature(15, 2, 0, 0, ())
    assert q_theta(gs15) == (3, 5, 15)
    assert prym_realization(gs15, 15) is None
    assert prym_realization(gs15, 3) is not None
    assert prym_realization(gs15, 5) is not None


def test_prym_realization_scope():
    gs10 = GeometricSignature(10, 2, 0, 0, ())
    with pytest.raises(UnsupportedScopeError):
        prym_realization(gs10, 5)
    gs12 = GeometricSignature(12, 2, 0, 0, ())
    with pytest.raises(UnsupportedScopeError):
        prym_realization(gs12, 12)


def test_affordable_groups_are_the_prime_powers():
    for n in range(3, 61):
        factors = {p for p in range(2, n + 1) if n % p == 0 and all(
            p % d for d in range(2, p)
        )}
        assert is_prym_affordable_group(n) == (len(factors) == 1), n
    assert not is_prym_affordable_group(45)
    with pytest.raises(InvalidArgumentError):
        is_prym_affordable_group(2)
    with pytest.raises(InvalidArgumentError):
        is_prym_affordable_group("9")


# ---------------------------------------------------------------------------
# classification


def test_complete_classification_counts():
    assert [len(classify_complete(n)) for n in range(3, 9)] == [4, 9, 0, 14, 0, 0]


def test_complete_classification_rows_are_sound():
    for n in (3, 4, 6):
        rows = classify_complete(n)
        genera = [row.genus for row in rows]
        assert genera == sorted(genera)
        for row in rows:
            assert row.n == n
            assert row.genus == row.gs.genus() == row.decomposition.total_dimension
            assert all(f.dim == 1 for f in row.decomposition.factors)
            assert full_decomposition(row.gs) == row.decomposition


def test_complete_classification_first_row():
    row = classify_complete(3)[0]
    assert row.gs == S3 and row.genus == 2
    assert str(row.decomposition) == "B(3)^2"
    assert row.to_json_dict()["decomposition"] == {
        "n": 3,
        "factors": [{"kind": "Bq", "dim": 1, "mult": 2, "q": 3}],
    }


def test_k_decompositions_for_d5():
    rows = classify_k_decompositions(5, 2, 12)
    assert [(r.genus, str(r.gs), str(r.decomposition)) for r in rows] == [
        (4, "D5(0; 2^2, 5^2)", "B(5)^2"),
        (6, "D5(0; 2^6)", "B2 x B(5)^2"),
    ]
    for row in rows:
        assert all(f.dim == 2 for f in row.decomposition.factors)


def test_k_decompositions_orbit_size_shortcut():
    # B(n) is active at genus >= 2, so k must be a multiple of phi(n)/2
    assert classify_k_decompositions(5, 3, 40) == []
    assert classify_k_decompositions(8, 3, 40) == []


def test_k_decompositions_validation():
    with pytest.raises(InvalidArgumentError):
        classify_k_decompositions(2, 2, 10)
    with pytest.raises(InvalidArgumentError):
        classify_k_decompositions(5, 1, 10)
