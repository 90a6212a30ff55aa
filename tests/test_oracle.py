import json
from pathlib import Path

import pytest

from dihedra import (
    BudgetExceededError,
    GeneratingVector,
    GeometricSignature,
    InvalidArgumentError,
    PlainSignature,
    analytic_from_geosig,
    chevalley_weil,
    enumerate_skes,
    exists_ske,
    exists_ske_with_geosig,
    geosig_of_ske,
    parse_element,
    scan_skes,
    verify_ske,
)
from dihedra.cli import canonical_json
from dihedra.group import element_from_index, element_index

GOLDEN = Path(__file__).parent / "golden" / "ske_d3_g0_2233.jsonl"

# small, fast corpus exercising gamma > 0, both parities of n, and genus 0
CORPUS = [
    (3, PlainSignature(0, (2, 2, 3, 3))),
    (4, PlainSignature(1, (2,))),
    (4, PlainSignature(0, (2, 2, 2, 2))),
    (5, PlainSignature(0, (2, 2, 5))),
    (6, PlainSignature(0, (2, 2, 2, 3))),
]


def _vec(n, gamma, hyp, ell):
    return GeneratingVector(
        n,
        gamma,
        tuple(parse_element(n, t) for t in hyp),
        tuple(parse_element(n, t) for t in ell),
    )


# ---------------------------------------------------------------------------
# element encoding


def test_element_index_roundtrip():
    for n in (3, 4):
        seen = {element_index(element_from_index(n, idx)) for idx in range(2 * n)}
        assert seen == set(range(2 * n))
    with pytest.raises(InvalidArgumentError):
        element_from_index(3, 6)
    with pytest.raises(InvalidArgumentError):
        element_from_index(3, -1)


# ---------------------------------------------------------------------------
# generating vectors


def test_vector_shape_is_checked():
    with pytest.raises(InvalidArgumentError):
        _vec(3, 1, ("r",), ())  # gamma = 1 needs two hyperbolic entries
    with pytest.raises(InvalidArgumentError):
        GeneratingVector(3, 0, (), (parse_element(4, "r"),))


def test_long_relation_product():
    assert _vec(3, 0, (), ("s", "s", "r", "r^2")).long_relation_product().is_identity
    assert str(_vec(3, 0, (), ("s", "s", "r", "r")).long_relation_product()) == "r^2"
    # commutator block: [r, s] = r^2 in D_3
    assert str(_vec(3, 1, ("r", "s"), ()).long_relation_product()) == "r^2"


def test_generates():
    assert _vec(3, 0, (), ("s", "r")).generates()
    assert not _vec(3, 0, (), ("r", "r^2")).generates()
    assert not _vec(4, 0, (), ("s", "r^2")).generates()  # proper Klein subgroup


def test_vector_str_and_json_roundtrip():
    vec = _vec(4, 1, ("r", "s"), ("s*r^3",))
    assert str(vec) == "(r, s; s*r^3)"
    assert str(_vec(3, 0, (), ("s", "s"))) == "(; s, s)"
    assert GeneratingVector.from_json_dict(vec.to_json_dict()) == vec


def test_vector_from_json_rejects_malformed_input():
    with pytest.raises(InvalidArgumentError):
        GeneratingVector.from_json_dict({"n": 3, "gamma": 0, "elliptic": []})
    with pytest.raises(InvalidArgumentError):
        GeneratingVector.from_json_dict(
            {"n": 3, "gamma": 0, "hyperbolic": [], "elliptic": ["q"]}
        )


# ---------------------------------------------------------------------------
# verification


def test_verify_ske_known_answers():
    sig = PlainSignature(0, (2, 2, 3, 3))
    assert verify_ske(_vec(3, 0, (), ("s", "s", "r", "r^2")), sig)
    assert not verify_ske(_vec(3, 0, (), ("s", "s", "r", "r")), sig)  # relation
    assert not verify_ske(_vec(3, 0, (), ("r", "r^2", "s", "s")), sig)  # slot order
    assert not verify_ske(_vec(3, 0, (), ("s", "s", "1", "1")), sig)  # wrong orders
    with pytest.raises(InvalidArgumentError):
        verify_ske(_vec(3, 0, (), ("s", "s")), sig)


def test_verify_rejects_non_generating_tuples():
    sig = PlainSignature(0, (3, 3, 3))
    vec = _vec(3, 0, (), ("r", "r", "r"))  # relation holds inside <r>
    assert vec.long_relation_product().is_identity
    assert not verify_ske(vec, sig)


def test_geosig_of_ske_splits_reflection_classes():
    assert geosig_of_ske(_vec(4, 0, (), ("s", "s*r", "s*r^2", "s*r^3"))) == (
        GeometricSignature(4, 0, 2, 2, ())
    )
    assert geosig_of_ske(_vec(3, 0, (), ("s", "s*r", "r"))) == (
        GeometricSignature(3, 0, 2, 0, (3,))
    )
    assert geosig_of_ske(_vec(4, 1, ("r", "s"), ("r^2",))) == (
        GeometricSignature(4, 1, 0, 0, (2,))
    )


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_matches_golden_d3():
    records = enumerate_skes(3, PlainSignature(0, (2, 2, 3, 3)))
    computed = [canonical_json(rec.to_json_dict()) for rec in records]
    golden = GOLDEN.read_text().splitlines()
    assert computed == golden
    assert len(records) == 12


def test_enumeration_is_deterministic_and_ordered():
    for n, sig in CORPUS:
        first = enumerate_skes(n, sig)
        second = enumerate_skes(n, sig)
        assert first == second
        keys = [
            tuple(element_index(g) for g in (*rec.vector.hyperbolic, *rec.vector.elliptic))
            for rec in first
        ]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_enumerated_records_verify():
    total = 0
    for n, sig in CORPUS:
        for rec in enumerate_skes(n, sig):
            assert verify_ske(rec.vector, sig)
            assert geosig_of_ske(rec.vector) == rec.geosig
            assert rec.geosig.plain() == sig
            total += 1
    assert total > 50


def test_chevalley_weil_agrees_with_closed_formulas():
    # character route (eigenvalue counts) vs closed multiplicity formulas
    checked = 0
    for n, sig in CORPUS:
        for rec in enumerate_skes(n, sig):
            assert rec.analytic == analytic_from_geosig(rec.geosig)
            checked += 1
    assert checked > 50


def test_chevalley_weil_rejects_non_ske():
    with pytest.raises(InvalidArgumentError, match="not a ske"):
        chevalley_weil(_vec(3, 0, (), ("r",)))


def test_record_json_shape():
    rec = enumerate_skes(3, PlainSignature(0, (2, 2, 3, 3)))[0]
    data = rec.to_json_dict()
    assert set(data) == {"vector", "geosig", "analytic"}
    assert GeneratingVector.from_json_dict(data["vector"]) == rec.vector


# ---------------------------------------------------------------------------
# scan control: early stop, budgets


def test_scan_stops_on_truthy_leaf():
    seen = []

    def stop_after_first(hyp, ell):
        seen.append((hyp, ell))
        return True

    assert scan_skes(3, PlainSignature(0, (2, 2, 3, 3)), stop_after_first)
    assert len(seen) == 1
    assert not scan_skes(3, PlainSignature(0, (2, 2, 3, 3)), lambda h, e: False)


def test_exists_ske():
    assert exists_ske(3, PlainSignature(0, (2, 2, 3, 3)))
    assert not exists_ske(3, PlainSignature(0, (3, 3, 3)))  # rotations only
    assert not exists_ske(3, PlainSignature(0, (2, 2, 2)))


def test_exists_ske_with_geosig_matches_enumeration():
    # the lone elliptic entry is the inverse of a commutator, so it lies in
    # the derived subgroup <r^2>: reflection splits are unreachable here
    sig = PlainSignature(1, (2,))
    reachable = {geosig_of_ske(rec.vector) for rec in enumerate_skes(4, sig)}
    assert reachable == {GeometricSignature(4, 1, 0, 0, (2,))}
    assert exists_ske_with_geosig(GeometricSignature(4, 1, 0, 0, (2,)))
    assert not exists_ske_with_geosig(GeometricSignature(4, 1, 1, 0, ()))
    assert not exists_ske_with_geosig(GeometricSignature(4, 1, 0, 1, ()))
    # same plain signature, distinct class splits, all realized
    quad = PlainSignature(0, (2, 2, 2, 2))
    splits = {geosig_of_ske(rec.vector) for rec in enumerate_skes(4, quad)}
    assert GeometricSignature(4, 0, 2, 2, ()) in splits
    for gs in splits:
        assert exists_ske_with_geosig(gs)


def test_budgets():
    with pytest.raises(BudgetExceededError, match="26"):
        enumerate_skes(13, PlainSignature(0, (13, 13)))
    assert enumerate_skes(13, PlainSignature(0, (13, 13)), max_group_order=26) == []
    with pytest.raises(BudgetExceededError, match="exceeds budget 7"):
        exists_ske(3, PlainSignature(4, ()))
    assert exists_ske(3, PlainSignature(4, ()), max_tuple_length=8)
