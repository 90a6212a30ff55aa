"""End-to-end acceptance gate.

Ten cross-module checks over exhaustive corpora, all in exact integer
arithmetic (tolerance zero).  `pytest -v` prints one pass/fail line per
check; each also prints a summary with corpus sizes and elapsed time.

The two expensive corpora are shared module fixtures: the realizable
geometric signatures for n <= 24 up to genus 60, and a full brute-force
ske scan for n in {3,4,5,6,8,10,12} over all plain signatures with
2*gamma + v <= 6 and periods in {2} and the divisors of n.
"""

import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from dihedra.cli import canonical_json
from dihedra.correspondence import (
    AnalyticCharacter,
    analytic_from_geosig,
    geosig_from_analytic,
)
from dihedra.divisors import (
    IntegerFunction,
    divisor_transform,
    divisors,
    inverse_divisor_transform,
)
from dihedra.errors import DihedraError
from dihedra.group import (
    element_from_index,
    irreducible_reps,
    parse_subgroup,
    rho_index_bound,
)
from dihedra.jacobian import (
    classify_complete,
    classify_k_decompositions,
    component_dimensions,
    full_decomposition,
    is_prym_affordable_group,
    prym_decomposition,
    prym_realization,
    q_theta,
    quotient_decomposition,
    quotient_genus,
)
from dihedra.oracle import (
    GeneratingVector,
    chevalley_weil,
    geosig_of_ske,
    scan_skes,
    verify_ske,
)
from dihedra.realizability import (
    enumerate_realizable_geosigs,
    generating_vector,
    irreducible_analytic_cases,
    is_analytic_representation,
    is_realizable,
)
from dihedra.signatures import (
    GeometricSignature,
    PlainSignature,
    parse_geometric_signature,
)

GOLDEN = Path(__file__).parent / "golden"

ORACLE_GROUPS = (3, 4, 5, 6, 8, 10, 12)
ORACLE_BUDGET = 6  # 2*gamma + v
SAMPLE_STRIDE = 2048


def _report(num: int, msg: str) -> None:
    print(f"acceptance {num:02d}: PASS - {msg}")


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def signature_corpus():
    """Realizable geometric signatures, n in 3..24, genus <= 60."""
    t0 = time.perf_counter()
    rows = {n: enumerate_realizable_geosigs(n, 60) for n in range(3, 25)}
    return rows, time.perf_counter() - t0


def _plain_signatures(n: int):
    # 2 is a period for every n: odd n has no order-2 rotation, but its
    # reflections have order 2
    values = sorted({2} | {m for m in divisors(n) if m >= 2})
    for gamma in range(ORACLE_BUDGET // 2 + 1):
        for v in range(ORACLE_BUDGET - 2 * gamma + 1):
            for periods in itertools.combinations_with_replacement(values, v):
                yield PlainSignature(gamma, periods)


def _scan_signature(n: int, sig: PlainSignature, mismatches: list):
    """Scan every ske of (D_n, sig) and check the eigenvalue route against
    the closed multiplicity formulas.

    Both sides of the equality depend on the vector only through gamma and
    the multiset of elliptic entries, so each distinct multiset is fully
    checked once; a strided sample of uncached recomputations guards
    against either side accidentally reading the hyperbolic entries or the
    slot order.  Returns (ske count, sample count, realized geosig set).
    """
    gamma = sig.gamma
    classes: dict[tuple[int, ...], GeometricSignature] = {}
    counts = [0, 0]

    def full_check(hyp_ids, ell_ids):
        vec = GeneratingVector(
            n,
            gamma,
            tuple(element_from_index(n, x) for x in hyp_ids),
            tuple(element_from_index(n, x) for x in ell_ids),
        )
        gs = geosig_of_ske(vec)
        left = chevalley_weil(vec)
        try:
            right = analytic_from_geosig(gs)
        except DihedraError as exc:
            mismatches.append(f"D{n} {vec}: closed formulas rejected {gs}: {exc}")
            return gs
        if left != right:
            mismatches.append(f"D{n} {vec}: {left.pretty()} != {right.pretty()}")
        return gs

    classes_get = classes.get

    def leaf(hyp_ids, ell_ids):
        counts[0] += 1
        key = tuple(sorted(ell_ids))
        gs = classes_get(key)
        if gs is None:
            classes[key] = full_check(hyp_ids, ell_ids)
        elif counts[0] % SAMPLE_STRIDE == 0:
            counts[1] += 1
            if full_check(hyp_ids, ell_ids) != gs:
                mismatches.append(f"D{n} {sig}: geosig drift at class {key}")
        return False

    scan_skes(n, sig, leaf)
    return counts[0], counts[1], set(classes.values())


@pytest.fixture(scope="module")
def oracle_corpus():
    """Full ske scan: realized geosig sets and formula mismatches per
    plain signature, for every group in ORACLE_GROUPS."""
    mismatches: list[str] = []
    realized: dict[tuple, set] = {}
    skes = samples = sigs = 0
    t0 = time.perf_counter()
    for n in ORACLE_GROUPS:
        for sig in _plain_signatures(n):
            count, sample, geosigs = _scan_signature(n, sig, mismatches)
            realized[(n, sig.gamma, sig.periods)] = geosigs
            skes += count
            samples += sample
            sigs += 1
    elapsed = time.perf_counter() - t0
    return {
        "mismatches": mismatches,
        "realized": realized,
        "skes": skes,
        "samples": samples,
        "signatures": sigs,
        "elapsed": elapsed,
    }


def _refinements(n: int, gamma: int, periods: tuple[int, ...]):
    """Geometric signatures whose underlying plain signature is
    (gamma; periods): order-2 entries may stay rotation periods (n even)
    or become reflections of either conjugacy class."""
    twos = periods.count(2)
    rest = tuple(m for m in periods if m != 2)
    for t in range(twos + 1):
        if n % 2 and t < twos:
            continue  # period 2 needs an order-2 rotation, so 2 | n
        remaining = tuple(sorted(rest + (2,) * (twos - t)))
        if n % 2:
            yield GeometricSignature(n, gamma, t, 0, remaining)
        else:
            for a in range(t + 1):
                yield GeometricSignature(n, gamma, a, t - a, remaining)


# ---------------------------------------------------------------------------
# the gate


def test_01_signature_character_bijection(signature_corpus):
    rows, build_dt = signature_corpus
    t0 = time.perf_counter()
    seen = set()
    total = 0
    for n, lst in rows.items():
        for gs in lst:
            V = analytic_from_geosig(gs)
            assert geosig_from_analytic(V) == gs, f"roundtrip broke at {gs}"
            assert is_analytic_representation(V), f"{gs}: character rejected"
            key = (n, V.psi, V.nu)
            assert key not in seen, f"two signatures share the character of {gs}"
            seen.add(key)
            total += 1
    elapsed = build_dt + time.perf_counter() - t0
    assert elapsed < 60.0
    _report(1, f"{total} signatures (n <= 24, g <= 60) round-trip, {elapsed:.1f}s")


def test_02_oracle_matches_closed_formulas(oracle_corpus):
    bad = oracle_corpus["mismatches"]
    assert not bad, "\n".join(bad[:20])
    assert oracle_corpus["elapsed"] < 600.0
    _report(
        2,
        f"{oracle_corpus['skes']} skes over {oracle_corpus['signatures']} plain "
        f"signatures, {oracle_corpus['samples']} strided resamples, "
        f"0 mismatches, {oracle_corpus['elapsed']:.0f}s",
    )


def test_03_realizability_matches_oracle(oracle_corpus):
    realized = oracle_corpus["realized"]
    checked = positives = 0
    for (n, gamma, periods), geosigs in realized.items():
        for gs in _refinements(n, gamma, periods):
            expected = gs in geosigs
            got = bool(is_realizable(gs, allow_low_genus=True))
            assert got == expected, (
                f"{gs}: conditions say {got}, oracle found "
                f"{'a ske' if expected else 'none'}"
            )
            checked += 1
            positives += expected
    _report(3, f"{checked} geometric signatures agree with the oracle "
               f"({positives} realizable)")


def test_04_constructed_vectors_are_sound(signature_corpus):
    rows, _ = signature_corpus
    t0 = time.perf_counter()
    total = 0
    for lst in rows.values():
        for gs in lst:
            vec = generating_vector(gs)
            assert verify_ske(vec, gs.plain()), f"{gs}: vector fails verification"
            assert geosig_of_ske(vec) == gs, f"{gs}: vector realizes wrong classes"
            total += 1
    _report(4, f"{total} constructed vectors verified, "
               f"{time.perf_counter() - t0:.0f}s")


def test_05_complete_decomposition_table():
    lines = []
    for n in range(3, 13):
        for row in classify_complete(n):
            lines.append(canonical_json(row.to_json_dict()))
    golden = (GOLDEN / "complete_decompositions.jsonl").read_text().splitlines()
    assert lines == golden
    counts = Counter(json.loads(line)["n"] for line in lines)
    _report(5, f"complete-decomposition table byte-exact "
               f"({dict(counts)} rows, empty otherwise)")


def _k2_table_lines():
    lines = []
    for n in (3, 4, 5, 6, 8, 10):
        for row in classify_k_decompositions(n, 2, genus_bound=12):
            lines.append(canonical_json(row.to_json_dict()))
    return lines


def _family_instances():
    """The parametric equal-dimension families, instantiated at m <= 4.

    Rows are (n, k, genus, geometric signature, decomposition); instances
    with k < 2 fall under the complete-decomposition table instead.  For
    the prime-parameterized families the smallest admissible constants are
    used: p = 7; p^e = 9; pq = 15; 2^e = 8; 2p = 10.
    """
    GS = GeometricSignature
    rows = []
    for m in range(2, 5):
        rows += [
            (3, m, 2 * m, GS(3, 0, 2, 0, (3,) * (m + 1)), "B(3)^2"),
            (3, m, 3 * m, GS(3, 0, 2 * m + 2, 0, (3,)), "B2 x B(3)^2"),
            (4, m, 2 * m, GS(4, 0, 1, 1, (2,) * m + (4,)), "B(4)^2"),
            (4, m, 4 * m, GS(4, 0, 1, 2 * m + 1, (4,)), "B2 x B3 x B(4)^2"),
            (4, m, 4 * m, GS(4, 0, 2 * m + 1, 1, (4,)), "B2 x B4 x B(4)^2"),
            (5, 2 * m, 4 * m, GS(5, 0, 2, 0, (5,) * (m + 1)), "B(5)^2"),
            (6, m, 4 * m, GS(6, 0, 1, 1, (3,) * m + (6,)), "B(3)^2 x B(6)^2"),
            (6, m, 6 * m, GS(6, 0, 1, 2 * m + 1, (6,)),
             "B2 x B3 x B(3)^2 x B(6)^2"),
            (6, m, 6 * m, GS(6, 0, 2 * m + 1, 1, (6,)),
             "B2 x B4 x B(3)^2 x B(6)^2"),
        ]
    for m in range(1, 5):
        rows += [
            (7, 3 * m, 6 * m, GS(7, 0, 2, 0, (7,) * (m + 1)), "B(7)^2"),
            (9, 3 * m, 6 * m, GS(9, 0, 2, 0, (3,) * m + (9,)), "B(9)^2"),
            (8, 2 * m, 4 * m, GS(8, 0, 1, 1, (2,) * m + (8,)), "B(8)^2"),
            (10, 2 * m, 8 * m, GS(10, 0, 1, 1, (5,) * m + (10,)),
             "B(5)^2 x B(10)^2"),
        ]
    rows += [
        (5, 2, 6, GS(5, 0, 6, 0, ()), "B2 x B(5)^2"),
        (15, 4, 8, GS(15, 0, 2, 0, (3, 5)), "B(15)^2"),
        (10, 2, 4, GS(10, 0, 1, 1, (2, 5)), "B(10)^2"),
    ]
    return rows


def test_06_k_decomposition_table_and_families():
    lines = _k2_table_lines()
    golden = (GOLDEN / "two_decompositions.jsonl").read_text().splitlines()
    assert lines == golden
    instances = _family_instances()
    for n, k, genus, gs, decomposition in instances:
        out = {
            (row.genus, str(row.gs), str(row.decomposition))
            for row in classify_k_decompositions(n, k, genus_bound=genus)
        }
        assert (genus, str(gs), decomposition) in out, (
            f"family row g={genus} {gs} ~ {decomposition} missing from the "
            f"k={k} enumeration"
        )
    _report(6, f"k=2 table byte-exact ({len(lines)} rows); "
               f"{len(instances)} family instances found by the enumerator")


def _is_prime_power(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return n > 1


# for every n <= 60 that is not a prime power: the first realizable signature
# in genus order with an active B(q) that no intermediate cover isolates
_UNAFFORDABLE_FIRST = {
    6: "D6(0; s, sr, 2, 6^2)", 10: "D10(0; s, sr, 2, 10^2)",
    12: "D12(0; s, sr, 4, 6)", 14: "D14(0; s, sr, 2, 14^2)",
    15: "D15(0; 2^2, 15^2)", 18: "D18(0; s, sr, 6, 9)",
    20: "D20(0; s, sr, 4, 10)", 21: "D21(0; 2^2, 21^2)",
    22: "D22(0; s, sr, 2, 22^2)", 24: "D24(0; s, sr, 4, 24)",
    26: "D26(0; s, sr, 2, 26^2)", 28: "D28(0; s, sr, 4, 14)",
    30: "D30(0; s, sr, 2, 15)", 33: "D33(0; 2^2, 33^2)",
    34: "D34(0; s, sr, 2, 34^2)", 35: "D35(0; 2^2, 35^2)",
    36: "D36(0; s, sr, 4, 9)", 38: "D38(0; s, sr, 2, 38^2)",
    39: "D39(0; 2^2, 39^2)", 40: "D40(0; s, sr, 4, 40)",
    42: "D42(0; s, sr, 2, 21)", 44: "D44(0; s, sr, 4, 22)",
    45: "D45(0; 2^2, 9, 15)", 46: "D46(0; s, sr, 2, 46^2)",
    48: "D48(0; s, sr, 4, 48)", 50: "D50(0; s, sr, 10, 25)",
    51: "D51(0; 2^2, 51^2)", 52: "D52(0; s, sr, 4, 26)",
    54: "D54(0; s, sr, 6, 27)", 55: "D55(0; 2^2, 55^2)",
    56: "D56(0; s, sr, 4, 56)", 57: "D57(0; 2^2, 57^2)",
    58: "D58(0; s, sr, 2, 58^2)", 60: "D60(0; s, sr, 2, 60)",
}


def _has_unrealized_factor(gs) -> bool:
    return any(prym_realization(gs, q) is None for q in q_theta(gs))


def test_07_prym_affordability():
    for n in range(3, 201):
        assert bool(is_prym_affordable_group(n)) == _is_prime_power(n), n

    # the theorem checked directly by the witness search, n <= 60
    assert sorted(_UNAFFORDABLE_FIRST) == [
        n for n in range(3, 61) if not _is_prime_power(n)
    ]
    for n, text in _UNAFFORDABLE_FIRST.items():
        genus = parse_geometric_signature(text).genus()
        assert genus <= 4 * n, text
        first = next(
            gs for gs in enumerate_realizable_geosigs(n, genus)
            if _has_unrealized_factor(gs)
        )
        assert str(first) == text, (n, str(first))
    checks = 0
    for n in range(3, 61):
        if not _is_prime_power(n):
            continue
        for gs in enumerate_realizable_geosigs(n, 40):
            assert not _has_unrealized_factor(gs), gs
            checks += len(q_theta(gs))

    gs = GeometricSignature(45, 0, 2, 0, (5, 9))
    assert gs.genus() == 32
    full = full_decomposition(gs)
    assert str(full) == "B(15)^2 x B(45)^2"
    assert full.total_dimension == 32
    dims = component_dimensions(gs)
    assert dims["B(15)"] == 4 and dims["B(45)"] == 12
    assert all(v == 0 for key, v in dims.items() if key not in ("B(15)", "B(45)"))
    assert q_theta(gs) == (15, 45)
    w15 = prym_realization(gs, 15)
    assert (str(w15.sub), str(w15.sup)) == ("H(3)", "H(45)")
    w45 = prym_realization(gs, 45)
    assert (str(w45.sub), str(w45.sup)) == ("H(1)", "H(3)")
    _report(7, "affordable groups = prime powers up to 200; the witness "
               f"search fails on {len(_UNAFFORDABLE_FIRST)} pinned signatures "
               f"and isolates all {checks} active factors of prime-power n <= 60 "
               "up to genus 40; D45 worked example reproduced with both Prym "
               "witnesses")


def _moebius_local(m: int) -> int:
    count = 0
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        p += 1 if p == 2 else 2
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def test_08_divisor_transform_inversion():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    for _ in range(10_000):
        n = rng.randint(1, 2000)
        divs = divisors(n)
        psi = IntegerFunction(n, {q: rng.randint(-9, 9) for q in divs})
        transformed = {q: divisor_transform(psi, q) for q in divs}
        phi = transformed.__getitem__
        for q in divs:
            back = inverse_divisor_transform(phi, q)
            assert back == psi(q)
            moebius_sum = sum(
                _moebius_local(q // d) * transformed[d] for d in divisors(q)
            )
            assert back == moebius_sum
        # and the composition in the other order
        chi = {q: rng.randint(-9, 9) for q in divs}
        inverted = {q: inverse_divisor_transform(chi.__getitem__, q) for q in divs}
        for q in divs:
            assert divisor_transform(inverted.__getitem__, q) == chi[q]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(8, f"10000 random divisor tables invert exactly, {elapsed:.1f}s")


def _subgroup_reps(n: int):
    """One representative per conjugacy class of subgroups: the rotation
    subgroups C(d) plus the dihedral-type H(d)/K(d) for each divisor d."""
    seen, out = set(), []
    for d in divisors(n):
        for family in ("C", "H", "K"):
            sub = parse_subgroup(n, f"{family}({d})")
            key = frozenset(sub.elements())
            if key not in seen:
                seen.add(key)
                out.append(sub)
    return out


def test_09_genus_sum_identities(signature_corpus):
    rows, _ = signature_corpus
    t0 = time.perf_counter()
    total = quotients = pryms = 0
    for n, lst in rows.items():
        subs = _subgroup_reps(n)
        nested = [
            (i, j)
            for i in range(len(subs))
            for j in range(len(subs))
            if i != j and subs[j].contains_subgroup(subs[i])
        ]
        for gs in lst:
            genus = gs.genus()
            assert full_decomposition(gs).total_dimension == genus, gs
            genera = [quotient_genus(gs, sub) for sub in subs]
            for sub, quotient in zip(subs, genera):
                assert (
                    quotient_decomposition(gs, sub).total_dimension == quotient
                ), (gs, str(sub))
                quotients += 1
            for i, j in nested:
                assert (
                    prym_decomposition(gs, subs[i], subs[j]).total_dimension
                    == genera[i] - genera[j]
                ), (gs, str(subs[i]), str(subs[j]))
                pryms += 1
            total += 1
    _report(9, f"{total} signatures: full={total}, quotient={quotients}, "
               f"prym={pryms} identities hold, {time.perf_counter() - t0:.0f}s")


def test_10_irreducible_analytic_cases():
    found = set()
    searched = 0
    for n in range(3, 31):
        psi_len = 4 if n % 2 == 0 else 2
        bound = rho_index_bound(n)
        for psi in itertools.product(range(3), repeat=psi_len):
            if sum(psi) > 2:
                continue
            for pos in range(bound + 1):
                nu = tuple(1 if h == pos else 0 for h in range(1, bound + 1))
                if sum(psi) + 2 * sum(nu) > 2:
                    continue
                V = AnalyticCharacter(n, psi, nu)
                searched += 1
                if not is_analytic_representation(V):
                    continue
                support = [W for W in irreducible_reps(n) if V.mult(W)]
                if len(support) == 1 and V.mult(support[0]) == 1:
                    found.add((n, support[0].kind, support[0].h))
    assert found == {(3, "rho", 1), (4, "rho", 1), (6, "rho", 1)}

    cases = irreducible_analytic_cases()
    assert sorted(n for n, _ in cases) == [3, 4, 6]
    for n, gs in cases:
        assert gs.genus() == 2
        rho1 = next(
            W for W in irreducible_reps(n) if W.kind == "rho" and W.h == 1
        )
        assert analytic_from_geosig(gs) == AnalyticCharacter.of_irrep(rho1)
    _report(10, f"irreducible analytic representations are exactly rho^1 for "
                f"n in (3, 4, 6) (searched {searched} characters, n <= 30)")
