"""The four benchmark workloads.

``BUILDERS[name](seed, root)`` builds one round of a workload: a list of
``Op``.  ``Op.run`` is the timed call into dihedra; ``Op.check`` runs
afterwards, untimed, and returns a list of problems (empty when the output
is right).  An operation fails when ``run`` raises.

Library functions are always looked up on their module at call time
(``jacobian.quotient_genus``), so the wrappers of a traced run see them.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checker as C
from dihedra import cli, correspondence, group, jacobian, oracle, realizability, signatures


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def divisors_from(n: int) -> list[int]:
    """Divisors of n that are at least 2."""
    return [m for m in range(2, n + 1) if n % m == 0]


# ---------------------------------------------------------------------------
# jacobian-sweep: every realizable signature for n in 3..12 up to genus 16,
# each taken through its full decomposition, the genus and decomposition of
# every intermediate quotient, and every Prym variety of a nested pair.

SWEEP_NS = range(3, 13)
SWEEP_GENUS = 16


@dataclass
class _Lattice:
    names: list[str]
    subgroups: list  # dihedra Subgroup per name
    elements: list[frozenset]  # checker element sets per name
    pairs: list[tuple[int, int]]  # (i, j): names[j] strictly contains names[i]


def _lattice(n: int) -> _Lattice:
    """Conjugacy classes of subgroups and their nested pairs, decided by the
    checker; the library objects are only built for the calls."""
    names = C.conjugacy_classes(n)
    elements = [C.subgroup_elements(n, name) for name in names]
    pairs = [
        (i, j)
        for i in range(len(names))
        for j in range(len(names))
        if len(elements[j]) > len(elements[i])
        and C.contains_up_to_conjugacy(n, elements[j], elements[i])
    ]
    subgroups = [group.parse_subgroup(n, name) for name in names]
    return _Lattice(names, subgroups, elements, pairs)


def _sweep_run(gs, lat: _Lattice):
    full = jacobian.full_decomposition(gs)
    genera = [jacobian.quotient_genus(gs, H) for H in lat.subgroups]
    quotients = [jacobian.quotient_decomposition(gs, H) for H in lat.subgroups]
    pryms = [
        jacobian.prym_decomposition(gs, lat.subgroups[i], lat.subgroups[j])
        for i, j in lat.pairs
    ]
    return full, genera, quotients, pryms


def _sweep_check(gs, lat: _Lattice, result) -> list[str]:
    full, genera, quotients, pryms = result
    n, sig = gs.n, (gs.gamma, gs.a, gs.b, gs.periods)
    factors = [(f.kind, f.q, f.dim, f.mult) for f in full.factors]
    problems = C.decomposition_problems(n, *sig, factors)
    genus = C.rh_genus(n, *sig)
    by_name = dict(zip(lat.names, genera))
    if by_name[f"H({n})"] != gs.gamma:
        problems.append(f"g(S/G) = {by_name[f'H({n})']}, gamma = {gs.gamma}")
    if by_name["C(1)"] != genus:
        problems.append(f"g(S/C(1)) = {by_name['C(1)']}, genus = {genus}")
    for name, elems, g_h, dec in zip(lat.names, lat.elements, genera, quotients):
        if dec.total_dimension != g_h:
            problems.append(f"J(S/{name}) has dimension {dec.total_dimension}, genus {g_h}")
        if g_h != C.quotient_genus(n, *sig, elems):
            problems.append(f"g(S/{name}) = {g_h}, coset count gives "
                            f"{C.quotient_genus(n, *sig, elems)}")
        if 2 * genus - 2 < len(elems) * (2 * g_h - 2):
            problems.append(f"Riemann-Hurwitz inequality fails for S -> S/{name}")
    for (i, j), prym in zip(lat.pairs, pryms):
        if prym.total_dimension != genera[i] - genera[j]:
            problems.append(f"P(S/{lat.names[i]} -> S/{lat.names[j]}) has dimension "
                            f"{prym.total_dimension}, not {genera[i] - genera[j]}")
    return [f"{gs}: {p}" for p in problems]


def build_jacobian_sweep(seed: int, root: Path) -> list[Op]:
    sigs = [
        gs
        for n in SWEEP_NS
        for gs in realizability.enumerate_realizable_geosigs(n, SWEEP_GENUS)
    ]
    random.Random(seed).shuffle(sigs)
    lattices = {n: _lattice(n) for n in SWEEP_NS}
    return [
        Op(str(gs), partial(_sweep_run, gs, lattices[gs.n]),
           partial(_sweep_check, gs, lattices[gs.n]))
        for gs in sigs
    ]


# ---------------------------------------------------------------------------
# oracle-census: scan_skes to the end for every plain signature with
# 2*gamma + v <= 5, n in 3..12 (inside the default budget 2n <= 24).  One
# operation scans every plain signature of one shape (n, gamma, v): half of
# the single signatures take under 0.1 ms, and timings that small moved by a
# quarter with the machine's background load while the sum hardly moved.
# Each distinct elliptic multiset is checked once, and a strided sample of
# the vectors goes through the independent checker.

CENSUS_NS = range(3, 13)
CENSUS_BUDGET = 5
CENSUS_STRIDE = 251  # one vector in this many goes to the checker


def _census_shapes(n: int):
    """(gamma, [plain signatures with v periods]) for every shape."""
    import itertools

    # element orders of D_n: the divisors of n, and 2 for the reflections
    values = sorted(set(divisors_from(n)) | {2})
    for gamma in range(CENSUS_BUDGET // 2 + 1):
        for v in range(CENSUS_BUDGET - 2 * gamma + 1):
            yield gamma, v, [
                signatures.PlainSignature(gamma, periods)
                for periods in itertools.combinations_with_replacement(values, v)
            ]


def _census_scan(n: int, sig, offset: int):
    classes: dict[tuple, tuple] = {}
    samples: list[tuple] = []
    count = 0

    def leaf(hyp, ell):
        nonlocal count
        count += 1
        key = tuple(sorted(ell))
        if key not in classes:
            classes[key] = (hyp, ell)
        if count % CENSUS_STRIDE == offset:
            samples.append((hyp, ell))
        return False

    oracle.scan_skes(n, sig, leaf)
    return count, list(classes.values()), samples


def _census_run(n: int, sigs, offset: int):
    return [_census_scan(n, sig, offset) for sig in sigs]


def _refinements(n: int, gamma: int, periods):
    """Geometric signatures over the plain signature: each entry 2 is a
    rotation period (even n only) or a reflection of either class."""
    twos = periods.count(2)
    rest = tuple(m for m in periods if m != 2)
    for t in range(twos + 1):
        if n % 2 and t < twos:
            continue
        remaining = rest + (2,) * (twos - t)
        for a in ((t,) if n % 2 else range(t + 1)):
            yield signatures.GeometricSignature(n, gamma, a, t - a, remaining)


def _checker_vector(n: int, vector) -> tuple[list, list]:
    hyp = [C.parse_element(n, str(g)) for g in vector.hyperbolic]
    ell = [C.parse_element(n, str(g)) for g in vector.elliptic]
    return hyp, ell


def _census_check_one(n: int, sig, result) -> list[str]:
    count, reps, samples = result
    problems = C.ske_count_problems(n, count)
    realized = set()
    for hyp_ids, ell_ids in reps:
        rec = oracle.record_from_ids(n, sig.gamma, hyp_ids, ell_ids)
        realized.add(rec.geosig)
        closed = correspondence.analytic_from_geosig(rec.geosig)
        if rec.analytic != closed:
            problems.append(f"{rec.vector}: eigenvalue route {rec.analytic} "
                            f"!= closed formulas {closed}")
        _, ell = _checker_vector(n, rec.vector)
        gs = rec.geosig
        if C.split_of(n, ell) != (gs.a, gs.b, gs.periods):
            problems.append(f"{rec.vector}: geosig {gs} != checker split {C.split_of(n, ell)}")
    for hyp_ids, ell_ids in samples:
        rec = oracle.record_from_ids(n, sig.gamma, hyp_ids, ell_ids)
        hyp, ell = _checker_vector(n, rec.vector)
        problems += [f"{rec.vector}: {p}" for p in
                     C.vector_problems(n, sig.gamma, hyp, ell, periods=sig.periods)]
    for gs in _refinements(n, sig.gamma, sig.periods):
        predicted = bool(realizability.is_realizable(gs, allow_low_genus=True))
        if predicted != (gs in realized):
            problems.append(f"{gs}: conditions say {predicted}, scan "
                            f"{'realizes' if gs in realized else 'does not realize'} it")
    return [f"D{n} {sig}: {p}" for p in problems]


def _census_check(n: int, sigs, results) -> list[str]:
    return [p for sig, result in zip(sigs, results) for p in _census_check_one(n, sig, result)]


def build_oracle_census(seed: int, root: Path) -> list[Op]:
    rng = random.Random(seed)
    offset = rng.randrange(CENSUS_STRIDE)
    # The seed orders the n; within one n the shapes keep their order,
    # so the oracle's per-n tables and subgroup memo warm up the same way
    # whatever the seed (the first shape, (0; -), builds the tables).
    ns = list(CENSUS_NS)
    rng.shuffle(ns)
    work = [(n, g, v, sigs) for n in ns for g, v, sigs in _census_shapes(n)]
    return [
        Op(f"D{n} gamma={g} v={v}", partial(_census_run, n, sigs, offset),
           partial(_census_check, n, sigs))
        for n, g, v, sigs in work
    ]


# ---------------------------------------------------------------------------
# kdec-classify: classify_k_decompositions over a grid of (n, k, genus
# bound) and classify_complete for n in 3..12, plus the k = 2 golden range.

# Every classification call below is sized, by its genus bound, to cost
# about 35-60 ms here, so that the median and the 90th percentile fall in a
# dense band of similar calls rather than in a gap between unlike ones.
#
# Cells that hold a parametric family: (n, k values, genus bound), fixed.
KDEC_FAMILY_CELLS = [
    (3, (2, 3, 4), 51),
    (4, (2, 3, 4), 20),
    (5, (2, 4, 6, 8), 91),
    (6, (2, 3, 4), 24),
    (7, (3, 6, 9, 12), 121),
    (8, (2, 4, 6, 8), 33),
    (9, (3, 6, 9, 12), 79),
    (10, (2, 4, 6, 8), 38),
    (15, (4,), 105),
]
# Further (n, genus bound) cells, each called twice with k drawn by the seed
# among the admissible values (multiples of phi(n)/2 up to KDEC_MAX_K).  A
# call enumerates and decomposes every signature up to the bound whatever k
# is, so the seed changes the rows to check but hardly the cost.
KDEC_SEEDED_CELLS = [
    (11, 216), (12, 38), (13, 249), (14, 68), (16, 59), (17, 331), (18, 59),
    (19, 381), (20, 51), (21, 140), (22, 105), (23, 439), (24, 59), (25, 249),
    (26, 121), (27, 187), (28, 91), (30, 68), (32, 105), (33, 216), (34, 140),
    (35, 216), (36, 79), (38, 162), (39, 249), (40, 105), (42, 105), (44, 140),
    (45, 187), (46, 187), (48, 105), (50, 162), (52, 162), (54, 140), (56, 140),
    (60, 105),
]
KDEC_MAX_K = 12
GOLDEN_COMPLETE_NS = range(3, 13)
GOLDEN_TWO_NS = (3, 4, 5, 6, 8, 10)
GOLDEN_TWO_BOUND = 12


def load_transcription(root: Path):
    """The hand-maintained golden rows of tests/golden/transcribe.py (a
    script that imports nothing from the library)."""
    path = root / "tests" / "golden" / "transcribe.py"
    spec = importlib.util.spec_from_file_location("golden_transcribe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_lines(transcription, rows, n: int) -> list[str]:
    block = sorted(
        (r for r in rows if r["n"] == n),
        key=lambda r: (r["genus"], r["gamma"], r["a"], r["b"], r["periods"]),
    )
    return [transcription.row_json(r) for r in block]


class Goldens:
    """Transcribed golden lines, loaded on first use so that set-up time
    covers only the program's own work."""

    def __init__(self, root: Path):
        self.root = root
        self._module = None

    def _transcription(self):
        if self._module is None:
            self._module = load_transcription(self.root)
        return self._module

    def complete(self, n: int) -> list[str]:
        t = self._transcription()
        return golden_lines(t, t.COMPLETE_ROWS, n)

    def two(self, n: int) -> list[str]:
        t = self._transcription()
        return golden_lines(t, t.TWO_DEC_ROWS, n)


def _classify_check(n: int, k: int, bound: int, goldens: Goldens, rows) -> list[str]:
    """k = 1 stands for classify_complete."""
    dicts = [row.to_json_dict() for row in rows]
    problems = []
    for row in dicts:
        problems += C.row_problems(row, k)
    lines = [canonical(row) for row in dicts]
    if k == 1:
        if bool(rows) != (n in (3, 4, 6)):
            problems.append(f"{len(rows)} complete decompositions")
        if n in GOLDEN_COMPLETE_NS:
            problems += C.lines_problems(lines, goldens.complete(n), "complete golden")
    elif k == 2 and bound == GOLDEN_TWO_BOUND and n in GOLDEN_TWO_NS:
        problems += C.lines_problems(lines, goldens.two(n), "k=2 golden")
    found = {C.row_key(row) for row in dicts}
    for fn, fk, fgenus, sig, kinds in C.family_instances():
        if (fn, fk) == (n, k) and fgenus <= bound:
            if C.family_row(fn, fk, fgenus, sig, kinds) not in found:
                problems.append(f"family instance g={fgenus} {sig} {kinds} missing")
    return [f"n={n} k={k} bound={bound}: {p}" for p in problems]


def _kdec(n: int, k: int, bound: int):
    return jacobian.classify_k_decompositions(n, k, bound)


def _complete(n: int):
    return jacobian.classify_complete(n)


def build_kdec_classify(seed: int, root: Path) -> list[Op]:
    rng = random.Random(seed)
    goldens = Goldens(root)
    cells = [(n, k, bound) for n, ks, bound in KDEC_FAMILY_CELLS for k in ks]
    for n, bound in KDEC_SEEDED_CELLS:
        ks = [k for k in range(2, KDEC_MAX_K + 1) if k % (C.phi(n) // 2) == 0]
        cells += [(n, rng.choice(ks), bound) for _ in range(2)]
    ops = [
        Op(f"kdec {n} {k} {bound}", partial(_kdec, n, k, bound),
           partial(_classify_check, n, k, bound, goldens))
        for n, k, bound in cells
    ]
    for n in GOLDEN_TWO_NS:
        ops.append(Op(f"kdec {n} 2 {GOLDEN_TWO_BOUND}",
                      partial(_kdec, n, 2, GOLDEN_TWO_BOUND),
                      partial(_classify_check, n, 2, GOLDEN_TWO_BOUND, goldens)))
    for n in GOLDEN_COMPLETE_NS:
        ops.append(Op(f"complete {n}",
                      partial(_complete, n),
                      partial(_classify_check, n, 1, 0, goldens)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-calls: single in-process `dihedra ... --json` calls, closed loop.


class CliFailed(Exception):
    pass


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliFailed(f"exit {code}: {out.getvalue().strip() or err.getvalue().strip()}")
    return out.getvalue()


def _generates(n: int, elems) -> bool:
    """Whether elems generate D_n: they must hold a reflection s r^f0, and
    the rotations they give, r^e and (s r^f0)(s r^f) = r^(f - f0), must
    generate <r>.  Used to draw inputs quickly; outputs are checked with the
    checker's closure instead."""
    refl = [e for f, e in elems if f]
    if not refl:
        return False
    g = n
    for f, e in elems:
        g = math.gcd(g, e - refl[0] if f else e)
    return g == 1


def random_action(rng: random.Random, n: int, shape: tuple | None = None) -> tuple:
    """A geometric signature (n, gamma, a, b, periods) of genus >= 2 drawn
    with an explicit surface-kernel epimorphism as witness: random entries,
    the last elliptic entry solved from the long relation, kept only if the
    entries generate D_n.  shape = (gamma, v) fixes the tuple's shape;
    otherwise it is drawn too."""
    divs = divisors_from(n)
    while True:
        if shape:
            g, v = shape
        else:
            g = rng.choice((0, 0, 0, 0, 1, 1, 2))
            v = rng.randint(3, 5) if g == 0 else rng.randint(1, 3)
        hyp = [(rng.randrange(2), rng.randrange(n)) for _ in range(2 * g)]
        ell = []
        for _ in range(v - 1):
            if rng.random() < 0.5:
                ell.append((1, rng.randrange(n)))
            else:
                m = rng.choice(divs)
                unit = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
                ell.append((0, (n // m) * unit))
        prod = (0, 0)
        for i in range(g):
            prod = C.mul(n, prod, C.commutator(n, hyp[2 * i], hyp[2 * i + 1]))
        for c in ell:
            prod = C.mul(n, prod, c)
        last = C.inverse(n, prod)
        if last == (0, 0):
            continue
        ell.append(last)
        if not _generates(n, hyp + ell):
            continue
        a, b, periods = C.split_of(n, ell)
        genus = C.rh_genus(n, g, a, b, periods)
        if genus is not None and genus >= 2:
            return (n, g, a, b, periods)


def signature_text(n: int, gamma: int, a: int, b: int, periods) -> str:
    items = []
    if n % 2:
        if a:
            items.append(f"2^{a}")
    else:
        items += [f"s^{a}" if a > 1 else "s"] if a else []
        items += [f"sr^{b}" if b > 1 else "sr"] if b else []
        items = items or ["-"]
    items += [str(m) for m in periods]
    return f"D{n}({gamma}; {', '.join(items)})"


def _json_sig(sig) -> dict:
    n, gamma, a, b, periods = sig
    return {"n": n, "gamma": gamma, "a": a, "b": b, "periods": sorted(periods)}


def _check_analytic(sig, out) -> list[str]:
    got, want = json.loads(out), C.analytic_character(*sig)
    return [] if got == want else [f"analytic {got} != {want}"]


def _check_geosig(sig, out) -> list[str]:
    got = json.loads(out)
    return [] if got == _json_sig(sig) else [f"geosig {got} != input {_json_sig(sig)}"]


def _check_realizable(expected: bool, out) -> list[str]:
    got = json.loads(out)
    ok = got.get("realizable") is expected and (got.get("reason") == "ok") == expected
    return [] if ok else [f"realizable {got}, expected {expected}"]


def _check_decompose(sig, out) -> list[str]:
    return C.decomposition_problems(*sig, C.factors_of_json(json.loads(out)))


def _check_genvec(sig, out) -> list[str]:
    n, gamma, a, b, periods = sig
    vec = json.loads(out)
    hyp = [C.parse_element(n, t) for t in vec["hyperbolic"]]
    ell = [C.parse_element(n, t) for t in vec["elliptic"]]
    return C.vector_problems(n, gamma, hyp, ell, geosig=(a, b, periods))


def _check_quotient(sig, name, out) -> list[str]:
    got = json.loads(out)
    dim = sum(f["dim"] * f["mult"] for f in got["decomposition"]["factors"])
    problems = []
    if got["genus"] != dim:
        problems.append(f"J(S/{name}) has dimension {dim}, genus {got['genus']}")
    coset = C.quotient_genus(*sig, C.subgroup_elements(sig[0], name))
    if got["genus"] != coset:
        problems.append(f"g(S/{name}) = {got['genus']}, coset count gives {coset}")
    return problems


def _check_oracle(n: int, gamma: int, periods, out) -> list[str]:
    records = [json.loads(line) for line in out.splitlines()]
    problems = C.ske_count_problems(n, len(records))
    if not records:
        problems.append("no skes for a signature with a known ske")
    for rec in records:
        vec, gs = rec["vector"], rec["geosig"]
        hyp = [C.parse_element(n, t) for t in vec["hyperbolic"]]
        ell = [C.parse_element(n, t) for t in vec["elliptic"]]
        problems += C.vector_problems(n, gamma, hyp, ell, periods=periods)
        split = C.split_of(n, ell)
        if (gs["a"], gs["b"], tuple(gs["periods"])) != split:
            problems.append(f"record geosig {gs} != checker split {split}")
        if rec["analytic"] != C.analytic_character(n, gamma, *split):
            problems.append(f"record analytic {rec['analytic']} is not Chevalley-Weil")
        if problems:
            break
    return problems


def _check_lines(expected: Callable[[], list[str]], out) -> list[str]:
    return C.lines_problems(out.splitlines(), expected(), "classify golden")


def _check_prym(sig, q: int, out) -> list[str]:
    got = json.loads(out)
    w = got["witness"]
    if w is None:
        return [f"no witness for B({q})"]
    n = sig[0]
    sub, sup = C.subgroup_elements(n, w["sub"]), C.subgroup_elements(n, w["sup"])
    problems = []
    if len(sup) <= len(sub) or not C.contains_up_to_conjugacy(n, sup, sub):
        problems.append(f"{w['sup']} does not strictly contain {w['sub']}")
    dims = {f[1]: f[2] for f in C.decomposition(*sig) if f[0] == "Bq"}
    prym = C.quotient_genus(*sig, sub) - C.quotient_genus(*sig, sup)
    if prym != dims.get(q):
        problems.append(f"g(S/{w['sub']}) - g(S/{w['sup']}) = {prym}, dim B({q}) = {dims.get(q)}")
    return problems


# Prym witnesses on fixed inputs.  The first three are even n that is not a
# power of two, where prym_realization raises unsupported-scope: they count
# as failed operations until that scope hole is closed.
PRYM_CALLS = [
    ((6, 0, 1, 1, (2, 3)), 6),
    ((10, 0, 1, 1, (5, 10)), 5),
    ((12, 0, 1, 1, (3, 4)), 12),
    ((45, 0, 2, 0, (5, 9)), 15),
    ((45, 0, 2, 0, (5, 9)), 45),
    ((8, 0, 1, 1, (2, 8)), 8),
    ((27, 0, 2, 0, (3, 27)), 27),
    ((16, 0, 1, 1, (4, 16)), 16),
]

# (verb, operations per round, n range, shape).  The shape is None for a
# random action, (gamma, v) for a random action of that shape, or CYCLIC for
# Dn(0; 2^2, n, n) (quotients by C(n)), realized by (s, s, r, r^-1).  The
# cheap verbs draw n and the shape widely.  The costly calls, genvec and
# quotient at large n, cost between one and four times as much across
# random actions of one n, so they take the fixed CYCLIC shape and a narrow
# n range; the medium genvec band also holds the 90th percentile.  That way
# neither the cost of a round nor its percentiles depend much on the seed.
CYCLIC = "cyclic"
CLI_PLAN = [
    ("analytic", 30, 3, 400, None),
    ("geosig", 30, 3, 400, None),
    ("realizable", 24, 3, 400, None),
    ("decompose", 24, 3, 400, None),
    ("quotient", 16, 3, 60, None),
    ("genvec", 16, 3, 40, None),
    ("genvec", 24, 56, 64, CYCLIC),
    ("genvec", 4, 116, 120, CYCLIC),
    ("genvec", 2, 236, 240, CYCLIC),
    ("quotient", 4, 200, 210, CYCLIC),
    ("oracle", 6, 3, 8, (0, 4)),
]


def build_cli_calls(seed: int, root: Path) -> list[Op]:
    rng = random.Random(seed)
    goldens = Goldens(root)
    ops = []
    for verb, count, lo, hi, shape in CLI_PLAN:
        for i in range(count):
            n = rng.randint(lo, hi)
            sig = (n, 0, 2, 0, (n, n)) if shape == CYCLIC else random_action(rng, n, shape)
            text = signature_text(*sig)
            if verb == "analytic":
                argv, check = ["analytic", text], partial(_check_analytic, sig)
            elif verb == "geosig":
                argv = ["geosig", canonical(C.analytic_character(*sig))]
                check = partial(_check_geosig, sig)
            elif verb == "realizable":
                # every other call adds one reflection: an odd number of
                # reflections cannot multiply to a rotation, so no action
                positive = i % 2 == 0
                if not positive:
                    _, gamma, a, b, periods = sig
                    text = signature_text(n, gamma, a + 1, b, periods)
                argv, check = ["realizable", text], partial(_check_realizable, positive)
            elif verb == "decompose":
                argv, check = ["decompose", text], partial(_check_decompose, sig)
            elif verb == "genvec":
                argv, check = ["genvec", text], partial(_check_genvec, sig)
            elif verb == "quotient":
                name = f"C({n})" if shape == CYCLIC else rng.choice(C.conjugacy_classes(n))
                argv, check = ["quotient", text, name], partial(_check_quotient, sig, name)
            else:
                _, gamma, a, b, periods = sig
                plain = tuple(sorted((2,) * (a + b) + tuple(periods)))
                plain_text = f"({gamma}; {', '.join(map(str, plain))})"
                argv = ["oracle", str(n), plain_text]
                check = partial(_check_oracle, n, gamma, plain)
            ops.append(Op(" ".join(argv), partial(run_cli, argv + ["--json"]), check))
    for n in (rng.randint(3, 12), rng.randint(3, 12)):
        argv = ["classify", "complete", str(n), "--json"]
        ops.append(Op(" ".join(argv), partial(run_cli, argv),
                      partial(_check_lines, partial(goldens.complete, n))))
    for n in rng.sample(GOLDEN_TWO_NS, 2):
        argv = ["classify", "kdec", str(n), "2", "--genus-bound", str(GOLDEN_TWO_BOUND), "--json"]
        ops.append(Op(" ".join(argv), partial(run_cli, argv),
                      partial(_check_lines, partial(goldens.two, n))))
    for sig, q in PRYM_CALLS:
        argv = ["prym", signature_text(*sig), "--component", str(q), "--json"]
        ops.append(Op(" ".join(argv), partial(run_cli, argv), partial(_check_prym, sig, q)))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "jacobian-sweep": build_jacobian_sweep,
    "oracle-census": build_oracle_census,
    "kdec-classify": build_kdec_classify,
    "cli-calls": build_cli_calls,
}
