"""Tests of the benchmark's own checks: each passes on the program's real
output and reports a failure once that output is changed.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checker as C  # noqa: E402
import workloads as W  # noqa: E402
from dihedra import (  # noqa: E402
    PlainSignature,
    classify_complete,
    classify_k_decompositions,
    enumerate_skes,
    full_decomposition,
    generating_vector,
    parse_geometric_signature,
)


def _vector(text: str):
    gs = parse_geometric_signature(text)
    vec = generating_vector(gs)
    hyp = [C.parse_element(gs.n, str(g)) for g in vec.hyperbolic]
    ell = [C.parse_element(gs.n, str(g)) for g in vec.elliptic]
    return gs, hyp, ell


def test_changed_vector_entry_fails():
    for text in ("D3(0; 2^2, 3, 3)", "D4(1; -, 2)", "D12(0; s, sr, 3, 4)", "D45(0; 2^2, 5, 9)"):
        gs, hyp, ell = _vector(text)
        split = (gs.a, gs.b, gs.periods)
        assert C.vector_problems(gs.n, gs.gamma, hyp, ell, geosig=split) == []
        for i in range(len(ell)):
            f, e = ell[i]
            changed = ell[:i] + [(f, (e + 1) % gs.n)] + ell[i + 1:]
            assert C.vector_problems(gs.n, gs.gamma, hyp, changed, geosig=split), (text, i)


def test_changed_genvec_output_fails():
    sig = (12, 0, 1, 1, (3, 4))
    out = W.run_cli(["genvec", W.signature_text(*sig), "--json"])
    assert W._check_genvec(sig, out) == []
    vec = json.loads(out)
    vec["elliptic"][0] = "r"
    assert W._check_genvec(sig, json.dumps(vec))


def test_ske_count_plus_one_fails():
    records = enumerate_skes(3, PlainSignature(0, (2, 2, 3, 3)))
    assert len(records) == 12
    assert C.ske_count_problems(3, len(records)) == []
    assert C.ske_count_problems(3, len(records) + 1)
    out = W.run_cli(["oracle", "4", "(0; 2, 2, 2, 4)", "--json"])
    assert W._check_oracle(4, 0, (2, 2, 2, 4), out) == []
    lines = out.splitlines()
    assert W._check_oracle(4, 0, (2, 2, 2, 4), "\n".join(lines + lines[:1]))


def test_changed_factor_dimension_fails():
    gs = parse_geometric_signature("D45(0; 2^2, 5, 9)")
    factors = [(f.kind, f.q, f.dim, f.mult) for f in full_decomposition(gs).factors]
    args = (gs.n, gs.gamma, gs.a, gs.b, gs.periods)
    assert C.decomposition_problems(*args, factors) == []
    kind, q, dim, mult = factors[0]
    assert C.decomposition_problems(*args, [(kind, q, dim + 1, mult)] + factors[1:])

    row = classify_k_decompositions(10, 2, 12)[0].to_json_dict()
    assert C.row_problems(row, 2) == []
    row["decomposition"]["factors"][0]["dim"] += 1
    assert C.row_problems(row, 2)


def test_swapped_golden_rows_fail():
    goldens = W.Goldens(ROOT)
    rows = classify_complete(6)
    assert W._classify_check(6, 1, 0, goldens, rows) == []
    swapped = [rows[1], rows[0]] + rows[2:]
    assert W._classify_check(6, 1, 0, goldens, swapped)

    out = W.run_cli(["classify", "kdec", "4", "2", "--genus-bound", "12", "--json"])
    expected = W.Goldens(ROOT).two
    assert W._check_lines(lambda: expected(4), out) == []
    lines = out.splitlines()
    assert W._check_lines(lambda: expected(4), "\n".join([lines[1], lines[0]] + lines[2:]))


def test_missing_family_row_fails():
    goldens = W.Goldens(ROOT)
    rows = classify_k_decompositions(4, 2, 20)
    assert W._classify_check(4, 2, 20, goldens, rows) == []
    assert any("family" in p for p in W._classify_check(4, 2, 20, goldens, rows[1:]))


def test_checker_restatements_are_consistent():
    for n, k, genus, sig, kinds in C.family_instances():
        assert C.rh_genus(n, *sig) == genus
        _, _, factors = C.family_row(n, k, genus, sig, kinds)
        assert list(factors) == C.decomposition(n, *sig)
    assert [C.aut_order(n) for n in (3, 4, 5, 6, 12)] == [6, 8, 20, 12, 48]


def test_rounds_are_seeded_and_large_enough():
    for name, build in W.BUILDERS.items():
        first = [op.label for op in build(7, ROOT)]
        assert len(first) >= 100, name
        assert first == [op.label for op in build(7, ROOT)], name
        assert first != [op.label for op in build(8, ROOT)], name


def test_tracer_counts_nested_calls():
    script = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]
import dihedra, dihedra.cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
from dihedra import jacobian
tracer.active = True
rows = jacobian.classify_complete(6)
tracer.active = False
before = tracer.metrics()
jacobian.classify_complete(6)  # inactive: not counted
m = tracer.metrics()
print(m == before, len(rows), m["jacobian.full_decomposition.self_s"] > 0,
      m["realizability.is_realizable.calls"] - m["signatures.geometric_signature.constructed"],
      m["correspondence.analytic_from_geosig.calls"], m["cli.main.calls"])
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True).stdout.split()
    same, rows, timed, extra, analytic, cli_calls = out
    assert same == "True" and timed == "True" and cli_calls == "0"
    # enumerate_realizable_geosigs asks is_realizable about every candidate
    # it builds, and full_decomposition asks again about each realizable one,
    # reached through the module reference jacobian holds
    assert int(extra) == int(analytic) > int(rows) > 0


def test_benchmark_json_matches_the_metrics_reported():
    import run
    from tracing import LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = {"setup_s": 0.1, "op_s": [0.001 * i for i in range(1, 101)], "peak_rss_mb": 20.0}
    reported = run.end_to_end([fake, fake])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in reported.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS + [
        ("trace.overhead_s", "s")
    ]
    assert [w["name"] for w in spec["workloads"]] == list(W.BUILDERS) == list(run.WORKLOADS)
