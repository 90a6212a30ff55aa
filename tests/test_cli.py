import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from dihedra.cli import canonical_json, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCHEMAS = ROOT / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def registry():
    resources = []
    for path in SCHEMAS.glob("*.json"):
        resource = Resource.from_contents(json.loads(path.read_text()))
        resources.append((path.name, resource))
        resources.append((resource.contents["$id"], resource))
    return Registry().with_resources(resources)


def _validate(registry, schema_name, payload):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    Draft202012Validator(schema, registry=registry).validate(payload)


# ---------------------------------------------------------------------------
# one frozen transcript per verb


def test_analytic(capsys):
    assert run(capsys, "analytic", "D3(0; 2^2, 3^2)") == (0, "rho^1\n", "")
    code, out, _ = run(capsys, "analytic", "D3(0; 2^2, 3^2)", "--json")
    assert code == 0 and out == '{"n":3,"psi":[0,0],"rho":{"1":1}}\n'


def test_geosig(capsys):
    code, out, _ = run(capsys, "geosig", '{"n":3,"psi":[0,0],"rho":{"1":1}}')
    assert code == 0 and out == "D3(0; 2^2, 3^2)\n"
    code, out, _ = run(
        capsys, "geosig", '{"n":3,"psi":[0,0],"rho":{"1":1}}', "--json"
    )
    assert json.loads(out) == {"n": 3, "gamma": 0, "a": 2, "b": 0, "periods": [3, 3]}


def test_realizable(capsys):
    assert run(capsys, "realizable", "D3(0; 2^2, 3^2)") == (0, "realizable\n", "")
    code, out, _ = run(capsys, "realizable", "D5(0; 5^3)")
    assert code == 0 and out == "not realizable: odd.cond2.count\n"
    code, out, _ = run(capsys, "realizable", "D5(0; 5^3)", "--json")
    assert out == '{"realizable":false,"reason":"odd.cond2.count"}\n'


def test_genvec(capsys):
    assert run(capsys, "genvec", "D4(1; -, 2)") == (0, "(s, r; r^2)\n", "")
    code, out, _ = run(capsys, "genvec", "D4(1; -, 2)", "--json")
    assert out == '{"elliptic":["r^2"],"gamma":1,"hyperbolic":["s","r"],"n":4}\n'


def test_oracle_text(capsys):
    code, out, _ = run(capsys, "oracle", "3", "(0; 2, 2, 3, 3)")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "12 skes for D3 (0; 2^2, 3^2)"
    assert lines[1] == "(; s, s, r, r^2)"
    assert len(lines) == 13


def test_oracle_json_matches_golden(capsys):
    code, out, _ = run(capsys, "oracle", "3", "(0; 2,2,3,3)", "--json")
    assert code == 0
    assert out.splitlines() == (
        (GOLDEN / "ske_d3_g0_2233.jsonl").read_text().splitlines()
    )


def test_oracle_jobs_deterministic(capsys):
    _, serial, _ = run(capsys, "oracle", "3", "(0; 2,2,3,3)", "--json")
    code, parallel, _ = run(
        capsys, "oracle", "3", "(0; 2,2,3,3)", "--json", "--jobs", "3"
    )
    assert code == 0 and parallel == serial


def test_oracle_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    """--jobs beyond the core count runs os.cpu_count() shards; an
    in-process executor stands in for the pool, so no process starts."""
    import dihedra.cli as cli

    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    _, serial, _ = run(capsys, "oracle", "3", "(0; 2,2,3,3)", "--json")
    code, clamped, _ = run(
        capsys, "oracle", "3", "(0; 2,2,3,3)", "--json", "--jobs", "1000000"
    )
    assert code == 0 and clamped == serial
    assert workers == [2]


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "D45(0; 2^2, 5, 9)")
    assert code == 0 and out == "JS ~ B(15)^2 x B(45)^2 (genus 32)\n"
    code, out, _ = run(capsys, "decompose", "D45(0; 2^2, 5, 9)", "--json")
    assert out == (
        '{"factors":[{"dim":4,"kind":"Bq","mult":2,"q":15},'
        '{"dim":12,"kind":"Bq","mult":2,"q":45}],"n":45}\n'
    )


def test_quotient(capsys):
    code, out, _ = run(capsys, "quotient", "D3(0; 2^2, 3^2)", "H(1)")
    assert code == 0 and out == "J(S/H(1)) ~ B(3) (genus 1)\n"
    code, out, _ = run(capsys, "quotient", "D3(0; 2^2, 3^2)", "H(1)", "--json")
    assert json.loads(out) == {
        "subgroup": "H(1)",
        "genus": 1,
        "decomposition": {
            "n": 3,
            "factors": [{"kind": "Bq", "q": 3, "dim": 1, "mult": 1}],
        },
    }


def test_prym_cover(capsys):
    code, out, _ = run(capsys, "prym", "D3(0; 2^2, 3^2)", "C(1)", "C(3)")
    assert code == 0 and out == "P(S/C(1) -> S/C(3)) ~ B(3)^2 (dimension 2)\n"


def test_prym_component(capsys):
    code, out, _ = run(capsys, "prym", "D45(0; 2^2, 5, 9)", "--component", "15")
    assert code == 0 and out == "B(15) ~ P(S/H(3) -> S/H(45))\n"
    code, out, _ = run(
        capsys, "prym", "D45(0; 2^2, 5, 9)", "--component", "15", "--json"
    )
    assert out == '{"q":15,"witness":{"sub":"H(3)","sup":"H(45)"}}\n'
    code, out, _ = run(capsys, "prym", "D15(2;)", "--component", "15")
    assert code == 0
    assert out == "B(15) is not the Prym variety of any intermediate cover\n"
    code, out, _ = run(capsys, "prym", "D15(2;)", "--component", "15", "--json")
    assert out == '{"q":15,"witness":null}\n'


def test_affordable(capsys):
    assert run(capsys, "affordable", "45") == (0, "D45 is not prym affordable\n", "")
    assert run(capsys, "affordable", "9") == (0, "D9 is prym affordable\n", "")
    code, out, _ = run(capsys, "affordable", "9", "--json")
    assert out == '{"n":9,"prym_affordable":true}\n'


def test_classify_complete(capsys):
    code, out, _ = run(capsys, "classify", "complete", "3")
    assert code == 0
    assert out.splitlines()[0] == "g=2  D3(0; 2^2, 3^2)  ~  B(3)^2"
    assert len(out.splitlines()) == 4
    golden = [
        line
        for line in (GOLDEN / "complete_decompositions.jsonl").read_text().splitlines()
        if json.loads(line)["n"] == 3
    ]
    code, out, _ = run(capsys, "classify", "complete", "3", "--json")
    assert out.splitlines() == golden


def test_classify_kdec(capsys):
    golden = [
        line
        for line in (GOLDEN / "two_decompositions.jsonl").read_text().splitlines()
        if json.loads(line)["n"] == 5
    ]
    code, out, _ = run(
        capsys, "classify", "kdec", "5", "2", "--genus-bound", "12", "--json"
    )
    assert code == 0 and out.splitlines() == golden


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.splitlines() == [
        "selftest complete-tables: ok (27 rows)",
        "selftest two-decompositions: ok (13 rows)",
        "selftest ske-enumeration: ok (12 rows)",
        "selftest oracle-equivalence: ok (127 signatures)",
    ]


def test_selftest_names_the_first_bad_row(capsys, tmp_path):
    for path in GOLDEN.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "complete_decompositions.jsonl"
    lines = target.read_text().splitlines()
    row = json.loads(lines[1])
    row["genus"] += 1
    lines[1] = canonical_json(row)
    target.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "selftest", "--golden-dir", str(tmp_path))
    assert code == 2
    assert "selftest complete-tables: MISMATCH at row 2" in out
    assert "  computed: " in out and "  golden:   " in out
    assert "selftest two-decompositions: ok (13 rows)" in out


def test_selftest_missing_golden_dir(capsys, tmp_path):
    code, out, _ = run(capsys, "selftest", "--golden-dir", str(tmp_path / "nope"))
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "golden-missing"


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors(capsys):
    for argv in (
        [],
        ["frobnicate"],
        ["prym", "D3(0; 2^2, 3^2)", "H(1)"],
        ["prym", "D3(0; 2^2, 3^2)", "H(1)", "C(1)", "--component", "3"],
        ["classify", "kdec", "5", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ")


def test_domain_errors_are_canonical_json(capsys):
    code, out, _ = run(capsys, "decompose", "D5(0; 2^3, 5)")
    assert code == 2
    assert out == (
        '{"error":"not-realizable",'
        '"message":"D5(0; 2^3, 5) is not realizable: genus.invalid"}\n'
    )
    code, out, _ = run(capsys, "analytic", "D3(0; 2^2)")
    assert code == 2 and json.loads(out)["error"] == "invalid-argument"
    code, out, _ = run(capsys, "realizable", "D3(0 2)")
    assert code == 2 and json.loads(out)["error"] == "syntax"
    code, out, _ = run(capsys, "oracle", "13", "(0; 13, 13)")
    assert code == 2 and json.loads(out)["error"] == "budget"
    code, out, _ = run(capsys, "prym", "D10(2; -)", "--component", "5")
    assert code == 2 and json.loads(out)["error"] == "unsupported-scope"


# ---------------------------------------------------------------------------
# schemas


def test_json_outputs_validate(capsys, registry):
    cases = [
        (["analytic", "D6(0; s, sr, 2, 3)", "--json"], "analytic_character.v1.json"),
        (["geosig", '{"n":3,"psi":[0,0],"rho":{"1":1}}', "--json"],
         "geometric_signature.v1.json"),
        (["realizable", "D5(0; 5^3)", "--json"], "realizability.v1.json"),
        (["genvec", "D4(1; -, 2)", "--json"], "generating_vector.v1.json"),
        (["oracle", "3", "(0; 2,2,3,3)", "--json"], "ske_record.v1.json"),
        (["decompose", "D45(0; 2^2, 5, 9)", "--json"], "decomposition.v1.json"),
        (["quotient", "D3(0; 2^2, 3^2)", "H(1)", "--json"], "quotient.v1.json"),
        (["prym", "D3(0; 2^2, 3^2)", "C(1)", "C(3)", "--json"],
         "decomposition.v1.json"),
        (["prym", "D45(0; 2^2, 5, 9)", "--component", "45", "--json"],
         "prym_witness.v1.json"),
        (["prym", "D15(2; -)", "--component", "15", "--json"],
         "prym_witness.v1.json"),
        (["affordable", "45", "--json"], "affordable.v1.json"),
        (["classify", "complete", "4", "--json"], "classification_row.v1.json"),
        (["classify", "kdec", "5", "2", "--genus-bound", "12", "--json"],
         "classification_row.v1.json"),
        (["decompose", "D5(0; 2^3, 5)"], "error.v1.json"),
    ]
    for argv, schema_name in cases:
        _, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert lines, argv
        for line in lines:
            _validate(registry, schema_name, json.loads(line))


def test_golden_files_validate(registry):
    for filename, schema_name in (
        ("complete_decompositions.jsonl", "classification_row.v1.json"),
        ("two_decompositions.jsonl", "classification_row.v1.json"),
        ("ske_d3_g0_2233.jsonl", "ske_record.v1.json"),
    ):
        for line in (GOLDEN / filename).read_text().splitlines():
            _validate(registry, schema_name, json.loads(line))


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dihedra", "analytic", "D3(0; 2^2, 3^2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "rho^1\n"
