import argparse
import contextlib
import io
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from dihedra.cli import build_parser, canonical_json, main

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
    code, out, _ = run(capsys, "realizable", "D3(0; 2^2, 3^2)", "--json")
    assert code == 0 and out == '{"realizable":true,"reason":"ok"}\n'


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


def test_oracle_streams_each_record_before_building_the_next(monkeypatch):
    """Record k+1 is built only after line k is printed, in both modes, so
    memory does not grow with the number of skes."""
    import dihedra.cli as cli

    build = cli.record_from_ids
    for argv, header in (
        (["oracle", "3", "(0; 2,2,3,3)", "--json"], 0),
        (["oracle", "3", "(0; 2,2,3,3)"], 1),
    ):
        out = io.StringIO()
        lines_at_build = []

        def logged(*args):
            lines_at_build.append(out.getvalue().count("\n"))
            return build(*args)

        monkeypatch.setattr(cli, "record_from_ids", logged)
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert lines_at_build == [header + k for k in range(12)]


def test_oracle_stops_quietly_when_the_reader_closes_stdout():
    with subprocess.Popen(
        [sys.executable, "-m", "dihedra", "oracle", "6", "(0; 2,2,2,2,2)", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        # 960 records, far more than a pipe buffer holds
        assert proc.stdout.readline().startswith(b'{"analytic":')
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


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
    # even n that is not a power of two is searched like any other n
    assert run(capsys, "prym", "D10(2; -)", "--component", "5") == (
        0, "B(5) ~ P(S/H(2) -> S/H(10))\n", "",
    )
    assert run(capsys, "prym", "D10(2; -)", "--component", "5", "--json") == (
        0, '{"q":5,"witness":{"sub":"H(2)","sup":"H(10)"}}\n', "",
    )
    assert run(capsys, "prym", "D12(2; -)", "--component", "12", "--json") == (
        0, '{"q":12,"witness":null}\n', "",
    )


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


def test_classify_kdec_search_stops_at_the_a_priori_genus(capsys, monkeypatch):
    """A k-decomposition for D_n has genus <= 1 + 2nk/phi(n), so a huge
    --genus-bound never reaches the enumerator."""
    import dihedra.jacobian as jacobian

    enumerate_geosigs = jacobian.enumerate_realizable_geosigs
    n, k = 10, 2
    cap = 1 + 2 * n * k // 4  # phi(10) = 4

    def capped(n_, bound, **kwargs):
        if bound > cap:
            raise AssertionError(f"enumerated D{n_} up to genus {bound} > {cap}")
        return enumerate_geosigs(n_, bound, **kwargs)

    monkeypatch.setattr(jacobian, "enumerate_realizable_geosigs", capped)
    argv = ["classify", "kdec", str(n), str(k), "--json", "--genus-bound"]
    code, huge, _ = run(capsys, *argv, "1000000")
    assert code == 0
    assert huge.splitlines() == run(capsys, *argv, "12")[1].splitlines()
    assert len(huge.splitlines()) == 2


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
        ["oracle", "3", "(0; 2,2,3,3)", "--jobs", "2"],
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
    # refused before the first section, so stdout holds only the error line
    assert run(capsys, "selftest", "--oracle-max-n", "13") == (
        2,
        '{"error":"budget","message":"group order 2n = 26 exceeds budget 24"}\n',
        "",
    )
    for n, sig in (("0", "(0; 2, 2)"), ("1", "(0; 2, 2)"), ("-4", "(0; 3, 3)")):
        assert run(capsys, "oracle", n, sig) == (
            2,
            '{"error":"invalid-argument",'
            f'"message":"n must be an integer >= 2, got {n}"}}\n',
            "",
        )
    for argv in (
        ("quotient", "D6(0; s, sr, 2, 3)", "H(0)"),
        ("prym", "D6(0; s, sr, 2, 3)", "C(0)", "H(6)"),
    ):
        assert run(capsys, *argv) == (
            2,
            '{"error":"invalid-argument","message":"alpha = 0 must divide n = 6"}\n',
            "",
        )


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
        (["prym", "D12(2; -)", "--component", "12", "--json"],
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
# docs


def _leaf_parsers(parser, path=()):
    """(verb path, parser) for every parser that runs a verb."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_docs_headings_match_the_parser():
    """Each "### `verb ...`" heading of docs/cli.md names exactly the
    --options of that verb's parser, and every verb has a heading."""
    documented: dict[tuple[str, ...], set[str]] = {}
    text = (ROOT / "docs" / "cli.md").read_text()
    for usage in re.findall(r"^### `([^`]*)`", text, flags=re.M):
        path = tuple(itertools.takewhile(str.isalpha, usage.split()))
        documented.setdefault(path, set()).update(re.findall(r"--[a-z-]+", usage))
    actual = {
        path: {
            opt
            for action in leaf._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        }
        for path, leaf in _leaf_parsers(build_parser())
    }
    assert documented == actual


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dihedra", "analytic", "D3(0; 2^2, 3^2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "rho^1\n"
