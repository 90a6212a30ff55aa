"""Command line interface.

Verbs: analytic, geosig, realizable, genvec, oracle, decompose, quotient,
prym, affordable, classify, selftest.  All inputs are command line arguments;
there are no configuration files or environment variables.

Exit codes: 0 on success (including negative answers such as "not
realizable"), 1 on usage errors, 2 on domain errors, which are reported as a
single canonical JSON line {"error": <reason>, "message": <text>}.

JSON output (--json) is canonical: sorted keys, compact separators, one
object per line for list-valued verbs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .correspondence import AnalyticCharacter, analytic_from_geosig, geosig_from_analytic
from .errors import BudgetExceededError, DihedraError, InvalidArgumentError
from .group import parse_subgroup
from .jacobian import (
    classify_complete,
    classify_k_decompositions,
    full_decomposition,
    is_prym_affordable_group,
    prym_decomposition,
    prym_realization,
    quotient_decomposition,
    quotient_genus,
)
from .oracle import (
    DEFAULT_MAX_GROUP_ORDER,
    DEFAULT_MAX_TUPLE_LENGTH,
    enumerate_skes,
    exists_ske_with_geosig,
    record_from_ids,
    scan_skes,
)
from .realizability import generating_vector, is_realizable
from .signatures import (
    GeometricSignature,
    PlainSignature,
    parse_geometric_signature,
    parse_plain_signature,
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_analytic_argument(text: str) -> AnalyticCharacter:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(
            f"analytic character must be JSON like "
            f'{{"n":3,"psi":[0,0],"rho":{{"1":1}}}}: {exc}'
        ) from exc
    return AnalyticCharacter.from_json_dict(data)


# ---------------------------------------------------------------------------
# verb implementations


def _cmd_analytic(args) -> int:
    gs = parse_geometric_signature(args.signature)
    V = analytic_from_geosig(gs)
    print(canonical_json(V.to_json_dict()) if args.json else V.pretty())
    return 0


def _cmd_geosig(args) -> int:
    V = _parse_analytic_argument(args.character)
    gs = geosig_from_analytic(V)
    print(canonical_json(gs.to_json_dict()) if args.json else str(gs))
    return 0


def _cmd_realizable(args) -> int:
    gs = parse_geometric_signature(args.signature)
    res = is_realizable(gs, allow_low_genus=args.allow_low_genus)
    if args.json:
        print(canonical_json({"realizable": res.ok, "reason": res.reason}))
    else:
        print("realizable" if res.ok else f"not realizable: {res.reason}")
    return 0


def _cmd_genvec(args) -> int:
    gs = parse_geometric_signature(args.signature)
    vec = generating_vector(gs, allow_low_genus=args.allow_low_genus)
    print(canonical_json(vec.to_json_dict()) if args.json else str(vec))
    return 0


def _cmd_oracle(args) -> int:
    """Print each ske as the scan finds it, so memory stays flat; human mode
    runs one counting scan first for its header."""
    sig = parse_plain_signature(args.signature)
    n = args.n

    def scan(on_leaf) -> None:
        scan_skes(
            n,
            sig,
            on_leaf,
            max_group_order=args.max_group_order,
            max_tuple_length=args.max_tuple_length,
        )

    def emit(hyp, ell):
        rec = record_from_ids(n, sig.gamma, hyp, ell)
        print(canonical_json(rec.to_json_dict()) if args.json else str(rec.vector))

    if not args.json:
        count = 0

        def tally(hyp, ell):
            nonlocal count
            count += 1

        scan(tally)
        print(f"{count} skes for D{n} {sig}")
    scan(emit)
    return 0


def _cmd_decompose(args) -> int:
    gs = parse_geometric_signature(args.signature)
    dec = full_decomposition(gs, allow_low_genus=args.allow_low_genus)
    if args.json:
        print(canonical_json(dec.to_json_dict()))
    else:
        print(f"JS ~ {dec} (genus {dec.total_dimension})")
    return 0


def _cmd_quotient(args) -> int:
    gs = parse_geometric_signature(args.signature)
    H = parse_subgroup(gs.n, args.subgroup)
    dec = quotient_decomposition(gs, H, allow_low_genus=args.allow_low_genus)
    genus = quotient_genus(gs, H, allow_low_genus=args.allow_low_genus)
    if args.json:
        print(
            canonical_json(
                {
                    "subgroup": str(H),
                    "genus": genus,
                    "decomposition": dec.to_json_dict(),
                }
            )
        )
    else:
        print(f"J(S/{H}) ~ {dec} (genus {genus})")
    return 0


def _cmd_prym(args) -> int:
    gs = parse_geometric_signature(args.signature)
    if args.component is not None:
        if args.subgroups:
            raise _UsageError("pass either two subgroups or --component, not both")
        witness = prym_realization(
            gs, args.component, allow_low_genus=args.allow_low_genus
        )
        if args.json:
            payload = {
                "q": args.component,
                "witness": None
                if witness is None
                else {"sub": str(witness.sub), "sup": str(witness.sup)},
            }
            print(canonical_json(payload))
        elif witness is None:
            print(f"B({args.component}) is not the Prym variety of any "
                  f"intermediate cover")
        else:
            print(f"B({args.component}) ~ P(S/{witness.sub} -> S/{witness.sup})")
        return 0
    if len(args.subgroups) != 2:
        raise _UsageError("prym needs two subgroups H K (H < K) or --component q")
    H = parse_subgroup(gs.n, args.subgroups[0])
    K = parse_subgroup(gs.n, args.subgroups[1])
    dec = prym_decomposition(gs, H, K, allow_low_genus=args.allow_low_genus)
    if args.json:
        print(canonical_json(dec.to_json_dict()))
    else:
        print(f"P(S/{H} -> S/{K}) ~ {dec} (dimension {dec.total_dimension})")
    return 0


def _cmd_affordable(args) -> int:
    affordable = is_prym_affordable_group(args.n)
    if args.json:
        print(canonical_json({"n": args.n, "prym_affordable": affordable}))
    else:
        print(
            f"D{args.n} is {'prym affordable' if affordable else 'not prym affordable'}"
        )
    return 0


def _cmd_classify(args) -> int:
    if args.mode == "complete":
        rows = classify_complete(args.n)
    else:
        rows = classify_k_decompositions(args.n, args.k, args.genus_bound)
    for row in rows:
        if args.json:
            print(canonical_json(row.to_json_dict()))
        else:
            print(f"g={row.genus}  {row.gs}  ~  {row.decomposition}")
    return 0


# ---------------------------------------------------------------------------
# selftest


def _default_golden_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "tests" / "golden"


def _selftest_complete_rows() -> list[str]:
    return [
        canonical_json(row.to_json_dict())
        for n in range(3, 13)
        for row in classify_complete(n)
    ]


def _selftest_two_rows() -> list[str]:
    return [
        canonical_json(row.to_json_dict())
        for n in (3, 4, 5, 6, 8, 10)
        for row in classify_k_decompositions(n, 2, 12)
    ]


def _selftest_ske_rows() -> list[str]:
    records = enumerate_skes(3, PlainSignature(0, (2, 2, 3, 3)))
    return [canonical_json(rec.to_json_dict()) for rec in records]


def _selftest_oracle_corpus(max_n: int) -> tuple[int, int]:
    """(checked, mismatches) for realizability vs direct search."""
    import itertools

    from .divisors import divisors

    checked = mismatches = 0
    for n in range(3, max_n + 1):
        divs = [m for m in divisors(n) if m >= 2]
        for gamma in (0, 1):
            for a in range(0, 5):
                for b in range(0, 5 if n % 2 == 0 else 1):
                    rem = 4 - 2 * gamma - a - b
                    if rem < 0:
                        continue
                    for v in range(rem + 1):
                        for periods in itertools.combinations_with_replacement(
                            divs, v
                        ):
                            gs = GeometricSignature(n, gamma, a, b, periods)
                            predicted = bool(is_realizable(gs, allow_low_genus=True))
                            actual = exists_ske_with_geosig(gs)
                            checked += 1
                            if predicted != actual:
                                mismatches += 1
    return checked, mismatches


def _cmd_selftest(args) -> int:
    # refused before any section runs, not after the whole corpus up to the
    # budget has been scanned
    if 2 * args.oracle_max_n > DEFAULT_MAX_GROUP_ORDER:
        raise BudgetExceededError(
            f"group order 2n = {2 * args.oracle_max_n} exceeds budget "
            f"{DEFAULT_MAX_GROUP_ORDER}"
        )
    golden = Path(args.golden_dir) if args.golden_dir else _default_golden_dir()
    if not golden.is_dir():
        raise DihedraError(
            f"golden directory {golden} not found; pass --golden-dir",
            reason="golden-missing",
        )
    failures = 0
    tables = (
        ("complete-tables", "complete_decompositions.jsonl", _selftest_complete_rows),
        ("two-decompositions", "two_decompositions.jsonl", _selftest_two_rows),
        ("ske-enumeration", "ske_d3_g0_2233.jsonl", _selftest_ske_rows),
    )
    for name, filename, compute in tables:
        path = golden / filename
        if not path.is_file():
            print(f"selftest {name}: MISSING {path}")
            failures += 1
            continue
        expected = path.read_text().splitlines()
        actual = compute()
        if actual == expected:
            print(f"selftest {name}: ok ({len(actual)} rows)")
        else:
            limit = min(len(expected), len(actual))
            idx = next(
                (i for i in range(limit) if expected[i] != actual[i]), limit
            )
            print(f"selftest {name}: MISMATCH at row {idx + 1}")
            print(f"  computed: "
                  f"{actual[idx] if idx < len(actual) else '<missing>'}")
            print(f"  golden:   "
                  f"{expected[idx] if idx < len(expected) else '<missing>'}")
            failures += 1
    checked, mismatches = _selftest_oracle_corpus(args.oracle_max_n)
    if mismatches == 0:
        print(f"selftest oracle-equivalence: ok ({checked} signatures)")
    else:
        print(
            f"selftest oracle-equivalence: MISMATCH "
            f"({mismatches} of {checked} signatures)"
        )
        failures += 1
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(
        prog="dihedra",
        description="Dihedral actions on Riemann surfaces and their "
        "Jacobian decompositions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="canonical JSON output"
    )

    low = _Parser(add_help=False)
    low.add_argument(
        "--allow-low-genus",
        action="store_true",
        help="skip the genus >= 2 gate",
    )

    p = sub.add_parser(
        "analytic",
        parents=[common],
        help="analytic character of a geometric signature",
    )
    p.add_argument("signature", help='e.g. "D3(0; 2^2, 3, 3)"')
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser(
        "geosig",
        parents=[common],
        help="geometric signature of an analytic character",
    )
    p.add_argument("character", help='e.g. \'{"n":3,"psi":[0,0],"rho":{"1":1}}\'')
    p.set_defaults(func=_cmd_geosig)

    p = sub.add_parser(
        "realizable",
        parents=[common, low],
        help="whether a signature is realized by an action",
    )
    p.add_argument("signature")
    p.set_defaults(func=_cmd_realizable)

    p = sub.add_parser(
        "genvec",
        parents=[common, low],
        help="an explicit generating vector for a realizable signature",
    )
    p.add_argument("signature")
    p.set_defaults(func=_cmd_genvec)

    p = sub.add_parser(
        "oracle",
        parents=[common],
        help="enumerate all surface-kernel epimorphisms (bounded search)",
    )
    p.add_argument("n", type=int)
    p.add_argument("signature", help='plain signature, e.g. "(0; 2, 2, 3, 3)"')
    p.add_argument("--max-group-order", type=int, default=DEFAULT_MAX_GROUP_ORDER)
    p.add_argument("--max-tuple-length", type=int, default=DEFAULT_MAX_TUPLE_LENGTH)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "decompose",
        parents=[common, low],
        help="isogeny decomposition of the Jacobian",
    )
    p.add_argument("signature")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "quotient",
        parents=[common, low],
        help="decomposition and genus of an intermediate quotient",
    )
    p.add_argument("signature")
    p.add_argument("subgroup", help="H(k), K(k) or C(k)")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser(
        "prym",
        parents=[common, low],
        help="Prym decomposition of an intermediate cover, or a witness "
        "cover for one factor (--component)",
    )
    p.add_argument("signature")
    p.add_argument("subgroups", nargs="*", help="H K with H < K")
    p.add_argument("--component", type=int, metavar="Q")
    p.set_defaults(func=_cmd_prym)

    p = sub.add_parser(
        "affordable",
        parents=[common],
        help="whether every B(q) factor admits a Prym realization for D_n",
    )
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_affordable)

    # --json lives on the leaf parsers only: a flag on both parent and child
    # would be reset by the child's default
    p = sub.add_parser(
        "classify",
        help="classification tables of decomposable Jacobians",
    )
    csub = p.add_subparsers(dest="mode", required=True, parser_class=_Parser)
    pc = csub.add_parser("complete", parents=[common])
    pc.add_argument("n", type=int)
    pc.set_defaults(func=_cmd_classify)
    pk = csub.add_parser("kdec", parents=[common])
    pk.add_argument("n", type=int)
    pk.add_argument("k", type=int)
    pk.add_argument("--genus-bound", type=int, required=True)
    pk.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "selftest",
        help="recompute the golden tables and the bounded oracle corpus",
    )
    p.add_argument("--golden-dir", help="directory with the golden .jsonl files")
    p.add_argument(
        "--oracle-max-n",
        type=int,
        default=5,
        metavar="N",
        help="extend the oracle-equivalence corpus up to D_N (default 5; "
        "the default search budget covers N <= 12)",
    )
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DihedraError as exc:
        print(canonical_json({"error": exc.reason, "message": str(exc)}))
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`dihedra oracle ... | head`): stop
        # the search quietly; stdout goes to devnull so the exit flush
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
