"""Command-line surface.

Exit codes: 0 = ran and printed a verdict, 2 = usage error, 3 = bad input
(parse failure, domain error, unreadable file), 4 = internal soundness
failure (a witness failed its own verification, or an internal invariant
did not hold).

Commands:
  classify D1 D2 D3            total-degree triple verdict with certificate
  classify-weighted            weighted triple verdict (vector degrees ok)
  certify-wild                 wildness certificate for explicit components
  witness D1 D2 D3             constructive tame word for a triple
  wstar W1 W2 W3               the staircase invariant of a weight
  frobenius U1 U2              Sylvester's Frobenius number
  search / check / table       search harness entry points
  corollary NAME ARGS...       named corollary instances

The --registry option takes a file of lines 'W1,W2,W3 ; D,E ; BOUND'
(entries are integers or bracketed vectors like [1,0,2]), or the literal
word 'empty' for no bounds at all; the default registry carries the single
built-in bound Delta(4,6) >= 4 at unit weights.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .automorphisms import Endo, TameWord, _verify_realization, _witness_word, mdeg
from .classifier import (
    Certificate,
    DeltaBoundRegistry,
    Excluded,
    Realizable,
    builtin_registry,
    certify_wild,
    classify_total,
    classify_weighted,
    corollary_inputs,
    corollary_names,
    corollary_suite,
    make_realizable,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    DomainError,
    HypothesisViolation,
    PolynomialSyntaxError,
    RankMismatchError,
    SchemaVersionError,
)
from .ordgroup import Weight, frobenius_number, w_star
from .parse import parse_polynomial, parse_vector_list
from .search import (
    SearchConfig,
    consistency_check,
    persist,
    realizability_table,
    run_search,
)

REPORT_SCHEMA = "tamedeg.report/1"

_INPUT_ERRORS = (
    DomainError,
    RankMismatchError,
    PolynomialSyntaxError,
    HypothesisViolation,
    SchemaVersionError,
    BudgetExceededError,
    OSError,
    json.JSONDecodeError,
    ValueError,
)


def _load_registry(spec: Optional[str]) -> DeltaBoundRegistry:
    if spec is None:
        return builtin_registry()
    if spec == "empty":
        return DeltaBoundRegistry.empty()
    with open(spec, "r", encoding="utf-8") as fh:
        return DeltaBoundRegistry.from_lines(fh)


def _verdict_json(result) -> dict:
    if isinstance(result, Certificate):
        return {"verdict": "wild", "certificate": result.to_json()}
    if isinstance(result, Excluded):
        return {"verdict": "excluded", "certificate": result.certificate.to_json()}
    if isinstance(result, Realizable):
        return {
            "verdict": "realizable",
            "multidegree": list(result.multidegree),
            "witness": result.witness.to_json(),
        }
    return {"verdict": "unknown", "failed_conditions": list(result.reasons)}


def _print_certificate(cert: Certificate, out) -> None:
    print(f"theorem: {cert.theorem.value}", file=out)
    print("conditions:", file=out)
    for cond in cert.conditions:
        print(f"  {cond.describe()}", file=out)
    if cert.delta_bounds_used:
        used = ", ".join(u.describe() for u in cert.delta_bounds_used)
        print(f"registry bounds used: {used}", file=out)


def _print_result(result, out) -> None:
    if isinstance(result, Certificate):
        print("verdict: Wild (certified)", file=out)
        _print_certificate(result, out)
    elif isinstance(result, Excluded):
        extra = ""
        if result.certificate.delta_bounds_used:
            extra = " (registry: " + ", ".join(
                u.describe() for u in result.certificate.delta_bounds_used
            ) + ")"
        print(f"verdict: Excluded{extra}", file=out)
        _print_certificate(result.certificate, out)
    elif isinstance(result, Realizable):
        print(f"verdict: Realizable, multidegree {result.multidegree}", file=out)
        # reading result.endo expands the witness and checks it again
        _print_word(result.witness, result.endo, out)
    else:
        print("verdict: Unknown", file=out)
        if result.reasons:
            print(f"uncertified conditions: {', '.join(result.reasons)}", file=out)


def _print_word(word: TameWord, endo: Endo, out) -> None:
    """Print the witness steps and the components of its realization."""
    print(f"word ({len(word)} steps):", file=out)
    if not word.steps:
        print("  (identity)", file=out)
    for i, step in enumerate(word.steps, start=1):
        print(f"  step {i}: {step.render()}", file=out)
    print("realized components:", file=out)
    for i, comp in enumerate(endo.components, start=1):
        print(f"  f{i} = {comp.render()}", file=out)


def _report(args, query: dict, result, started: float) -> int:
    out = sys.stdout
    if getattr(args, "json", False):
        doc = {
            "schema": REPORT_SCHEMA,
            "query": query,
            **_verdict_json(result),
            "timings": {"total_ms": round((time.perf_counter() - started) * 1e3, 3)},
        }
        print(json.dumps(doc, indent=2), file=out)
    else:
        _print_result(result, out)
    return 0


def _cmd_classify(args) -> int:
    started = time.perf_counter()
    registry = _load_registry(args.registry)
    result = classify_total(args.d1, args.d2, args.d3, registry)
    query = {"command": "classify", "degrees": [args.d1, args.d2, args.d3]}
    return _report(args, query, result, started)


def _cmd_classify_weighted(args) -> int:
    started = time.perf_counter()
    registry = _load_registry(args.registry)
    degrees = parse_vector_list(args.deg, rank=args.rank)
    weights = parse_vector_list(args.weight, rank=args.rank)
    if len(degrees) != 3 or len(weights) != 3:
        raise DomainError("need exactly three degrees and three weights")
    if degrees[0].rank != weights[0].rank:
        raise DomainError("degrees and weights must share one rank")
    result = classify_weighted(degrees, Weight(*weights), registry)
    query = {
        "command": "classify-weighted",
        "degrees": [list(d.coords) for d in degrees],
        "weight": [list(w.coords) for w in weights],
    }
    return _report(args, query, result, started)


def _cmd_certify_wild(args) -> int:
    started = time.perf_counter()
    registry = _load_registry(args.registry)
    comps = tuple(
        parse_polynomial(text, nvars=3) for text in (args.f1, args.f2, args.f3)
    )
    endo = Endo(comps)
    weights = parse_vector_list(args.weight)
    if len(weights) != 3:
        raise DomainError("need exactly three weights")
    outcome = certify_wild(endo, Weight(*weights), registry)
    query = {
        "command": "certify-wild",
        "components": [c.render() for c in comps],
        "weight": [list(w.coords) for w in weights],
    }
    return _report(args, query, outcome, started)


def _cmd_witness(args) -> int:
    d1, d2, d3 = sorted((args.d1, args.d2, args.d3))
    word = _witness_word(d1, d2, d3)
    if word is None:
        print(
            f"no witness: {d2} is not a multiple of {d1} and {d3} is not a "
            f"nonnegative combination of {d1} and {d2}"
        )
        return 0
    make_realizable(word, (d1, d2, d3))
    # expand the word and check its multidegree and Jacobian again, from
    # the expansion, independently of make_realizable
    endo, jac = _verify_realization(word, (d1, d2, d3))
    _print_word(word, endo, sys.stdout)
    if args.verify:
        print(f"mdeg verified: {mdeg(endo)}; Jacobian = {jac.render()}")
    return 0


def _cmd_wstar(args) -> int:
    weights = parse_vector_list(",".join(args.w), rank=args.rank)
    if len(weights) != 3:
        raise DomainError("need exactly three weights")
    value = w_star(weights)
    print(value.render())
    return 0


def _cmd_frobenius(args) -> int:
    print(frobenius_number(args.u1, args.u2))
    return 0


def _cmd_search(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = SearchConfig.from_json(json.load(fh))
    registry = _load_registry(args.registry)
    records, stats = run_search(config, registry)
    persist(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    print(
        f"samples {stats.samples_drawn}, emitted {stats.emitted}, "
        f"duplicates {stats.duplicates}, degree-pruned {stats.degree_pruned}, "
        f"budget-skipped {stats.budget_skipped}"
    )
    return 0


def _cmd_check(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = SearchConfig.from_json(json.load(fh))
    registry = _load_registry(args.registry)
    report = consistency_check(config, registry)
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.summary())
    return 0


def _cmd_table(args) -> int:
    registry = _load_registry(args.registry)
    weight = None
    if args.weight:
        weight = parse_vector_list(args.weight)
        if len(weight) != 3:
            raise DomainError("need exactly three weights")
        weight = Weight(*weight)
    table = realizability_table(args.max, weight=weight, registry=registry)
    lines = [
        f"{d1} {d2} {d3} {entry.kind}"
        for (d1, d2, d3), entry in sorted(table.items())
    ]
    body = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body + ("\n" if body else ""))
        print(f"wrote {len(lines)} rows to {args.out}")
    else:
        print(body)
    counts: dict[str, int] = {}
    for entry in table.values():
        counts[entry.kind] = counts.get(entry.kind, 0) + 1
    print("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _cmd_corollary(args) -> int:
    started = time.perf_counter()
    registry = _load_registry(args.registry)
    triple, weight = corollary_inputs(args.name, args.args)
    result = corollary_suite(args.name, args.args, registry)
    query = {
        "command": "corollary",
        "name": args.name,
        "args": [int(a) for a in args.args],
        "triple": list(triple),
    }
    if weight is not None:
        query["weight"] = [list(w.coords) for w in weight.components]
        print(f"triple {triple} under weight ({weight.render()})")
    else:
        print(f"triple {triple}")
    return _report(args, query, result, started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamedeg",
        description="Classify degree triples of tame polynomial automorphisms "
        "in three variables: impossible (with certificate), realizable "
        "(with verified witness), or unknown.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="total-degree triple verdict")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("d3", type=int)
    p.add_argument("--registry", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("classify-weighted", help="weighted triple verdict")
    p.add_argument("--deg", required=True, help="D1,D2,D3 (ints or [a,b,...])")
    p.add_argument("--weight", required=True, help="W1,W2,W3 (ints or [a,b,...])")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--registry", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify_weighted)

    p = sub.add_parser("certify-wild", help="wildness certificate for a map")
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--f3", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--registry", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify_wild)

    p = sub.add_parser("witness", help="constructive tame word for a triple")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("d3", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("wstar", help="staircase invariant of a weight triple")
    p.add_argument("w", nargs=3, help="three entries, ints or [a,b,...]")
    p.add_argument("--rank", type=int, default=None)
    p.set_defaults(func=_cmd_wstar)

    p = sub.add_parser("frobenius", help="Sylvester Frobenius number")
    p.add_argument("u1", type=int)
    p.add_argument("u2", type=int)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("search", help="run a search and persist records")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--registry", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("check", help="search-vs-classifier consistency check")
    p.add_argument("--config", required=True)
    p.add_argument("--registry", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("table", help="realizability table up to a bound")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--registry", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "corollary",
        help=f"named corollary instance ({', '.join(corollary_names())})",
    )
    p.add_argument("name")
    p.add_argument("args", nargs="*", type=int)
    p.add_argument("--registry", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_corollary)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"error: internal soundness failure: {exc}", file=sys.stderr)
        return 4
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
