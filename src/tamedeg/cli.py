"""Command-line surface.

Exit codes: 0 = ran and printed a verdict, 1 = stdout was closed before the
output was written (as by `| head`), 2 = usage error, 3 = bad input or a
failed file (any DomainError, which covers parse failures, rank
mismatches, violated hypotheses and malformed records; a budget overrun;
a file that is not valid JSON or not UTF-8; any OSError with an errno, so
a file or stream that cannot be opened, read, written or closed, --out
and stdout included), 4 = internal soundness failure (a witness failed its
own verification, or an internal invariant did not hold).  Any other
exception, an OSError without an errno too, is a bug and propagates with
its traceback.

main is the one path of every command: it reads the integer arguments,
starts the --json timer, loads --registry for each command that takes it,
runs the command and, for the verdict commands (classify, classify-weighted,
certify-wild, and corollary under --json), which return their query and
verdict, prints the report.  The other commands print their own output.
Every verdict report, human or --json, is rendered whole before any of it
is written (_emit).

Commands:
  classify D1 D2 D3            total-degree triple verdict with certificate
  classify-weighted            weighted triple verdict (vector degrees ok)
  certify-wild                 wildness certificate for explicit components
  witness D1 D2 D3             constructive tame word for a triple
  wstar W1 W2 W3               the staircase invariant of a weight
  frobenius U1 U2              Sylvester's Frobenius number
  search / check               search harness entry points
  table --max N                realizability table up to a bound
  corollary NAME ARGS...       named corollary instances

The --registry option takes a file of lines 'W1,W2,W3 ; D,E ; BOUND'
(entries are integers or bracketed vectors like [1,0,2]), or the literal
word 'empty' for no bounds at all; the default registry carries the single
built-in bound Delta(4,6) >= 4 at unit weights.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from typing import Optional, Sequence

from . import search  # registered by the package, run only by search and check
from .automorphisms import Endo, TameWord, _verify_realization, mdeg, semigroup_witness
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
    realizability_table,
)
from .errors import BudgetExceededError, ConstructionError, DomainError, _show
from .ordgroup import _render_coords, frobenius_number, w_star
from .parse import _integer, parse_polynomial, parse_vector_list

REPORT_SCHEMA = "tamedeg.report/1"

_INPUT_ERRORS = (
    DomainError,  # every fault of the input: parse, rank, hypothesis, schema
    BudgetExceededError,
    UnicodeDecodeError,  # a config or registry file that is not UTF-8
    # with an errno, a user's file or stdout that cannot be opened, read,
    # written or closed; main re-raises one without, which is a bug
    OSError,
)

# Integer arguments, read by the entry grammar (parse._integer) in main once
# argparse is done: a DomainError from a type= function would become a
# usage error (exit 2) that repeats the whole argument.
_INTEGER_ARGS = ("d1", "d2", "d3", "u1", "u2", "max", "rank", "args")


def _load_registry(spec: Optional[str]) -> DeltaBoundRegistry:
    if spec is None:
        return builtin_registry()
    if spec == "empty":
        return DeltaBoundRegistry()
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
        used = result.certificate.delta_bounds_used
        extra = f" (registry: {', '.join(u.describe() for u in used)})" if used else ""
        print(f"verdict: Excluded{extra}", file=out)
        _print_certificate(result.certificate, out)
    elif isinstance(result, Realizable):
        print(f"verdict: Realizable, multidegree {result.multidegree}", file=out)
        _print_steps(result.witness, out)
    else:
        print("verdict: Unknown", file=out)
        if result.reasons:
            print(f"uncertified conditions: {', '.join(result.reasons)}", file=out)


def _print_steps(word: TameWord, out) -> None:
    print(f"word ({len(word)} steps):", file=out)
    for i, step in enumerate(word.steps, start=1):
        print(f"  step {i}: {step.render()}", file=out)


def _print_components(word: TameWord, multidegree: tuple, out) -> tuple:
    """Expand the word, check it again from the expansion, print its components."""
    endo, jac = _verify_realization(word, multidegree)
    print("realized components:", file=out)
    for i, comp in enumerate(endo.components, start=1):
        print(f"  f{i} = {comp.render()}", file=out)
    return endo, jac


def _emit(too_long: str, write, *args) -> None:
    """Run write(*args, out) into a buffer and print the whole text only
    when it returns, so output that cannot be rendered prints none of
    itself: str() refusing an integer past Python's digit limit, as it may
    inside a certificate's clause text, becomes a DomainError that says
    too_long and the limit.  Any other ValueError is a bug and propagates."""
    out = io.StringIO()
    try:
        write(*args, out)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise DomainError(f"{too_long} Python's limit of "
                          f"{sys.get_int_max_str_digits()} digits") from None
    print(out.getvalue(), end="")


_REPORT_TOO_LONG = "the report has an integer past"


def _write_report(args, query: dict, result, started: float, out) -> None:
    if args.json:
        doc = {
            "schema": REPORT_SCHEMA,
            "query": query,
            **_verdict_json(result),
            "timings": {"total_ms": round((time.perf_counter() - started) * 1e3, 3)},
        }
        import json  # after the timing, which measures the command alone

        print(json.dumps(doc, indent=2), file=out)
    else:
        _print_result(result, out)


# A verdict command maps the parsed arguments to the (query, verdict) main reports.
def _cmd_classify(args) -> tuple:
    result = classify_total(args.d1, args.d2, args.d3, args.registry)
    return {"command": "classify", "degrees": [args.d1, args.d2, args.d3]}, result


def _cmd_classify_weighted(args) -> tuple:
    degrees = parse_vector_list(args.deg, rank=args.rank)
    weights = parse_vector_list(args.weight, rank=args.rank)
    result = classify_weighted(degrees, weights, args.registry)
    query = {
        "command": "classify-weighted",
        "degrees": [list(d.coords) for d in degrees],
        "weight": [list(w.coords) for w in weights],
    }
    return query, result


def _cmd_certify_wild(args) -> tuple:
    comps = tuple(
        parse_polynomial(text, nvars=3) for text in (args.f1, args.f2, args.f3)
    )
    weights = parse_vector_list(args.weight)
    outcome = certify_wild(Endo(comps), weights, args.registry)
    query = {
        "command": "certify-wild",
        "components": [c.render() for c in comps],
        "weight": [list(w.coords) for w in weights],
    }
    return query, outcome


def _cmd_corollary(args) -> Optional[tuple]:
    triple, weight = corollary_inputs(args.name, args.args)
    result = (classify_total(*triple, args.registry) if weight is None
              else classify_weighted(triple, weight, args.registry))
    query = {
        "command": "corollary",
        "name": args.name,
        "args": args.args,
        "triple": list(triple),
    }
    if weight is not None:
        query["weight"] = [list(w.coords) for w in weight.components]
    if args.json:  # the --json report names the triple in its query
        return query, result
    _emit(_REPORT_TOO_LONG, _write_corollary, triple, weight, result)
    return None


def _write_corollary(triple: tuple, weight, result, out) -> None:
    under = f" under weight ({weight.render()})" if weight is not None else ""
    print(f"triple {triple}{under}", file=out)
    _print_result(result, out)
    if isinstance(result, Realizable):  # the corollary report still lists the components
        _print_components(result.witness, result.multidegree, out)


def _cmd_witness(args) -> None:
    d1, d2, d3 = sorted((args.d1, args.d2, args.d3))
    word = semigroup_witness(d1, d2, d3)
    if word is None:
        print(
            f"no witness: {d2} is not a multiple of {d1} and {d3} is not a "
            f"nonnegative combination of {d1} and {d2}"
        )
        return
    _print_steps(word, sys.stdout)
    endo, jac = _print_components(word, (d1, d2, d3), sys.stdout)
    if args.verify:
        print(f"mdeg verified: {mdeg(endo)}; Jacobian = {jac.render()}")


def _cmd_wstar(args) -> None:
    weights = parse_vector_list(",".join(args.w), rank=args.rank)
    _print_answer(w_star(weights).coords)


def _cmd_frobenius(args) -> None:
    _print_answer((frobenius_number(args.u1, args.u2),))


def _print_answer(coords: tuple) -> None:
    """Print coords as a group element renders them; DomainError first when
    str() refuses an entry past Python's digit limit."""
    _emit(f"answer {_show(max(coords, key=abs))} exceeds", _write_coords, coords)


def _write_coords(coords: tuple, out) -> None:
    print(_render_coords(coords), file=out)


def _load_config(path: str) -> search.SearchConfig:
    """The search config in a JSON file; its integers are read as parse
    reads them, so one past Python's digit limit is named by its length."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_integer)
        except (DomainError, json.JSONDecodeError) as exc:
            raise DomainError(f"config: {exc}") from None
    return search.SearchConfig.from_json(data)


def _cmd_search(args) -> None:
    records, stats = search.run_search(_load_config(args.config), args.registry)
    search.persist(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    print(
        f"samples {stats.samples_drawn}, emitted {stats.emitted}, "
        f"duplicates {stats.duplicates}, degree-pruned {stats.degree_pruned}, "
        f"budget-skipped {stats.budget_skipped}"
    )


def _cmd_check(args) -> None:
    report = search.consistency_check(_load_config(args.config), args.registry)
    if args.json:
        import json
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.summary())


def _cmd_table(args) -> None:
    if args.max < 1:
        raise DomainError(f"--max must be at least 1, got {_show(args.max)}")
    weight = parse_vector_list(args.weight) if args.weight is not None else None
    rows = realizability_table(args.max, weight=weight, registry=args.registry)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    counts: dict[str, int] = {}
    try:
        for (d1, d2, d3), entry in rows:
            print(f"{d1} {d2} {d3} {entry.kind}", file=out)
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"wrote {sum(counts.values())} rows to {args.out}")
    print("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamedeg",
        description="Classify degree triples of tame polynomial automorphisms "
        "in three variables: impossible (with certificate), realizable "
        "(with verified witness), or unknown.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="total-degree triple verdict")
    p.add_argument("d1")
    p.add_argument("d2")
    p.add_argument("d3")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("classify-weighted", help="weighted triple verdict")
    p.add_argument("--deg", required=True, help="D1,D2,D3 (ints or [a,b,...])")
    p.add_argument("--weight", required=True, help="W1,W2,W3 (ints or [a,b,...])")
    p.add_argument("--rank", default=None)
    p.set_defaults(func=_cmd_classify_weighted)

    p = sub.add_parser("certify-wild", help="wildness certificate for a map")
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--f3", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_certify_wild)

    p = sub.add_parser("witness", help="constructive tame word for a triple")
    p.add_argument("d1")
    p.add_argument("d2")
    p.add_argument("d3")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("wstar", help="staircase invariant of a weight triple")
    p.add_argument("w", nargs=3, help="three entries, ints or [a,b,...]")
    p.add_argument("--rank", default=None)
    p.set_defaults(func=_cmd_wstar)

    p = sub.add_parser("frobenius", help="Sylvester Frobenius number")
    p.add_argument("u1")
    p.add_argument("u2")
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("search", help="run a search and persist records")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("check", help="search-vs-classifier consistency check")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("table", help="realizability table up to a bound")
    p.add_argument("--max", required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "corollary",
        help=f"named corollary instance ({', '.join(corollary_names())})",
    )
    p.add_argument("name")
    p.add_argument("args", nargs="*")
    p.set_defaults(func=_cmd_corollary)

    # the shared options come last, so each --help lists them after the command's own
    for name, p in sub.choices.items():
        if name not in ("witness", "wstar", "frobenius"):
            p.add_argument("--registry", default=None)
        if name in ("classify", "classify-weighted", "certify-wild", "check", "corollary"):
            p.add_argument("--json", action="store_true")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        for name in _INTEGER_ARGS:
            value = getattr(args, name, None)
            if isinstance(value, list):
                setattr(args, name, [_integer(v) for v in value])
            elif value is not None:
                setattr(args, name, _integer(value))
        started = time.perf_counter()
        if hasattr(args, "registry"):
            args.registry = _load_registry(args.registry)
        verdict = args.func(args)
        if verdict is not None:
            _emit(_REPORT_TOO_LONG, _write_report, args, *verdict, started)
        if sys.stdout is not None:  # None when Python started with no stdout
            sys.stdout.flush()  # so that a closed pipe or a full disk raises here, not at exit
        return 0
    except BrokenPipeError:
        _discard_stdout()
        return 1
    except ConstructionError as exc:
        message, status = f"internal soundness failure: {exc}", 4
    except _INPUT_ERRORS as exc:
        if isinstance(exc, OSError) and exc.errno is None:
            raise
        message, status = str(exc), 3
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself cannot be written, as when it is a full disk
            _discard_stdout()
    print(f"error: {message}", file=sys.stderr)
    return status


def _discard_stdout() -> None:
    """Point stdout at devnull.  A failed flush keeps its bytes in the
    buffer, so Python's flush at exit would write them to the same stream,
    fail again and change the exit status to 120; this is Python's recipe
    for SIGPIPE."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
