import ast
import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedeg import (
    Polynomial,
    PolynomialSyntaxError,
    SearchConfig,
    consistency_check,
    nagata,
    parse_polynomial,
    parse_vector,
    parse_vector_list,
    render,
)
from tamedeg import errors
from tamedeg.cli import main
from tamedeg.errors import DomainError
from oracles import factor_parse_polynomial

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def _process_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cap_memory() -> None:
    """Run in a child before it starts: a table that is held whole, not
    streamed, ends in a MemoryError instead of filling the machine."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_poly(rng, nvars=3):
    p = Polynomial.zero(nvars)
    for _ in range(rng.randint(1, 7)):
        expo = [rng.randint(0, 4) for _ in range(nvars)]
        num = rng.choice([c for c in range(-9, 10) if c != 0])
        den = rng.choice([1, 1, 2, 3, 7])
        from fractions import Fraction

        p = p + Polynomial.monomial(expo, Fraction(num, den))
    return p


_NON_DIGITS = [c for c in string.printable if not c.isdigit()]


@st.composite
def _expressions(draw, depth=2):
    """ASCII text in the expression grammar: rationals, variables in and out
    of range, powers, a leading minus and nested parentheses, at most one
    parenthesized factor per term so that expansions stay small."""

    def factor(parens):
        kind = draw(st.integers(0, 3 if parens else 2))
        if kind == 0:
            base = draw(st.sampled_from(["0", "1", "2", "3", "10", "007"]))
        elif kind == 1:
            num = draw(st.sampled_from(["1", "2", "6"]))
            base = num + "/" + draw(st.sampled_from(["1", "2", "3", "4", "1", "2", "3", "0"]))
        elif kind == 2:
            base = draw(st.sampled_from(["x1", "x2", "x3", "x01", "x1", "x2", "x3", "x4", "x0"]))
        else:
            base = "(" + draw(_expressions(depth - 1)) + ")"
        if draw(st.booleans()):
            base += "^" + draw(st.sampled_from(["0", "1", "2", "3", "03"]))
        return base, kind == 3

    def term():
        factors, parens = [], depth > 0
        for _ in range(draw(st.integers(1, 3))):
            text, nested = factor(parens)
            factors.append(text)
            parens = parens and not nested
        return "*".join(factors)

    text = draw(st.sampled_from(["", "-"])) + term()
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from(["+", "-", " + ", " - "])) + term()
    return text


@st.composite
def _mutated_expressions(draw):
    """Grammar text with a few non-digit ASCII characters inserted or
    deleted, or plain ASCII text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(st.characters(max_codepoint=127), max_size=20))
    text = draw(_expressions())
    edits = st.tuples(st.integers(0, 200), st.sampled_from(_NON_DIGITS + [""]))
    for pos, ch in draw(st.lists(edits, max_size=2)):
        pos %= len(text) + 1
        text = text[:pos] + ch + text[pos:] if ch else text[:pos] + text[pos + 1 :]
    return text


class TestParser:
    def test_nagata_component(self):
        text = "x1 - 2*x2*(x2^2+x1*x3) - x3*(x2^2+x1*x3)^2"
        assert parse_polynomial(text) == nagata().components[0]

    def test_monomial(self):
        assert parse_polynomial("x1^2") == Polynomial.variable(0, 3) ** 2

    def test_no_implicit_multiplication(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("x1 x2")
        assert err.value.position == 3

    def test_rationals_and_parens(self):
        f = parse_polynomial("1/2*(x1 + x2)^2 - 3")
        x1, x2 = Polynomial.variable(0, 3), Polynomial.variable(1, 3)
        from fractions import Fraction

        assert f == Fraction(1, 2) * (x1 + x2) ** 2 - 3

    def test_leading_minus(self):
        x1 = Polynomial.variable(0, 3)
        assert parse_polynomial("-x1 + 1") == -x1 + 1

    def test_errors_are_positioned(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1 +")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x9")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1^(2)")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("(x1")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1^999999", exponent_cap=100)

    def test_needs_a_variable(self):
        with pytest.raises(DomainError, match="at least one variable"):
            parse_polynomial("1", nvars=0)

    @pytest.mark.parametrize("text, char, position", [("x1^²", "²", 3), ("٣*x1", "٣", 0)])
    def test_non_ascii_digits_are_rejected(self, text, char, position):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert err.value.position == position
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"

    @pytest.mark.parametrize(
        "head, tail",
        [("", "*x1"), ("x2 + 3*", "*x1"), ("x1^", ""), ("x2 - x", ""), ("x1 + 2/", "")],
    )
    def test_over_long_numbers_are_positioned_syntax_errors(self, head, tail):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(head + "7" * (limit + 1) + tail)
        position = len(head) - (head[-1:] == "x")
        assert err.value.position == position
        assert str(err.value) == (
            f"{limit + 1}-digit number exceeds Python's limit of {limit} digits"
            f" (at position {position})"
        )

    @pytest.mark.parametrize(
        "digits, shown",
        [("10001", "exponent 10001"), ("9" * 20, "exponent " + "9" * 20),
         ("9" * 21, "21-digit exponent"), ("9" * 4300, "4300-digit exponent")],
    )
    def test_over_cap_exponent_message_is_bounded(self, digits, shown):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("x2 + x1^" + digits)
        assert err.value.position == 8
        assert str(err.value) == f"{shown} exceeds cap 10000 (at position 8)"

    def test_numbers_at_the_digit_limit_parse(self):
        digits = "7" * sys.get_int_max_str_digits()
        assert parse_polynomial(digits + "*x1") == Polynomial.monomial((1, 0, 0), int(digits))

    def test_terms_need_no_polynomial_arithmetic(self, monkeypatch):
        expected = Polynomial(3, {(3, 1, 0): -2, (0, 0, 1): 1})

        def refuse(*args, **kwargs):
            raise AssertionError("polynomial arithmetic on a plain term")

        monkeypatch.setattr("tamedeg.poly.multiply", refuse)
        monkeypatch.setattr("tamedeg.poly.power", refuse)
        assert parse_polynomial("-2*x1^3*x2 + x3") == expected
        with pytest.raises(AssertionError):
            parse_polynomial("(x1 + x2)^2")

    @given(_mutated_expressions(), st.sampled_from([3, 3, 2, 1]), st.sampled_from([10_000, 10_000, 3, 2, 0]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_factorwise_parser(self, text, nvars, cap):
        def outcome(parse):
            try:
                f = parse(text, nvars=nvars, exponent_cap=cap)
            except PolynomialSyntaxError as exc:
                return str(exc), exc.position
            return f.nvars, {m: (c, type(c)) for m, c in f.terms.items()}

        assert outcome(parse_polynomial) == outcome(factor_parse_polynomial)

    def test_parse_render_identity_500(self):
        rng = random.Random(71)
        for _ in range(500):
            f = random_poly(rng)
            assert parse_polynomial(render(f)) == f

    def test_vectors(self):
        assert parse_vector("5").coords == (5,)
        assert parse_vector("[1,0,2]").coords == (1, 0, 2)
        assert [v.coords for v in parse_vector_list("[1,0],[0,1]")] == [
            (1, 0),
            (0, 1),
        ]
        with pytest.raises(DomainError):
            parse_vector_list("1,[1,0]")
        with pytest.raises(DomainError):
            parse_vector("[1,0")

    def test_vector_entries_are_signed_ascii_integers(self):
        assert parse_vector("+5").coords == (5,)
        assert parse_vector("007").coords == (7,)
        assert parse_vector(" [-1, 0 ,+2] ").coords == (-1, 0, 2)

    @pytest.mark.parametrize(
        "text", ["\u0663", "[1,\u0662]", "1_000", "[1_0,2]", "5.0", "--5", "+", "", "[1,,2]", "[]"]
    )
    def test_vector_entry_outside_the_grammar(self, text):
        with pytest.raises(DomainError):
            parse_vector(text)


class TestClassifyCommand:
    def test_excluded(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "3", "4", "5")
        assert code == 0 and "Excluded" in out

    def test_registry_dance(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "classify", "4", "5", "6")
        assert code == 0 and "Excluded" in out and "Delta(4,6)>=4" in out
        code, out, _ = run_cli(capsys, "classify", "4", "5", "6", "--registry", "empty")
        assert code == 0 and "Unknown" in out
        regfile = tmp_path / "bounds.txt"
        regfile.write_text("1,1,1 ; 4,6 ; 4\n")
        code, out, _ = run_cli(
            capsys, "classify", "4", "5", "6", "--registry", str(regfile)
        )
        assert code == 0 and "Excluded" in out

    def test_json_agrees_with_human(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "3", "4", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "tamedeg.report/1"
        assert doc["verdict"] == "excluded"
        assert doc["certificate"]["theorem"] == "TotalDegree"
        assert "timings" in doc
        names = {c["name"] for c in doc["certificate"]["conditions"]}
        assert {"a1", "a2", "b1", "b2", "c"} <= names

    def test_realizable_json_carries_witness(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "2", "3", "4", "--json")
        doc = json.loads(out)
        assert doc["verdict"] == "realizable"
        assert doc["multidegree"] == [2, 3, 4]
        assert doc["witness"]

    def test_permuted_witness_json_golden(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "4", "3", "2", "--json")
        assert code == 0
        steps = [
            (1, "1/1", "x3^2"), (2, "1/1", "x3^3"), (3, "1/1", "x1^2"),
            (1, "1/1", "x3"), (3, "1/1", "-x1"), (1, "1/1", "x3"), (3, "-1/1", "0"),
        ]
        assert json.loads(out)["witness"] == [
            {"target": t, "scale": sc, "shift": sh} for t, sc, sh in steps
        ]

    def test_human_and_json_verdicts_agree(self, capsys):
        for triple in ((3, 4, 5), (2, 3, 4), (3, 4, 7), (4, 5, 6)):
            argv = ["classify", *map(str, triple)]
            _, human, _ = run_cli(capsys, *argv)
            _, machine, _ = run_cli(capsys, *argv, "--json")
            verdict = json.loads(machine)["verdict"]
            assert f"verdict: {verdict.capitalize()}" in human


class TestOtherCommands:
    def test_classify_weighted(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify-weighted", "--deg", "3,5,7", "--weight", "1,2,3"
        )
        assert code == 0 and "Excluded" in out

    def test_classify_weighted_vectors(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify-weighted",
            "--deg",
            "[1,1,0],[1,-1,2],[1,0,1]",
            "--weight",
            "[1,0,0],[0,1,0],[0,0,1]",
            "--rank",
            "3",
        )
        assert code == 0 and "Excluded" in out and "IndependentWeights" in out

    def test_certify_wild_nagata(self, capsys):
        comps = [c.render() for c in nagata().components]
        code, out, _ = run_cli(
            capsys,
            "certify-wild",
            "--f1", comps[0], "--f2", comps[1], "--f3", comps[2],
            "--weight", "4,3,3",
        )
        assert code == 0 and "Wild" in out
        code, out, _ = run_cli(
            capsys,
            "certify-wild",
            "--f1", comps[0], "--f2", comps[1], "--f3", comps[2],
            "--weight", "1,1,1",
        )
        assert code == 0 and "Unknown" in out

    def test_certify_wild_golden(self, capsys):
        comps = [c.render() for c in nagata().components]
        argv = ["certify-wild", "--f1", comps[0], "--f2", comps[1], "--f3", comps[2],
                "--weight", "4,3,3"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (
            "verdict: Wild (certified)\n"
            "theorem: FSpecific\n"
            "conditions:\n"
            "  K1 + (d1 = 3 < d2 = 10 [yes]; d2 = 10 < d3 = 17 [yes]; "
            "d1+d2+d3 = 30 > |w| = 10 [yes])\n"
            "  K2 + (d2 = 10 not in N*d1 [yes]; d3 = 17 not in <d1,d2> [yes])\n"
            "  K3 + (3*d2 = 30 != 2*d3 = 34 [yes])\n"
            "  K4 + (odd s >= 3 with s*d1 = 2*d3 none [yes])\n"
            "  K5 + (4*d1 = 12 != 3*d2 = 30 [yes])\n"
            "  prop:main + (d1+d2+d3 = 30 < lcm(d1,d2)+deg_w(df1^df2) = 43 [yes])\n"
        )
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert list(doc) == ["schema", "query", "verdict", "certificate", "timings"]
        assert list(doc.pop("timings")) == ["total_ms"]

        def cond(name, *clauses):
            return {"name": name, "holds": True, "clauses": [
                {"left": l, "relation": r, "right": rr, "holds": True}
                for l, r, rr in clauses]}

        assert doc == {
            "schema": "tamedeg.report/1",
            "query": {"command": "certify-wild", "components": comps,
                      "weight": [[4], [3], [3]]},
            "verdict": "wild",
            "certificate": {
                "theorem": "FSpecific",
                "conditions": [
                    cond("K1", ("d1 = 3", "<", "d2 = 10"), ("d2 = 10", "<", "d3 = 17"),
                         ("d1+d2+d3 = 30", ">", "|w| = 10")),
                    cond("K2", ("d2 = 10", "not in", "N*d1"),
                         ("d3 = 17", "not in", "<d1,d2>")),
                    cond("K3", ("3*d2 = 30", "!=", "2*d3 = 34")),
                    cond("K4", ("odd s >= 3 with s*d1 = 2*d3", "none", "")),
                    cond("K5", ("4*d1 = 12", "!=", "3*d2 = 30")),
                    cond("prop:main", ("d1+d2+d3 = 30", "<",
                                       "lcm(d1,d2)+deg_w(df1^df2) = 43")),
                ],
                "delta_bounds_used": [],
            },
        }
        assert out == json.dumps({**doc, "timings": json.loads(out)["timings"]},
                                 indent=2) + "\n"

    def test_witness_verify(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "2", "3", "4", "--verify")
        assert code == 0
        assert "mdeg verified: (2, 3, 4)" in out
        code, out, _ = run_cli(capsys, "witness", "3", "4", "5")
        assert code == 0 and "no witness" in out

    def test_witness_verify_computes_jacobian_once(self, capsys, monkeypatch):
        import tamedeg.automorphisms
        import tamedeg.classifier
        import tamedeg.cli
        import tamedeg.poly

        calls = []
        original = tamedeg.poly.jacobian_det

        def counting(components):
            calls.append(components)
            return original(components)

        for module in (tamedeg.poly, tamedeg.automorphisms, tamedeg.classifier,
                       tamedeg.cli):
            monkeypatch.setattr(module, "jacobian_det", counting, raising=False)
        code, out, _ = run_cli(capsys, "witness", "2", "3", "4", "--verify")
        assert code == 0 and len(calls) == 1
        assert out == (
            "word (3 steps):\n"
            "  step 1: x1 <- x1 + x3^2\n"
            "  step 2: x2 <- x2 + x3^3\n"
            "  step 3: x3 <- x3 + x1^2\n"
            "realized components:\n"
            "  f1 = x3^2 + x1\n"
            "  f2 = x3^3 + x2\n"
            "  f3 = x3^4 + 2*x1*x3^2 + x1^2 + x3\n"
            "mdeg verified: (2, 3, 4); Jacobian = 1\n"
        )

    @pytest.mark.parametrize("argv", [["classify", "2", "3", "4"],
                                      ["witness", "2", "3", "4", "--verify"]])
    def test_human_output_realizes_once(self, capsys, monkeypatch, argv):
        import sys

        import tamedeg.automorphisms

        calls = []
        original = tamedeg.automorphisms.realize

        def counting(word, budget=None):
            calls.append(word)
            return original(word, budget)

        for name, module in list(sys.modules.items()):
            if name.startswith("tamedeg") and vars(module).get("realize") is original:
                monkeypatch.setattr(module, "realize", counting)
        code, out, _ = run_cli(capsys, *argv)
        steps = ("word (3 steps):\n"
                 "  step 1: x1 <- x1 + x3^2\n"
                 "  step 2: x2 <- x2 + x3^3\n"
                 "  step 3: x3 <- x3 + x1^2\n")
        if argv[0] == "classify":  # the classifier's proof is the only one
            assert code == 0 and len(calls) == 0
            assert out == "verdict: Realizable, multidegree (2, 3, 4)\n" + steps
            assert "realized components:" not in out
        else:  # witness expands the word and checks it again
            assert code == 0 and len(calls) == 1 and out.startswith(steps)
            assert "f3 = x3^4 + 2*x1*x3^2 + x1^2 + x3" in out

    def test_human_classify_of_a_large_realizable_triple(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "2", "3", "100000")
        assert code == 0 and out == (
            "verdict: Realizable, multidegree (2, 3, 100000)\n"
            "word (3 steps):\n"
            "  step 1: x1 <- x1 + x3^2\n"
            "  step 2: x2 <- x2 + x3^3\n"
            "  step 3: x3 <- x3 + x1^2*x2^33332\n"
        )

    def test_wstar_and_frobenius(self, capsys):
        code, out, _ = run_cli(capsys, "wstar", "1", "1", "1")
        assert code == 0 and out.strip() == "3"
        code, out, _ = run_cli(capsys, "wstar", "[1,0]", "[0,1]", "[1,1]")
        assert code == 0
        code, out, _ = run_cli(capsys, "frobenius", "3", "5")
        assert code == 0 and out.strip() == "7"

    def test_corollary(self, capsys):
        code, out, _ = run_cli(capsys, "corollary", "progression", "5", "3")
        assert code == 0 and "(5, 8, 11)" in out and "Excluded" in out

    def test_corollary_checks_its_hypotheses_once(self, capsys, monkeypatch):
        import tamedeg.classifier
        import tamedeg.cli

        calls = []
        original = tamedeg.classifier.corollary_inputs

        def counting(name, args):
            calls.append(name)
            return original(name, args)

        for module in (tamedeg.classifier, tamedeg.cli):
            monkeypatch.setattr(module, "corollary_inputs", counting)
        code, out, _ = run_cli(capsys, "corollary", "progression", "5", "3")
        assert code == 0 and out.startswith("triple (5, 8, 11)\nverdict: Excluded\n")
        assert calls == ["progression"]

    @pytest.mark.parametrize("args, triple, weight", [
        (["two-three", "7"], [7, 10, 15], None),
        (["kanehira", "3", "5", "7", "1", "2", "3"], [3, 5, 7], [[1], [2], [3]]),
    ], ids=["total", "weighted"])
    def test_corollary_json_is_one_document(self, capsys, args, triple, weight):
        code, out, _ = run_cli(capsys, "corollary", *args, "--json")
        doc = json.loads(out)  # the whole of stdout
        assert code == 0 and doc["verdict"] == "excluded"
        assert doc["query"]["triple"] == triple and doc["query"].get("weight") == weight
        # the human report names the triple on its first line
        code, out, _ = run_cli(capsys, "corollary", *args)
        under = " under weight (1,2,3)" if weight else ""
        assert code == 0 and out.splitlines()[0] == f"triple {tuple(triple)}{under}"

    def test_realizable_corollary_lists_its_components(self, capsys):
        code, out, err = run_cli(capsys, "corollary", "li-du-top-prime", "3", "4", "7")
        assert (code, err) == (0, "")
        assert out == (
            "triple (3, 4, 7)\n"
            "verdict: Realizable, multidegree (3, 4, 7)\n"
            "word (3 steps):\n"
            "  step 1: x1 <- x1 + x3^3\n"
            "  step 2: x2 <- x2 + x3^4\n"
            "  step 3: x3 <- x3 + x1*x2\n"
            "realized components:\n"
            "  f1 = x3^3 + x1\n"
            "  f2 = x3^4 + x2\n"
            "  f3 = x3^7 + x1*x3^4 + x2*x3^3 + x1*x2 + x3\n"
        )

    def test_unknown_json_names_the_failed_conditions(self, capsys):
        code, out, err = run_cli(capsys, "classify", "4", "6", "11", "--json")
        doc = json.loads(out)
        assert (code, err) == (0, "")
        assert doc["query"] == {"command": "classify", "degrees": [4, 6, 11]}
        assert doc["verdict"] == "unknown" and "certificate" not in doc
        assert doc["failed_conditions"] == ["b1", "b2", "A2", "A3", "B1", "B2"]

    def test_table(self, capsys, tmp_path):
        out_path = tmp_path / "table.txt"
        code, out, _ = run_cli(
            capsys, "table", "--max", "5", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert "3 4 5 excluded" in lines
        assert "1 1 1 realizable" in lines

    @pytest.mark.parametrize("argv, golden", [
        (["table", "--max", "6"], "table_max6.txt"),
        (["table", "--max", "6", "--weight", "1,2,3"], "table_max6_weight123.txt"),
    ])
    def test_table_golden(self, capsys, argv, golden):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_search_and_check(self, capsys, tmp_path):
        config = {
            "seed": 11,
            "sample_count": 40,
            "weights": [[1, 1, 1]],
            "mode": "randomized",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys, "search", "--config", str(cfg_path), "--out", str(out_path)
        )
        assert code == 0 and "wrote" in out
        code, out, _ = run_cli(capsys, "check", "--config", str(cfg_path))
        assert code == 0 and "violations: 0" in out

    def test_check_json_is_the_report_as_one_document(self, capsys, tmp_path):
        config = {"seed": 11, "sample_count": 40, "weights": [[1, 1, 1], [1, 2, 3]]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "check", "--config", str(cfg_path), "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)  # raises on anything after the one document
        assert doc == consistency_check(SearchConfig.from_json(config)).to_json()
        assert doc["words_checked"] > 0 and set(doc["distinct_multidegrees"]) == {"1,1,1", "1,2,3"}


class TestVectorEntries:
    """Degree and weight entries follow the number grammar of polynomial
    text, and an error about them is one short line whatever the input."""

    HUGE = "9" * 5000  # past Python's default limit of 4,300 digits

    def assert_one_short_error(self, code, out, err, needle):
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300 and needle in err

    def test_non_ascii_digits(self, capsys):
        code, out, err = run_cli(capsys, "wstar", "\u0661", "\u0662", "\u0663")
        self.assert_one_short_error(code, out, err, "bad integer '\u0661'")

    def test_underscores(self, capsys):
        code, out, err = run_cli(capsys, "wstar", "1_000", "2", "3")
        self.assert_one_short_error(code, out, err, "bad integer '1_000'")

    def test_huge_degree(self, capsys):
        argv = ("classify-weighted", "--deg", f"{self.HUGE},5,7", "--weight", "1,2,3")
        self.assert_one_short_error(*run_cli(capsys, *argv), "5000-digit number")

    def test_huge_weight(self, capsys):
        argv = ("classify-weighted", "--deg", "3,5,7", "--weight", f"[1,0],[1,1],[0,{self.HUGE}]")
        self.assert_one_short_error(*run_cli(capsys, *argv), "5000-digit number")

    def test_huge_registry_entry(self, capsys, tmp_path):
        regfile = tmp_path / "reg.txt"
        regfile.write_text(f"1,1,1 ; 4,6 ; {self.HUGE}\n")
        argv = ("classify", "4", "5", "6", "--registry", str(regfile))
        self.assert_one_short_error(*run_cli(capsys, *argv), "5000-digit number")

    def test_long_malformed_entry(self, capsys):
        argv = ("classify-weighted", "--deg", "x" * 5000 + ",5,7", "--weight", "1,2,3")
        self.assert_one_short_error(*run_cli(capsys, *argv), "(5000 characters)")

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (("classify", "1_000", "2", "3"), "bad integer '1_000'"),
            (("classify", "\u0662", "\u0663", "\u0664"), "bad integer '\u0662'"),
            (("classify", HUGE, "2", "3"), "5000-digit number"),
            (("witness", "2", "3", "x" * 5000), "(5000 characters)"),
            (("frobenius", "3", "5.0"), "bad integer '5.0'"),
            (("corollary", "two-three", "7.9"), "bad integer '7.9'"),
            (("table", "--max", "1_0"), "bad integer '1_0'"),
            (("wstar", "1", "1", "1", "--rank", "\u0661"), "bad integer '\u0661'"),
        ],
        ids=["underscore", "non-ascii", "huge", "long-malformed", "decimal", "corollary",
             "max", "rank"],
    )
    def test_integer_arguments(self, capsys, argv, needle):
        self.assert_one_short_error(*run_cli(capsys, *argv), needle)

    def test_missing_integer_argument_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "classify", "2", "3")
        assert code == 2 and out == "" and "required: d3" in err

    NINES = "9" * 4000  # inside the digit limit, so it parses

    @pytest.mark.parametrize(
        "argv, config, needle",
        [
            (("wstar", "1", "2", f"-{NINES}"), None, "<negative 4000-digit integer>"),
            (("classify-weighted", "--deg", "3,5,7", f"--weight=-{NINES},2,3"), None,
             "<negative 4000-digit integer>"),
            (("check",), f'{{"degree_cap": -{NINES}}}', "<negative 4000-digit integer>"),
            (("check",), f'{{"degree_cap": "{"x" * 5000}"}}', "(5000 characters)"),
            (("check",), f'{{"coefficient_pool": ["{"x" * 5000}"]}}', "(5000 characters)"),
            (("check",), f'{{"weights": [[1, 2, -{NINES}]]}}', "<negative 4000-digit integer>"),
            (("check",), f'{{"weights": [[1, 2, "{"x" * 5000}"]]}}', "(5000 characters)"),
            (("check",), f'{{"scale_pool": "{"x" * 5000}"}}', "(5000 characters)"),
            (("check",), f'{{"mode": "{"x" * 5000}"}}', "(5000 characters)"),
            (("corollary", "x" * 5000), None, "(5000 characters)"),
        ],
        ids=["wstar", "weight", "degree-cap", "text-degree-cap", "pool-entry",
             "config-weight", "text-config-weight", "text-pool", "mode", "corollary-name"],
    )
    def test_long_values_are_shown_short(self, capsys, tmp_path, argv, config, needle):
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            argv = (*argv, "--config", str(tmp_path / "config.json"))
        self.assert_one_short_error(*run_cli(capsys, *argv), needle)

    @pytest.mark.parametrize("command", ["check", "search"])
    @pytest.mark.parametrize(
        "config", [f'{{"seed": {HUGE}}}', f'{{"weights": [[1, 2, -{HUGE}]]}}'],
        ids=["seed", "negative-weight"],
    )
    def test_config_integer_past_the_digit_limit(self, capsys, tmp_path, command, config):
        (tmp_path / "config.json").write_text(config)
        argv = [command, "--config", str(tmp_path / "config.json")]
        if command == "search":
            argv += ["--out", str(tmp_path / "records.jsonl")]
        limit = sys.get_int_max_str_digits()
        message = f"config: 5000-digit number exceeds Python's limit of {limit} digits"
        assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (("wstar", "1", "2", "-3"), None,
             "expected a positive group element, got GroupElem(-3,)"),
            (("check",), '{"degree_cap": -4}', "degree_cap must be at least 1, got -4"),
            (("check",), '{"degree_cap": "x"}', "degree_cap must be an integer, got 'x'"),
            (("check",), '{"scale_pool": ["a"]}',
             'scale_pool entries must be integers or "p/q" strings, got \'a\''),
        ],
        ids=["wstar", "degree-cap", "text-degree-cap", "pool-entry"],
    )
    def test_short_values_are_shown_whole(self, capsys, tmp_path, argv, config, message):
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            argv = (*argv, "--config", str(tmp_path / "config.json"))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")


class TestExitCodes:
    @pytest.mark.parametrize("command", ["check", "search"])
    @pytest.mark.parametrize(
        "config, field",
        [
            ([1, 2], None),
            ({"weights": [[1, 2]]}, None),
            ({"weights": 5}, None),
            ({"weights": []}, "weights"),
            ({"weights": [[1, 1, 1], [[1], [1], [1]]]}, "weights must not repeat"),
            ({"coefficient_pool": [1, 0]}, "coefficient_pool"),
            ({"scale_pool": [0, 2]}, "scale_pool"),
            ({"coefficient_pool": [0.1]}, "coefficient_pool"),
            ({"coefficient_pool": ["a"]}, "coefficient_pool"),
            ({"scale_pool": ["a"]}, "scale_pool"),
            ({"scale_pool": [2.0]}, "scale_pool"),
            ({"scale_pool": [True]}, "scale_pool"),
            ({"coefficient_pool": ["1/0"]}, "coefficient_pool"),
            ({"coefficient_pool": ["0/3"]}, "coefficient_pool"),
            ({"coefficient_pool": [[1]]}, "coefficient_pool"),
            ({"scale_pool": 2}, "scale_pool"),
            ({"coefficient_pool": []}, "coefficient_pool"),
            ({"shear_probability": 1.5}, None),
            ({"sample_count": 2.5}, "sample_count"),
            ({"max_word_length": 2.5}, "max_word_length"),
            ({"shift_term_count_cap": 0}, "shift_term_count_cap"),
            ({"shift_monomial_exponent_cap": -1}, "shift_monomial_exponent_cap"),
            ({"degree_cap": 2.5}, "degree_cap"),
            ({"term_budget": 1.5}, "term_budget"),
            ({"term_budget": True}, "term_budget"),
            ({"seed": "abc"}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": None}, "seed"),
            ({"shear_probability": True}, "shear_probability"),
            ({"shear_probability": "0.5"}, "shear_probability"),
        ],
        ids=["not-object", "weight-shape", "weights-scalar", "empty-weights", "repeated-weights",
             "zero-coefficient", "zero-scale", "float-coefficient", "text-coefficient", "text-scale",
             "float-scale", "bool-scale", "zero-denominator", "zero-fraction",
             "list-coefficient", "scalar-scale-pool", "empty-coefficient-pool",
             "shear-probability", "float-sample-count",
             "float-word-length", "zero-term-count", "negative-exponent-cap",
             "float-degree-cap", "float-term-budget", "bool-term-budget",
             "text-seed", "float-seed", "bool-seed", "null-seed", "bool-shear-probability",
             "text-shear-probability"],
    )
    def test_bad_search_config(self, capsys, tmp_path, command, config, field):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg_path)]
        out = tmp_path / "records.jsonl"
        if command == "search":
            argv += ["--out", str(out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err
        assert err.count("\n") == 1 and len(err.encode()) < 300
        assert field is None or field in err
        assert not out.exists()

    def test_failed_witness_verification_is_internal(self, capsys, monkeypatch):
        from tamedeg import Endo

        monkeypatch.setattr(
            "tamedeg.automorphisms.realize",
            lambda word, budget=None: Endo.identity(word.nvars),
        )
        code, _, err = run_cli(capsys, "witness", "2", "3", "4", "--verify")
        assert code == 4
        assert err.startswith("error:") and "Traceback" not in err
        assert "witness realizes multidegree (1, 1, 1), expected (2, 3, 4)" in err

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_table_bound_below_one(self, capsys, bound):
        code, out, err = run_cli(capsys, "table", "--max", bound)
        assert code == 3 and out == ""
        assert err == f"error: --max must be at least 1, got {bound}\n"

    @pytest.mark.parametrize(
        "argv",
        [["wstar", "1", "1", "1", "--rank", "0"],
         ["classify-weighted", "--deg", "1,2,3", "--weight", "1,1,1", "--rank", "-2"]],
    )
    def test_rank_below_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err == f"error: rank must be at least 1, got {argv[-1]}\n"

    def test_non_ascii_digit_is_a_positioned_syntax_error(self, capsys):
        code, _, err = run_cli(
            capsys, "certify-wild", "--f1", "x1^²", "--f2", "x2", "--f3", "x3",
            "--weight", "1,1,1",
        )
        assert code == 3
        assert err == "error: unexpected character '²' (at position 3)\n"

    def test_over_long_literal_is_a_positioned_syntax_error(self, capsys):
        code, out, err = run_cli(
            capsys, "certify-wild", "--f1", "1" * 5000 + "*x1", "--f2", "x2", "--f3", "x3",
            "--weight", "1,1,1",
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: 5000-digit number exceeds Python's limit of "
            f"{sys.get_int_max_str_digits()} digits (at position 0)\n"
        )

    def test_over_cap_exponent_is_a_short_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "certify-wild", "--f1", "x1^" + "9" * 4300, "--f2", "x2", "--f3", "x3",
            "--weight", "1,1,1",
        )
        assert (code, out) == (3, "")
        assert err == "error: 4300-digit exponent exceeds cap 10000 (at position 3)\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv, digits", [
        (["wstar", *["9" + "0" * 4299] * 3], 4301),
        (["frobenius", "1" + "0" * 2498 + "1", "1" + "0" * 2498 + "3"], 4999),
    ], ids=["wstar", "frobenius"])
    def test_answer_past_the_digit_limit(self, capsys, argv, digits):
        # every argument parses, but str() refuses the answer
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            f"error: answer <{digits}-digit integer> exceeds Python's limit of "
            f"{sys.get_int_max_str_digits()} digits\n"
        )

    # 4,300-digit degrees parse, but the report then needs wider integers:
    # 3*d2 in a certificate's clause text, or 2*(d-2) in a corollary's triple
    A, B, N = "9" * 4299 + "5", "9" * 4299 + "7", "9" * 4300

    @pytest.mark.parametrize("argv", [
        ["classify", A, B, N],
        ["classify", A, B, N, "--json"],
        ["classify-weighted", "--deg", f"{A},{B},{N}", "--weight", "1,1,1"],
        ["corollary", "two-three", N],
        ["corollary", "two-three", N, "--json"],
    ], ids=["classify", "classify-json", "classify-weighted", "corollary", "corollary-json"])
    def test_report_past_the_digit_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")  # nothing of the report is printed
        assert err == (
            "error: the report has an integer past Python's limit of "
            f"{sys.get_int_max_str_digits()} digits\n"
        )
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("argv", [["classify", "4", "5", "11"],
                                      ["corollary", "two-three", "7"]])
    def test_internal_value_error_while_rendering_propagates(self, capsys, monkeypatch, argv):
        def broken(*args):
            raise ValueError("an internal fault")

        monkeypatch.setattr("tamedeg.cli._print_result", broken)
        with pytest.raises(ValueError, match="an internal fault"):
            main(argv)
        assert capsys.readouterr().out == ""

    def test_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "3", "4")
        assert code == 2
        code, _, _ = run_cli(capsys, "no-such-command")
        assert code == 2

    def test_input_errors(self, capsys):
        code, _, err = run_cli(
            capsys,
            "certify-wild",
            "--f1", "x1 x2", "--f2", "x2", "--f3", "x3",
            "--weight", "1,1,1",
        )
        assert code == 3 and "error" in err
        code, _, err = run_cli(capsys, "frobenius", "4", "6")
        assert code == 3
        code, _, err = run_cli(capsys, "classify", "3", "4", "5", "--registry", "/nonexistent")
        assert code == 3
        code, _, err = run_cli(capsys, "corollary", "two-three", "6")
        assert code == 3
        code, _, err = run_cli(
            capsys, "classify-weighted", "--deg", "1,[1,0],3", "--weight", "1,1,1"
        )
        assert code == 3

    @pytest.mark.parametrize("argv, content, needle", [
        (["check", "--config"], b'{"seed": 1,', "config: Expecting property name"),
        (["check", "--config"], b'{"seed": 1}\xff', "can't decode byte 0xff"),
        (["classify", "4", "5", "6", "--registry"], b"1,1,1 ; 4,6 ; 4\n\xff\n",
         "can't decode byte 0xff"),
        (["classify", "4", "5", "6", "--registry"], b"1,1,1 ; 4,6 ; [5,0]\n",
         "registry line 1: degrees and bound need the weight's rank 1"),
        (["classify", "4", "5", "6", "--registry"], b"1,1,1 ; [4,0],[6,0] ; 5\n",
         "registry line 1: degrees and bound need the weight's rank 1"),
        (["classify", "4", "5", "6", "--registry"], b"1,1,1 ; -4,6 ; 4\n",
         "registry line 1: registry degrees must be positive"),
    ], ids=["config-not-json", "config-not-utf8", "registry-not-utf8",
            "registry-bound-rank", "registry-degree-rank", "registry-nonpositive-degree"])
    def test_malformed_input_file(self, capsys, tmp_path, argv, content, needle):
        path = tmp_path / "input"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and needle in err
        assert err.count("\n") == 1 and len(err.encode()) < 300

    @pytest.mark.parametrize("cls", [
        c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)
    ], ids=lambda c: c.__name__)
    def test_exit_code_of_each_error_class(self, capsys, monkeypatch, cls):
        args = {errors.HypothesisViolation: ("a hypothesis",),
                errors.PolynomialSyntaxError: ("a fault", 0)}.get(cls, ("a fault",))

        def broken(*_):
            raise cls(*args)

        monkeypatch.setattr("tamedeg.cli.classify_total", broken)
        code, out, err = run_cli(capsys, "classify", "3", "4", "5")
        if issubclass(cls, errors.ConstructionError):
            assert (code, out, err) == (4, "", f"error: internal soundness failure: {cls(*args)}\n")
        else:  # every other class is a fault of the input
            assert issubclass(cls, (DomainError, errors.BudgetExceededError))
            assert (code, out, err) == (3, "", f"error: {cls(*args)}\n")

    def test_internal_value_error_propagates(self, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("an internal fault")

        monkeypatch.setattr("tamedeg.cli.classify_total", broken)
        with pytest.raises(ValueError, match="an internal fault"):
            main(["classify", "3", "4", "5"])

    def test_internal_os_error_propagates(self, capsys, monkeypatch):
        def broken(*args):
            raise OSError("an internal fault")

        monkeypatch.setattr("tamedeg.cli.classify_total", broken)
        with pytest.raises(OSError, match="an internal fault"):
            main(["classify", "3", "4", "5"])

    @pytest.mark.parametrize("argv", [
        ["check", "--config", "{missing}"],
        ["classify", "4", "5", "6", "--registry", "{missing}"],
        ["classify", "4", "5", "6", "--registry", "{directory}"],
        ["classify", "4", "5", "6", "--registry", "{file}/below"],
    ], ids=["config-missing", "registry-missing", "registry-directory",
            "registry-below-a-file"])
    def test_unopenable_input_file(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        paths = {"missing": tmp_path / "missing", "directory": tmp_path,
                 "file": tmp_path / "file"}
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (3, "")
        assert err.startswith("error: [Errno ")
        assert err.count("\n") == 1 and len(err.encode()) < 300


class TestProcess:
    # dataclasses (which imports inspect), hashlib and json add about 40 ms
    # to a process; the commands below need none of them
    HEAVY = {"dataclasses", "inspect", "hashlib", "json"}

    def test_start_up_leaves_out_heavy_modules(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import tamedeg.cli\n"
            "imported = sorted(set(sys.modules) - before)\n"
            "codes = [tamedeg.cli.main(['wstar', '1', '1', '1']),\n"
            "         tamedeg.cli.main(['classify', '2', '3', '4'])]\n"
            "print(repr((codes, imported, sorted(set(sys.modules) - before))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=_process_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        codes, imported, after_main = ast.literal_eval(proc.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert "tamedeg.search" in imported  # the package still loads every module
        assert self.HEAVY.isdisjoint(imported)
        assert self.HEAVY.isdisjoint(after_main)

    @pytest.mark.parametrize("argv, want", [
        (["-m", "tamedeg", "wstar", "1", "1", "1000000000"], "1000000002\n"),
        (["-m", "tamedeg", "wstar", "10000000", "10000001", "99999989999998"],
         "100000000000001\n"),
        (["-m", "tamedeg", "classify-weighted", "--deg", "3,5,7", "--weight", "1,1,1000000000"],
         "verdict: Unknown\nuncertified conditions: K1, A2, A3\n"),
        (["-c", "from tamedeg import ge, least_combination_exceeding as lce\n"
                "print(lce(ge(1), ge(1), ge(10**9)))"], "GroupElem(1000000001,)\n"),
    ], ids=["wstar", "wstar-late-residue", "classify-weighted", "least_combination_exceeding"])
    def test_large_rank1_weights_answer_in_bounded_time(self, argv, want):
        # the rank-1 minimum takes O(log) Euclid rounds, against about
        # 10^9 steps for a staircase scan over multiples of the generator
        proc = subprocess.run([sys.executable, *argv], env=_process_env(),
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")

    def test_closed_stdout_exits_1_quietly(self):
        # each table is far larger than a pipe buffer, so printing it meets
        # the closed pipe; the rows stream, so the one up to 100000, which
        # no memory could hold, meets it as soon as the first one does
        for bound in ("40", "100000"):
            proc = subprocess.Popen(
                [sys.executable, "-m", "tamedeg", "table", "--max", bound],
                env=_process_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                preexec_fn=_cap_memory,
            )
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                code = proc.wait(timeout=10)
            finally:
                proc.kill()
            assert first == b"1 1 1 realizable\n", bound
            assert code == 1, bound
            assert proc.stderr.read() == b"", bound
            proc.stderr.close()

    def test_table_opens_out_before_classifying(self, tmp_path):
        out = tmp_path / "missing" / "t.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "tamedeg", "table", "--max", "100000", "--out", str(out)],
            env=_process_env(), capture_output=True, text=True, timeout=10,
            preexec_fn=_cap_memory,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, stdout_full", [
        (["table", "--max", "5", "--out", "/dev/full"], False),
        (["classify", "3", "4", "5"], True),
        (["search", "--config", "{config}", "--out", "/dev/full"], False),
        (["witness", "2", "3", "4", "--verify"], True),
    ], ids=["table-out", "classify-stdout", "search-out", "witness-stdout"])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_failed_write_exits_3_with_one_line(self, tmp_path, argv, stdout_full, buffered):
        # /dev/full refuses every write with ENOSPC.  Buffered, a failed flush
        # keeps the bytes, and the flush at exit must not write them again
        config = tmp_path / "config.json"
        config.write_text('{"seed": 3, "sample_count": 20}')
        env = _process_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "tamedeg", *(a.format(config=config) for a in argv)],
                env=env, stdout=full if stdout_full else subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert proc.returncode == 3
        assert proc.stderr == "error: [Errno 28] No space left on device\n"


def test_public_names_are_the_used_surface():
    import types

    import tamedeg

    public = {name for name in dir(tamedeg) if not name.startswith("_")
              and not isinstance(getattr(tamedeg, name), types.ModuleType)}
    assert public == {
        "Budget", "BudgetExceededError", "Certificate", "ClassificationResult",
        "Condition", "ConsistencyReport", "ConstructionError", "DegreeCapError",
        "DeltaBoundRegistry", "DomainError", "ElementaryAut", "Endo",
        "Excluded", "GroupElem", "HypothesisViolation", "Polynomial",
        "PolynomialSyntaxError", "RankMismatchError", "Realizable",
        "SchemaVersionError", "SearchConfig", "SearchRecord", "TameWord", "Theorem",
        "Unknown", "Weight", "as_group_elem", "builtin_registry", "certify_wild",
        "check_total_abc", "check_weighted_conditions", "classify_total",
        "classify_weighted", "consistency_check", "corollary_names",
        "degree_w", "delta_lower_bound", "frobenius_number", "ge", "generate",
        "intro_family", "is_prime", "jacobian_det", "least_combination_exceeding",
        "load", "make_realizable", "mdeg", "nagata", "parse_polynomial", "parse_vector",
        "parse_vector_list", "permutation_word", "persist",
        "rank_profile", "realizability_table", "realize", "render", "run_search",
        "semigroup_member", "semigroup_witness", "shear", "substitute",
        "transposition_word", "w_star", "wedge2_degree", "word_fingerprint",
    }
