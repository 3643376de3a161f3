"""Outside-in tracing of the tamedeg layers.

The benchmark never edits the program.  A Tracer replaces the public
functions of each layer with wrappers that record one span per call.  The
consumer modules bind names with ``from .poly import substitute``, so every
module attribute of the ``tamedeg`` package that is bound to an original
function gets the wrapper, not only the defining module's attribute.
``uninstall`` puts every original back; ``assert_unwrapped`` proves it.

Spans live in flat arrays while the run is going and are turned into
per-layer figures (and a TSV file) when it ends.  A span's self
time is its duration minus the durations of its child spans; calls are
sequential on one thread, so child spans never overlap.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute) pairs whose calls become spans, named "module.attribute".
FUNCTIONS = (
    ("ordgroup", "semigroup_member"),
    ("ordgroup", "w_star"),
    ("ordgroup", "rank_profile"),
    ("poly", "multiply"),
    ("poly", "substitute"),
    ("poly", "power"),
    ("poly", "jacobian_det"),
    ("poly", "degree_w"),
    ("poly", "wedge2_degree"),
    ("automorphisms", "realize"),
    ("automorphisms", "semigroup_witness"),
    ("classifier", "classify_total"),
    ("classifier", "classify_weighted"),
    ("classifier", "check_total_abc"),
    ("classifier", "check_weighted_conditions"),
    ("classifier", "make_realizable"),
    ("classifier", "certify_wild"),
    ("search", "consistency_check"),
    ("search", "run_search"),
    ("search", "persist"),
    ("search", "load"),
    ("parse", "parse_polynomial"),
    ("cli", "main"),
)
# (module, class, method) triples whose calls become spans "module.method".
METHODS = (("search", "SearchRecord", "to_word"),)
# Methods whose calls are only counted: Polynomial construction, and budget
# charges that raise BudgetExceededError.
COUNTED = (("poly", "Polynomial", "__init__"), ("poly", "Budget", "charge"))
# Verdict-producing calls: the result kind of the outermost one is recorded.
VERDICT_SPANS = ("classifier.classify_total", "classifier.classify_weighted",
                 "classifier.certify_wild")

# Counts that are reported as 0 when nothing incremented them.
COUNTS = ("poly.multiply.terms_out", "poly.multiply.calls_outside_certify_wild",
          "poly.Polynomial.init.calls", "poly.budget_exceeded", "search.screen_calls",
          "search.verdict_cache_misses")

_MARK = "__bench_original__"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tamedeg" or name.startswith("tamedeg."))]


def assert_unwrapped() -> None:
    """Raise unless every tamedeg module attribute and traced method is the
    program's own object."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")
    for modname, cls_name, meth in METHODS + COUNTED:
        module = sys.modules.get(f"tamedeg.{modname}")
        if module is not None and hasattr(vars(getattr(module, cls_name))[meth], _MARK):
            raise RuntimeError(f"{cls_name}.{meth} is still wrapped")


def _result_kind(result) -> str:
    kind = getattr(result, "kind", None)
    return kind if kind is not None else "wild"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.kinds: dict[int, str] = {}
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        verdict = name in VERDICT_SPANS
        terms_out = name == "poly.multiply"
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end, stack = self.s_start, self.s_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(self.op)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if verdict:
                self.kinds[idx] = _result_kind(result)
            elif terms_out:
                self.counters["poly.multiply.terms_out"] += len(result.terms)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function wherever the tamedeg package binds it."""
        assert_unwrapped()
        modules = _package_modules()
        for modname, attr in FUNCTIONS:
            module = sys.modules.get(f"tamedeg.{modname}")
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)
        for modname, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"tamedeg.{modname}"], cls_name)
            self._patch(cls, meth, self._wrap(f"{modname}.{meth}", vars(cls)[meth]))
        poly = sys.modules["tamedeg.poly"]
        self._patch(poly.Polynomial, "__init__", self._counting_init(poly.Polynomial.__init__))
        self._patch(poly.Budget, "charge", self._counting_charge(poly.Budget.charge))

    def _counting_init(self, original):
        counters = self.counters

        def __init__(poly, *args, **kwargs):
            counters["poly.Polynomial.init.calls"] += 1
            original(poly, *args, **kwargs)

        setattr(__init__, _MARK, original)
        return __init__

    def _counting_charge(self, original):
        counters = self.counters
        budget_error = sys.modules["tamedeg.errors"].BudgetExceededError

        def charge(budget, *args, **kwargs):
            try:
                original(budget, *args, **kwargs)
            except budget_error:
                counters["poly.budget_exceeded"] += 1
                raise

        setattr(charge, _MARK, original)
        return charge

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        assert_unwrapped()

    def write_tsv(self, path) -> int:
        """Write every span as name, op, parent, start_us, end_us (relative
        to the first span); returns the number written."""
        base = self.s_start[0] if self.s_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\top\tparent\tstart_us\tend_us\n")
            for i in range(len(self.s_name)):
                fh.write(f"{i}\t{self.names[self.s_name[i]]}\t{self.s_op[i]}\t"
                         f"{self.s_parent[i]}\t{(self.s_start[i] - base) * 1e6:.1f}\t"
                         f"{(self.s_end[i] - base) * 1e6:.1f}\n")
        return len(self.s_name)

    def summary(self) -> dict:
        """Per-name calls and self time plus the nesting-dependent counts;
        the shape is plain JSON so child processes can send it back."""
        n = len(self.s_name)
        names = self.names
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur[i]
        bits = {name: 1 << k for k, name in enumerate(
            ("classifier.classify_weighted", "classifier.certify_wild",
             "search.consistency_check", *VERDICT_SPANS))}
        verdict_bits = sum(bits[v] for v in VERDICT_SPANS)
        ancestors = [0] * n
        calls: Counter = Counter()
        self_ms: defaultdict = defaultdict(float)
        counts: Counter = Counter(self.counters)
        verdict_ms: defaultdict = defaultdict(list)
        for i in range(n):
            name = names[self.s_name[i]]
            p = self.s_parent[i]
            anc = 0 if p < 0 else ancestors[p] | bits.get(names[self.s_name[p]], 0)
            ancestors[i] = anc
            calls[name] += 1
            self_ms[name] += (dur[i] - child[i]) * 1e3
            if name == "poly.multiply" and not anc & bits["classifier.certify_wild"]:
                counts["poly.multiply.calls_outside_certify_wild"] += 1
            elif (name == "classifier.check_weighted_conditions"
                  and anc & bits["search.consistency_check"]
                  and not anc & (bits["classifier.classify_weighted"]
                                 | bits["classifier.certify_wild"])):
                counts["search.screen_calls"] += 1
            if name in VERDICT_SPANS and not anc & verdict_bits:
                kind = self.kinds.get(i, "error")
                counts[f"classifier.verdicts.{kind}"] += 1
                verdict_ms[kind].append(dur[i] * 1e3)
                if name == "classifier.classify_weighted" and anc & bits["search.consistency_check"]:
                    counts["search.verdict_cache_misses"] += 1
        return {"calls": dict(calls), "self_ms": dict(self_ms),
                "counts": dict(counts), "verdict_ms": dict(verdict_ms)}


def merge_summaries(parts) -> dict:
    out = {"calls": Counter(), "self_ms": defaultdict(float), "counts": Counter(),
           "verdict_ms": defaultdict(list)}
    for part in parts:
        out["calls"].update(part["calls"])
        out["counts"].update(part["counts"])
        for key, value in part["self_ms"].items():
            out["self_ms"][key] += value
        for key, value in part["verdict_ms"].items():
            out["verdict_ms"][key].extend(value)
    return out


def layer_metrics(summary: dict) -> dict:
    """Flatten a summary into metric names of the form layer.function.calls
    and layer.function.self_ms, plus counts and verdict medians."""
    out: dict[str, float] = {}
    names = [f"{m}.{a}" for m, a in FUNCTIONS] + [f"{m}.{meth}" for m, _, meth in METHODS]
    for name in names:
        out[f"{name}.calls"] = summary["calls"].get(name, 0)
        out[f"{name}.self_ms"] = summary["self_ms"].get(name, 0.0)
    out.update({name: 0 for name in COUNTS})
    out.update(summary["counts"])
    for kind in ("realizable", "excluded", "unknown", "wild"):
        out.setdefault(f"classifier.verdicts.{kind}", 0)
        samples = summary["verdict_ms"].get(kind)
        out[f"classifier.p50_ms.{kind}"] = statistics.median(samples) if samples else 0.0
    return out
