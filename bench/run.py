"""The tamedeg benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the program under src/ of the checkout it
sits in.  One process, one thread, closed loop: the next op is sent only
after the previous one returned, as a researcher waiting on each answer
would.  Every output is checked against bench/reference/ (see
make_reference.py); a mismatch, an exception, a nonzero exit or a
search violation counts as a failed op.

--trace 0 measures the end-to-end metrics with the program untouched, and
checks that no function of the program is wrapped.  It runs the whole
decks that take about S seconds at the reference speed of the machine
(Workload.decks_for), so that every run of a workload does the same work
on any commit.  Its times are scaled to that reference speed, which
reference work timed between the ops measures (speed.py); the raw
figures are printed beside them.
--trace 1 runs a fixed number of decks per workload (Workload.trace_decks,
whatever S is, so that per-layer counts compare between commits) twice:
untraced and then traced (tracer.py).  It reports per-layer figures and
the tracing overhead.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the metric names and units are those of BENCHMARK.json.  The
lines before it give the same figures for people, with the environment,
the input mix and the bases of every ratio.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import tracer as tr
import workloads as wl
from speed import Speed

LADDER = (50, 75, 90, 95, 99)
SETUP_REPEATS = 9
IMPORT_REPEATS = 5


@dataclass
class Pass:
    calls: int = 0
    units: int = 0
    failed: int = 0
    busy_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    # Per latency sample: how many speed timings were taken before the op.
    speed_at: list = field(default_factory=list)
    mix: Counter = field(default_factory=Counter)
    layer: Counter = field(default_factory=Counter)


def timed_pass(workload, decks: int, tracer=None, speed=None) -> Pass:
    """Run `decks` whole decks of ops closed-loop.  Only the program call is
    timed; checking and the `speed` reference work happen between calls."""
    out = Pass()
    clock = time.perf_counter
    for item in workload.inputs():
        if tracer is not None:
            tracer.op = out.calls
        t0 = clock()
        try:
            result = workload.call(item)
        except Exception as exc:  # a failed op, reported and counted
            elapsed = clock() - t0
            if out.failed < 5:
                print(f"op {out.calls} raised {exc!r}", file=sys.stderr)
            units, failed = 1, 1
        else:
            elapsed = clock() - t0
            units, failed = workload.check(item, result)
            out.layer.update(workload.layer_counts(result))
        out.calls += 1
        out.units += units
        out.failed += failed
        out.busy_s += elapsed
        if units:
            out.latencies_ms.append(elapsed * 1e3 / units)
            if speed is not None:
                out.speed_at.append(len(speed.samples))
        out.mix.update(workload.mix(item))
        if speed is not None:
            speed.after(elapsed)
        if out.calls == decks * workload.deck_size:
            break
    return out


def tail(samples) -> tuple[int, float]:
    """Highest percentile of LADDER with at least ten samples beyond it
    (nearest rank); the maximum, as percentile 100, for tiny runs."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (100, ordered[-1])
    for q in LADDER:
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            best = (q, ordered[rank - 1])
    return best


def measure_setup(name: str, seed: int, repeats: int, speed: Speed) -> list[float]:
    """Seconds from process start to ready-for-the-first-op, in fresh
    processes that do exactly the set-up of a run, with the `speed`
    reference timed between them."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise wl.BenchError(f"set-up probe failed: {err.strip()}")
        times.append(elapsed)
        speed.after(elapsed)
    return times


def cli_import_ms(repeats: int) -> float:
    """Median time of `import tamedeg.cli` in a fresh interpreter minus the
    median time of a bare interpreter start."""
    env = wl.program_env()
    bare, full = [], []
    for _ in range(repeats):
        for code, sink in (("pass", bare), ("import tamedeg.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=wl.ROOT, check=True)
            sink.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(full) - statistics.median(bare)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "tamedeg").rglob("*.py")):
        digest.update(path.relative_to(wl.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = "unavailable (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha, "src_sha256": digest.hexdigest()}


def end_to_end(name, seed, workload, seconds):
    setup_rss = peak_rss_mb(children=name == "cli")
    tr.assert_unwrapped()
    speed = Speed(process=name == "cli")
    speed.measure()
    run = timed_pass(workload, workload.decks_for(seconds), speed=speed)
    tr.assert_unwrapped()
    rss = peak_rss_mb(children=name == "cli")
    setup_speed = Speed(process=True)
    setup_speed.measure()
    setups = measure_setup(name, seed, SETUP_REPEATS, setup_speed)
    scale, setup_scale = speed.factor(), setup_speed.factor()
    local = [ms * speed.local_factor(at) for ms, at in zip(run.latencies_ms, run.speed_at)]
    q, tail_ms = tail(local)
    # Throughput and set-up are means, scaled by the run's mean speed; the
    # latency quantiles are scaled op by op (Speed.local_factor).
    raw = {
        "ops_per_s": run.units / run.busy_s,
        "op_p50_ms": statistics.median(run.latencies_ms),
        "op_tail_ms": tail(run.latencies_ms)[1],
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": statistics.median(local),
        "op_tail_ms": tail_ms,
        "setup_s": raw["setup_s"] * setup_scale,
        "peak_rss_mb": rss,
    }
    print(f"{name}: {run.calls} calls ({workload.decks_for(seconds)} decks), "
          f"{run.units} {workload.unit}s in {run.busy_s:.3f} s busy")
    print(f"speed during the ops: {speed.describe()}")
    print(f"speed during set-up: {setup_speed.describe()}")
    print("raw, unscaled: " + ", ".join(f"{k} = {v}" for k, v in raw.items()))
    print(f"error_rate = {run.failed / max(run.units, 1)} ({run.failed}/{run.units} {workload.unit}s)")
    print(f"op_tail_ms is p{q} of {len(run.latencies_ms)} samples")
    print(f"setup_s samples (raw): {setups}")
    print(f"peak_rss_mb was {setup_rss} MB after set-up, before the first timed op")
    return run, [run], metrics


def _ratio(out: dict, name: str, num: float, den: float) -> None:
    out[name] = num / den if den else 0.0
    out[f"{name}.num"] = num
    out[f"{name}.den"] = den


def _cli_metrics(workload) -> dict:
    """cli.* figures from the untraced probe pass of the cli workload; all
    0 for the in-process workloads."""
    commands = dict.fromkeys(a[0] for a in wl.CLI_COMMANDS)
    out = dict.fromkeys(["cli.import_ms", "cli.startup_ms"]
                        + [f"cli.main_ms.{c}" for c in commands], 0.0)
    reports = workload.probe_reports["0"] if isinstance(workload, wl.CliWorkload) else []
    if reports:
        out["cli.import_ms"] = cli_import_ms(IMPORT_REPEATS)
        out["cli.startup_ms"] = statistics.median(r["wall_ms"] - r["main_ms"] for r in reports)
    for command in commands:
        samples = [r["main_ms"] for r in reports if r["command"] == command]
        if samples:
            out[f"cli.main_ms.{command}"] = statistics.median(samples)
    return out


def per_layer(name, workload):
    """The workload's trace decks untraced, then the same inputs traced."""
    is_cli = name == "cli"
    decks = workload.trace_decks
    workload.probe = "0" if is_cli else None
    base = timed_pass(workload, decks)
    if is_cli:
        workload.probe = "1"
        traced = timed_pass(workload, decks)
        summary = tr.merge_summaries(r["summary"] for r in workload.probe_reports["1"])
    else:
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = timed_pass(workload, decks, tracer=tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        wl.OUT_DIR.mkdir(exist_ok=True)
        path = wl.OUT_DIR / f"spans-{name}.tsv"
        print(f"wrote {tracer.write_tsv(path)} spans to {path}")
    m = tr.layer_metrics(summary)
    counts = traced.layer
    for key in ("samples_drawn", "emitted", "duplicates", "degree_pruned", "budget_skipped"):
        m[f"search.{key}"] = counts[key]
    _ratio(m, "automorphisms.realize_per_realizable",
           m["automorphisms.realize.calls"], m["classifier.verdicts.realizable"])
    _ratio(m, "search.emit_ratio", counts["emitted"], counts["samples_drawn"])
    _ratio(m, "search.verdict_cache_hit_ratio",
           counts["cache_lookups"] - m["search.verdict_cache_misses"], counts["cache_lookups"])
    m.update(_cli_metrics(workload))
    m["trace.overhead_s"] = traced.busy_s - base.busy_s
    m["trace.overhead_pct"] = 100 * m["trace.overhead_s"] / base.busy_s
    print(f"{name}: {base.calls} calls untraced in {base.busy_s:.3f} s, "
          f"traced in {traced.busy_s:.3f} s; overhead {m['trace.overhead_s']:.3f} s "
          f"({m['trace.overhead_pct']:.1f}%)")
    for ratio in ("automorphisms.realize_per_realizable", "search.emit_ratio",
                  "search.verdict_cache_hit_ratio"):
        print(f"{ratio} = {m[ratio]} ({m[ratio + '.num']}/{m[ratio + '.den']})")
    return base, [base, traced], m


def setup_workload(name: str, seed: int):
    td = wl.import_program()
    workload = wl.WORKLOADS[name](td, seed)
    workload.warm_up()
    # Keep the reference tables out of the collections the program triggers.
    gc.collect()
    gc.freeze()
    return workload


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = setup_workload(name, seed)
    print("env: " + json.dumps(environment(), sort_keys=True))
    if trace:
        first, passes, values = per_layer(name, workload)
        wanted = spec["per_layer"]
    else:
        first, passes, values = end_to_end(name, seed, workload, seconds)
        wanted = spec["end_to_end"]
    print("input mix (expected verdicts, or commands): "
          + json.dumps(dict(sorted(first.mix.items()))))
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value} {metric['unit']}")
    attempted = sum(p.units for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="program seconds of the untraced run at the reference speed, "
                             "rounded up to whole decks; --trace 1 ignores it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_workload(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (wl.BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
