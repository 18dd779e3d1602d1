"""Decision benchmark: end-to-end query latency and per-stage cost of `nwaq`.

    python3 bench/run.py --workload ladder --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --selfcheck

Run from the root of a checkout; the package is imported from its `src/`.
Set-up writes the workload's seeded `.nwa` files under `.bench_work/` and
imports the package afresh. Queries then run as a closed loop: one client, in
this process and thread, sends each query to `nwaq.cli.main` after the
previous one returns, replaying every certificate with `eval` as it arrives.
Whole passes over the query list repeat until `--seconds` is spent. Times are
reported scaled to reference speed (see `speed.py`). Every answer is checked
afterwards. `--trace 1` adds spans around each layer's functions and reports
per-layer figures instead of the end-to-end ones. The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
MIN_PASSES = 3  # every query's latency is its median over these
TRACED_PASSES = 2  # least untraced and traced passes of a traced run
EVAL_REPEATS = 3

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import Checker, Outcome, replay_label, replay_word  # noqa: E402

# per-layer metric name -> (span or counter it reads, unit)
LAYER_METRICS = {
    "meanpayoff.infimum_ratio.s": ("meanpayoff.infimum_ratio", "s"),
    "meanpayoff.threshold_emptiness.s": ("meanpayoff.threshold_emptiness", "s"),
    "meanpayoff.infimum_ratio.peak_mb": ("meanpayoff.infimum_ratio", "MB"),
    "reduce.fragment_automaton.s": ("reduce.fragment_automaton", "s"),
    "reduce.fragment_automaton.peak_mb": ("reduce.fragment_automaton", "MB"),
    "reduce.fragment_nodes": ("reduce.fragment_nodes", "count"),
    "reduce.fragment_edges": ("reduce.fragment_edges", "count"),
    "reduce.reduce_width1.s": ("reduce.reduce_width1", "s"),
    "reduce.reduced_states": ("reduce.reduced_states", "count"),
    "reduce.compound_slaves": ("reduce.compound_slaves", "count"),
    "starcond.check_star_condition.s": ("starcond.check_star_condition", "s"),
    "starcond.pump_witness.s": ("starcond.pump_witness", "s"),
    "starcond.hits": ("starcond.hits", "count"),
    "width.has_width.s": ("width.has_width", "s"),
    "determinize.explore.s": ("determinize.explore", "s"),
    "determinize.configs": ("determinize.configs", "count"),
    "determinize.config_edges": ("determinize.config_edges", "count"),
    "determinize.materialize_deterministic.s": ("determinize.materialize_deterministic", "s"),
    "determinize.det_states": ("determinize.det_states", "count"),
    "determinize.det_letters": ("determinize.det_letters", "count"),
    "core.validate_nwa.s": ("core.validate_nwa", "s"),
    "core.is_deterministic.s": ("core.is_deterministic", "s"),
    "textio.parse_nwa.s": ("textio.parse_nwa", "s"),
    "cli.main.s": ("cli.main", "s"),
    "decide.overhead_s": (spans.PIPELINE, "s"),
    "oracle.evaluate_lasso.s": ("oracle.evaluate_lasso", "s"),
    "oracle.evaluate_lasso.calls": ("oracle.evaluate_lasso.calls", "count"),
    "trace.overhead_s": (None, "s"),
}


def load_program():
    """Import `nwaq.cli` from this checkout's `src/`, executing every module anew."""
    for name in [n for n in sys.modules if n == "nwaq" or n.startswith("nwaq.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("nwaq.cli")
    importlib.import_module("nwaq.oracle")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nwaq imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, quick: bool, workdir: Path):
    """Generate the inputs, write them, and import the program."""
    instances = workloads.build(workload, seed, quick)
    workdir.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        (workdir / f"{inst.name}.nwa").write_text(inst.text, encoding="utf-8")
        if inst.replay_text is not None:
            (workdir / f"{inst.name}.det.nwa").write_text(inst.replay_text, encoding="utf-8")
    return instances, load_program()


class Pass:
    """Outcomes and latencies of one closed-loop pass over the query list."""

    def __init__(self):
        self.outcomes: list[dict[str, Outcome]] = []  # per instance: query label -> outcome
        # query kind -> (instance index, label) -> reference-speed ns
        self.latency: dict[str, dict[tuple[int, str], int]] = {"decide": {}, "eval": {}}


def typical(passes: list[Pass], kind: str) -> list[float]:
    """Each query's median latency over the passes, in reference-speed ns, sorted.

    A median, unlike a least value, does not fall as more passes fit in a run,
    so a run on a slow machine reads the same as one on a fast machine.
    """
    out: dict[tuple[int, str], list[float]] = {}
    for p in passes:
        for key, ns in p.latency[kind].items():
            out.setdefault(key, []).append(ns)
    return sorted(statistics.median(v) for v in out.values())


def wall_s(passes: list[Pass]) -> float:
    """Time to answer the whole query list once, each query at its median."""
    return (sum(typical(passes, "decide")) + sum(typical(passes, "eval"))) / 1e9


def _ask(main, argv: list[str]) -> tuple[Outcome, int, int]:
    """The outcome of one query, with its start and end `perf_counter_ns()`."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a crash is an outcome to report, not a reason to stop
        return Outcome(None, out.getvalue(), repr(exc)), start, time.perf_counter_ns()
    return Outcome(code, out.getvalue(), err.getvalue()), start, time.perf_counter_ns()


def plan(instances, seed: int, workdir: Path) -> list[tuple[int, str, list[str], str]]:
    """One pass's queries in a seeded order: (instance index, label, argv, replay file).

    Shuffling spreads each instance's queries over the pass, so a slow spell
    of a shared machine does not fall on one kind of query only.
    """
    steps = []
    for i, inst in enumerate(instances):
        path = str(workdir / f"{inst.name}.nwa")
        replay_path = str(workdir / f"{inst.name}.det.nwa") if inst.replay_text is not None else path
        k = str(inst.k)
        for args in inst.decisions:
            flags = [f"{args[j]}={args[j + 1]}" for j in range(1, len(args), 2)]
            steps.append((i, " ".join(args), [args[0], path, "--k", k] + flags, replay_path))
        for j, word in enumerate(inst.words):
            steps.append((i, f"word{j}", ["eval", replay_path, "--word", word, "--cap", k], replay_path))
    random.Random(seed).shuffle(steps)
    return steps


def one_pass(main, instances, steps, on_query=None) -> Pass:
    """Run the steps; a decision whose certificate has a lasso is replayed with `eval` at once.

    An `eval` is cheap next to a decision, so it runs EVAL_REPEATS times in a
    row and keeps its least latency: many samples per query, for little time.
    Latencies are kept scaled to reference speed (see `speed.py`).
    """
    p = Pass()
    p.outcomes = [{} for _ in instances]
    timed = []  # (kind, key, start ns, end ns)

    def ask(i, label, kind, argv):
        for _ in range(EVAL_REPEATS if kind == "eval" else 1):
            if on_query:
                on_query()
            o, start, end = _ask(main, argv)
            p.outcomes[i].setdefault(label, o)
            timed.append((kind, (i, label), start, end))
        return p.outcomes[i][label]

    with Speed() as clock:
        for i, label, argv, replay_path in steps:
            if argv[0] == "eval":
                ask(i, label, "eval", argv)
                continue
            o = ask(i, label, "decide", argv)
            try:
                word = replay_word(json.loads(o.out))
            except (ValueError, AttributeError):
                word = None
            if word is not None:
                ask(i, replay_label(label), "eval", ["eval", replay_path, "--word", word, "--cap", str(instances[i].k)])
    for kind, key, start, end in timed:
        scaled = clock.scaled(start, end)
        p.latency[kind][key] = min(scaled, p.latency[kind].get(key, scaled))
    return p


def repeat(seconds: float, run_pass, least: int) -> list[Pass]:
    """Whole passes while the next one is expected to fit in `seconds`; at least `least`."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        # Start every pass from a clean heap, and keep the benchmark's own growing
        # records out of the program's garbage collections.
        gc.collect()
        gc.freeze()
        t = time.perf_counter()
        passes.append(run_pass())
        walls.append(time.perf_counter() - t)
        if len(passes) >= least and time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes


def tail(ordered: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond it, by nearest rank."""
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def check(instances, passes: list[Pass]):
    """(attempted, failed, failure list); failures are (instance, query, defect class, message)."""
    checker = Checker()
    memo: dict[tuple, dict] = {}
    attempted = failed = 0
    listed: dict[tuple, None] = {}
    for p in passes:
        for inst, outcomes in zip(instances, p.outcomes):
            key = (inst.name, tuple(sorted(outcomes.items())))
            if key not in memo:
                try:
                    memo[key] = checker.check(inst, outcomes)
                except Exception as err:  # a checker crash fails the instance, visibly
                    memo[key] = {"(check)": (None, f"check raised {err!r}")}
            attempted += len(outcomes)
            failed += len(memo[key])
            for label, (cls, msg) in memo[key].items():
                listed[(inst.name, label, cls, msg)] = None
    return attempted, failed, list(listed)


def end_to_end(setup_times: list[float], passes: list[Pass], rss_mb: float) -> dict[str, tuple[float, str, str]]:
    out = {"setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups")}
    out["wall_s"] = (wall_s(passes), "s", f"sum of each query's median of {len(passes)} passes")
    for kind in ("decide", "eval"):
        samples = typical(passes, kind)
        out[f"{kind}_p50_ms"] = (statistics.median(samples) / 1e6, "ms", f"n={len(samples)} queries, median of {len(passes)} passes")
        value, pct = tail(samples)
        out[f"{kind}_tail_ms"] = (value / 1e6, "ms", f"p{pct:.4g}, n={len(samples)} queries, median of {len(passes)} passes")
    out["peak_rss_mb"] = (rss_mb, "MB", "high-water RSS of this process")
    return out


def per_layer(untraced: list[Pass], timed: list[tuple[Pass, spans.Tracer]], memory: spans.Tracer) -> dict:
    per_pass = []
    for _, tr in timed:
        figures = dict(tr.self_times())
        figures.update(tr.counts)
        per_pass.append(figures)
    peaks = memory.peak_mb()
    out = {}
    for name, (source, unit) in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = wall_s([p for p, _ in timed]) - wall_s(untraced)
            note = "traced minus untraced wall_s"
        elif unit == "MB":
            value, note = peaks.get(source, 0.0), "tracemalloc peak, largest call"
        else:
            value = statistics.median(f.get(source, 0) for f in per_pass)
            note = f"median of {len(per_pass)} traced passes" + (", self time" if unit == "s" else "")
        out[name] = (value, unit, note)
    return out


def run(workload: str, seed: int, seconds: float, traced: bool, quick: bool = False) -> dict:
    workdir = WORK / f"{workload}-{seed}"
    setup_times = []
    with Speed() as clock:
        for _ in range(1 if traced else SETUP_REPEATS):
            start = time.perf_counter_ns()
            instances, cli = set_up(workload, seed, quick, workdir)
            setup_times.append((start, time.perf_counter_ns()))
    setup_times = [clock.scaled(start, end) / 1e9 for start, end in setup_times]
    steps = plan(instances, seed, workdir)
    budget, least = (seconds / 3, TRACED_PASSES) if traced else (seconds, MIN_PASSES)
    untraced = repeat(budget, lambda: one_pass(cli.main, instances, steps), least)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = list(untraced)
    if traced:
        timed = []
        # every decision runs the whole pipeline, so one per automaton shows each stage's peak
        firsts = {(i, " ".join(inst.decisions[0])) for i, inst in enumerate(instances)}
        memory_steps = [s for s in steps if s[2][0] == "eval" or s[:2] in firsts]

        def traced_pass(memory=False):
            tr = spans.Tracer(memory=memory)
            tr.install()
            try:
                p = one_pass(tr.entry(cli.main), instances, memory_steps if memory else steps, tr.next_query)
            finally:
                tr.uninstall()
            return p, tr

        def timed_pass():
            timed.append(traced_pass())
            return timed[-1][0]

        passes += repeat(budget, timed_pass, least)
        tracemalloc.start()
        try:
            mem_pass, memory = traced_pass(memory=True)
        finally:
            tracemalloc.stop()
        passes.append(mem_pass)
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for n, (_, tr) in enumerate(timed + [(mem_pass, memory)]):
                tr.write(fh, n)
        metrics = per_layer(untraced, timed, memory)
    else:
        metrics = end_to_end(setup_times, untraced, rss_mb)
    attempted, failed, failures = check(instances, passes)
    return {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def report(res: dict) -> dict:
    """Print the human-readable lines; return the result object for the last line."""
    for name, (value, unit, note) in res["metrics"].items():
        print(f"{res['workload']:8s} {name:42s} {value:14.6f} {unit:5s} ({note})")
    share = res["failed"] / res["attempted"]
    print(f"{res['workload']:8s} {'failed_share':42s} {share:14.6f} {'':5s} ({res['failed']} of {res['attempted']} queries)")
    for inst, label, cls, msg in res["failures"]:
        kind = f"open defect {cls}" if cls else "unexpected"
        print(f"FAIL workload={res['workload']} seed={res['seed']} instance={inst} query={label!r} [{kind}]: {msg}")
    return {
        "correct": all(cls is not None for _, _, cls, _ in res["failures"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in res["metrics"].items()},
    }


def selfcheck() -> int:
    """Every workload on its cut-down list, traced and untraced; validate the result schema."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    unknown = {w["name"] for w in spec["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for workload in workloads.WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result = report(run(workload, 0, 0, traced, quick=True))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} trace={int(traced)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
                problems.append(f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: non-numeric metric value")
            if not result["correct"]:
                problems.append(f"{where}: incorrect answers")
    for p in problems:
        print("selfcheck:", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="quick run of every workload, validating the output")
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as err:
        print(f"cannot import the program from {SRC}: {err}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    result = report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
