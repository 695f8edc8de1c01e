"""choo benchmark: seeded CLI workloads, checked outputs, traced layer timings.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload flat_store --seed 1 --seconds 25 --trace 0

A run drives `choo.cli.main(argv)` in-process with stdout captured, in a
closed loop with one client, over whole passes of the seed's program pool
until `--seconds` have passed (at least two passes). Every call is checked
against the output the workload's own model predicts. `--trace 0` reports
the end-to-end metrics, with times scaled to reference speed (see
reference.py); `--trace 1` replays each program through the layers with a
span around every call and reports the per-layer metrics.

Before the loop, while the interpreter is still as a user's `choo` starts
it, every run calls `choo parse` on one flat program of several thousand
statements. That is rejected with "nesting too deep", so it counts as the
one failed program at seed; its time stays out of the latency samples.

The last line of stdout is the result object; the line before it holds
the details: source digests, the interpreter's recursion limit and
thread stack size at the start and end of the run, and the exact counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import REFERENCE_MS, reference_seconds, scale
from workloads import WORKLOADS, flat_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"
SETUP_SAMPLES = 15
TRACED_STACK_BYTES = 256 * 1024 * 1024  # the replayed search nests generators as deep as the CLI's

IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import choo.cli; print(time.perf_counter() - t)"
)

# pool totals that must come out the same on every pass and every run of a seed
EXACT_COUNTS = (
    "parser.tokens", "parser.ast_nodes", "interp.steps", "interp.solutions",
    "interp.derivation_nodes", "interp.derivation_height", "terms.output_bytes",
    "oracle.solutions",
)


def interpreter_state() -> dict:
    return {"recursion_limit": sys.getrecursionlimit(), "stack_size": threading.stack_size()}


def measure_setup() -> list:
    """Seconds for fresh interpreters to import choo.cli, at reference speed.

    The reference loop runs here before and after each child. The first,
    warming, sample is dropped.
    """
    samples = []
    ref_before = reference_seconds()
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        ref_after = reference_seconds()
        samples.append(scale(float(done.stdout), (ref_before + ref_after) / 2))
        ref_before = ref_after
    return samples[1:]


def invoke(main, argv):
    """One CLI call with stdout and stderr captured: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed program, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def os_threads() -> int:
    """The process's operating-system threads, or 0 where /proc cannot tell."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def settle(threads: int) -> None:
    """Between CLI calls, leave the process as a fresh `choo` would find it.

    For deep budgets `cli.main` searches on a thread with a stack of its
    own, and its join returns before that operating-system thread has
    ended. Until it has, the C library can neither reuse nor free its
    stack, so a call that starts too soon maps a new one while the old
    one's touched pages stay resident: peak RSS then jumps by several MB
    at random. So wait (up to a second) until only `threads` are left.
    Then collect the previous call's cyclic garbage, so that no call pays
    for another's.
    """
    deadline = time.perf_counter() + 1.0
    while os_threads() > threads and time.perf_counter() < deadline:
        time.sleep(0.0002)
    gc.collect()


def check(program, code, out, err) -> str | None:
    """Why a CLI call did not produce the program's expected result, or None."""
    if code == program.exit_code and out == program.stdout and not err:
        return None
    return f"{program.name}: exit {code!r}, stderr {err.strip()[:200]!r}"


def run_probe(main, probe, path) -> str:
    code, out, err, _ = invoke(main, probe.argv(path))
    problem = check(probe, code, out, err)
    if problem is None:
        return "pass"
    if code == 2 and "nesting too deep" in err:
        return "known-defect"
    return f"wrong: {problem}"


REFERENCE_WINDOW = 10  # reference samples that scale one call: the nearest on both sides


def untraced(main, pool, paths, seconds) -> dict:
    """Closed loop over whole passes, timing the reference loop after every call.

    Each call's time is scaled by the median of the REFERENCE_WINDOW
    reference times nearest to it: one sample is a few milliseconds and
    jitters, while the host's speed drifts over minutes.
    """
    failures = {}  # pool index -> first problem
    calls = []  # (pool index, seconds), in the order they ran
    threads = os_threads()
    settle(threads)
    refs = [reference_seconds()]  # refs[k] is taken just before call k, refs[k + 1] just after
    start = time.perf_counter()
    while len(calls) < 2 * len(pool) or time.perf_counter() - start < seconds:
        for index, (program, path) in enumerate(zip(pool, paths)):
            code, out, err, elapsed = invoke(main, program.argv(path))
            settle(threads)
            refs.append(reference_seconds())
            calls.append((index, elapsed))
            problem = check(program, code, out, err)
            if problem:
                failures.setdefault(index, problem)
    scaled = [[] for _ in pool]  # per program, one scaled time per pass
    half = REFERENCE_WINDOW // 2
    for k, (index, elapsed) in enumerate(calls):
        lo = min(max(0, k + 1 - half), len(refs) - REFERENCE_WINDOW)
        scaled[index].append(scale(elapsed, statistics.median(refs[lo:lo + REFERENCE_WINDOW])))
    passes = [  # (seconds in calls, median reference seconds)
        (sum(t for _, t in calls[i:i + len(pool)]), statistics.median(refs[i + 1:i + 1 + len(pool)]))
        for i in range(0, len(calls), len(pool))
    ]
    return {"scaled": scaled, "failures": failures, "passes": passes}


def traced(main, pool, paths, seconds, probe) -> dict:
    from layers import Tracer, replay  # imports choo, which main() puts on sys.path

    tracer = Tracer()
    # the probe's parse failure shows in parser.errors; it is request 0 and
    # must run before any search raises the recursion limit
    probe_counts = replay(tracer, 0, probe)
    failures, problems = {}, []
    first_counts = {}  # program index -> counts of its first replay
    requests = []  # (request id, pool index)
    # format_tree is timed once per shape, on its first small program
    tree_indices = {}
    for index, program in enumerate(pool):
        if program.size_class == "small":
            tree_indices.setdefault(program.shape, index)
    passes = 0
    threads = os_threads()
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        for index, (program, path) in enumerate(zip(pool, paths)):
            request = len(requests) + 1
            requests.append((request, index))
            settle(threads)
            code, out, err, _ = tracer.call(request, "cli.main", invoke, main, program.argv(path))
            settle(threads)
            problem = check(program, code, out, err)
            if problem:
                failures.setdefault(index, problem)
            with_tree = passes == 0 and index in tree_indices.values()
            counts = replay(tracer, request, program, with_tree)
            problems += [f"{program.name}: {p}" for p in counts.pop("problems")]
            if index not in first_counts:
                first_counts[index] = counts
            elif counts != first_counts[index]:
                problems.append(f"{program.name}: counts changed between passes")
        passes += 1
    return {
        "tracer": tracer, "requests": requests, "failures": failures, "problems": problems,
        "first_counts": first_counts, "probe_counts": probe_counts, "passes": passes,
    }


def on_large_stack(fn):
    """Run fn on a thread whose stack can hold the deepest replayed search."""
    result = {}

    def work():
        try:
            result["value"] = fn()
        except BaseException as err:  # re-raised on the calling thread
            result["error"] = err

    old_size = threading.stack_size()
    threading.stack_size(TRACED_STACK_BYTES)
    try:
        worker = threading.Thread(target=work, name="traced-run")
        worker.start()
    finally:
        threading.stack_size(old_size)
    worker.join()
    if "error" in result:
        raise result["error"]
    return result["value"]


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end_metrics(result, setup_samples, pool_size, attempted, failed) -> dict:
    """Times at reference speed; a program's latency is its median over the passes.

    With one client in a closed loop, throughput is the pool size over the
    time one pass takes at those latencies.
    """
    latencies = [statistics.median(times) for times in result["scaled"]]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "latency_p50_ms": (_ms(statistics.median(latencies)), "ms"),
        "latency_p90_ms": (_ms(statistics.quantiles(latencies, n=10, method="inclusive")[8]), "ms"),
        "throughput_programs_per_s": (pool_size / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": (failed / attempted, "ratio"),
    }


def pool_totals(pool, first_counts) -> dict:
    """Exact counts over one pass of the pool."""
    totals = {}
    for name in EXACT_COUNTS:
        values = [first_counts[i].get(name, 0) for i in range(len(pool))]
        totals[name] = max(values) if name == "interp.derivation_height" else sum(values)
    return totals


def growth_exponent(pool, durations, requests) -> float:
    """Mean over shapes of log(large/small search time) / log(large/small size)."""
    by_key = {}
    for request, index in requests:
        program = pool[index]
        spans = durations[request]
        search = spans.get("interp.first", 0.0) + spans.get("interp.rest", 0.0)
        by_key.setdefault((program.shape, program.size_class), []).append((program.size, search))
    exponents = []
    for shape in sorted({p.shape for p in pool}):
        small, large = by_key[(shape, "small")], by_key[(shape, "large")]
        size_ratio = large[0][0] / small[0][0]
        time_ratio = statistics.median(t for _, t in large) / statistics.median(t for _, t in small)
        exponents.append(math.log(time_ratio) / math.log(size_ratio))
    return statistics.fmean(exponents)


def layer_metrics(pool, result) -> dict:
    tracer, requests = result["tracer"], result["requests"]
    durations = {request: {} for request, _ in requests}  # the probe's spans are left out
    for request, name, _, start, end in tracer.spans:
        if request in durations:
            durations[request][name] = durations[request].get(name, 0.0) + (end - start)

    def mean_ms(name):
        """Milliseconds per program that made the call."""
        times = [spans[name] for spans in durations.values() if name in spans]
        return _ms(statistics.fmean(times)) if times else 0.0

    def total(name):
        return sum(result["first_counts"][index].get(name, 0) for _, index in requests)

    totals = pool_totals(pool, result["first_counts"])
    parse_s = sum(spans["parser.parse"] for spans in durations.values())
    search_s = sum(
        spans.get("interp.first", 0.0) + spans.get("interp.rest", 0.0) for spans in durations.values()
    )
    cli_s = sum(spans["cli.main"] for spans in durations.values())
    path_wall = sum(spans["cli-path"] for spans in durations.values())
    errors = result["probe_counts"]
    return {
        "parser.lex_ms": (mean_ms("parser.lex"), "ms"),
        "parser.parse_ms": (mean_ms("parser.parse"), "ms"),
        "parser.tokens": (totals["parser.tokens"], "count"),
        "parser.ast_nodes": (totals["parser.ast_nodes"], "count"),
        "parser.tokens_per_s": (total("parser.tokens") / parse_s, "1/s"),
        "parser.errors": (total("parser.errors") + errors["parser.errors"], "count"),
        "syntax.format_ms": (mean_ms("syntax.format"), "ms"),
        "interp.first_ms": (mean_ms("interp.first"), "ms"),
        "interp.rest_ms": (mean_ms("interp.rest"), "ms"),
        "interp.steps": (totals["interp.steps"], "count"),
        "interp.steps_per_s": (total("interp.steps") / search_s, "1/s"),
        "interp.solutions": (totals["interp.solutions"], "count"),
        "interp.derivation_nodes": (totals["interp.derivation_nodes"], "count"),
        "interp.derivation_height": (totals["interp.derivation_height"], "count"),
        "interp.useful_step_ratio": (totals["interp.derivation_nodes"] / totals["interp.steps"], "ratio"),
        "interp.growth_exponent": (growth_exponent(pool, durations, requests), "exponent"),
        "interp.errors": (total("interp.errors") + errors["interp.errors"], "count"),
        "derivation.format_tree_ms": (mean_ms("derivation.format_tree"), "ms"),
        "terms.format_ms": (mean_ms("terms.format"), "ms"),
        "terms.output_bytes": (totals["terms.output_bytes"], "count"),
        "cli.overhead_ms": (_ms((cli_s - path_wall) / len(requests)), "ms"),
        "oracle.check_ms": (mean_ms("oracle.check"), "ms"),
        "oracle.enumerate_ms": (mean_ms("oracle.enumerate"), "ms"),
        "oracle.solutions": (totals["oracle.solutions"], "count"),
        "oracle.mismatches": (total("oracle.mismatches"), "count"),
        "trace.overhead_ratio": (path_wall / cli_s, "ratio"),
    }


def counts_key(digests) -> str:
    """Identifies the code and inputs that exact counts depend on."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("choo/*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update(json.dumps(digests, sort_keys=True).encode())
    return h.hexdigest()[:16]


def compare_with_earlier_run(workload, seed, key, totals) -> str | None:
    """Record the exact counts of this code and seed, or compare with a recorded run."""
    record = STATE / "counts" / f"{workload}-seed{seed}-{key}.json"
    if record.exists():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        if earlier != totals:
            return f"exact counts differ from an earlier run of seed {seed}: {earlier} vs {totals}"
        return None
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(totals, sort_keys=True), encoding="utf-8")
    return None


def write_spans(tracer, workload, seed) -> None:
    STATE.mkdir(exist_ok=True)
    with open(STATE / f"spans-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as f:
        for request, name, parent, start, end in tracer.spans:
            f.write(json.dumps({"request": request, "name": name, "parent": parent,
                                "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    state_at_start = interpreter_state()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "choo" / "__init__.py").is_file():
        print(f"no choo sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from choo import cli

    pool = WORKLOADS[args.workload](args.seed)
    probe = flat_probe(args.seed)
    digests = {p.name: hashlib.sha256(p.source.encode()).hexdigest() for p in [*pool, probe]}
    workdir = STATE / f"programs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, program in enumerate([*pool, probe]):
            path = workdir / f"{i:02d}-{program.name}.choo"
            path.write_text(program.source, encoding="utf-8")
            paths.append(str(path))
        probe_path = paths.pop()

        # the probe needs the untouched interpreter a user's `choo` starts with
        probe_result = run_probe(cli.main, probe, probe_path)
        if args.trace:
            result = on_large_stack(lambda: traced(
                cli.main, pool, paths, args.seconds, probe))
        else:
            setup_samples = measure_setup()
            result = untraced(cli.main, pool, paths, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    state_at_end = interpreter_state()

    # programs, not calls: every program of the pool and the probe, and a
    # program fails if any of its calls does. The probe's known defect is
    # counted as failed but does not make the run incorrect.
    problems = list(result["failures"].values())
    attempted = len(pool) + 1
    failed = len(result["failures"]) + (probe_result != "pass")
    if probe_result.startswith("wrong"):
        problems.append(f"probe {probe_result}")
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "programs": len(pool), "probe": probe_result,
        "interpreter_at_start": state_at_start, "interpreter_at_end": state_at_end,
        "sources_sha256": digests,
    }
    if args.trace:
        metrics = layer_metrics(pool, result)
        problems += result["problems"]
        totals = pool_totals(pool, result["first_counts"])
        key = counts_key(digests)
        mismatch = compare_with_earlier_run(args.workload, args.seed, key, totals)
        if mismatch:
            problems.append(mismatch)
        details["passes"] = result["passes"]
        details["exact_counts"] = totals
        details["counts_key"] = key
        write_spans(result["tracer"], args.workload, args.seed)
    else:
        metrics = end_to_end_metrics(result, setup_samples, len(pool), attempted, failed)
        # the unscaled pass times, and the reference times that scaled them
        details["reference_ms"] = REFERENCE_MS
        details["passes"] = [{"seconds": t, "reference_s": ref} for t, ref in result["passes"]]
        details["setup_samples_s"] = setup_samples
    details["problems"] = problems[:20]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
