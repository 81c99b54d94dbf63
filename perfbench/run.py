"""Ringload benchmark: closed-loop workloads, one caller in one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload round_corpus --seed 1 --seconds 24 --trace 0

Each op starts when the previous one returns.  A run sets the workload
up several times (in child interpreters, plus once in this process) and
reports the median set-up time.  It then replays the workload's fixed
pass of ops until ``--seconds`` of op time are used.

On a shared host the machine's speed drifts by tens of percent, over
seconds and over minutes.  Two things keep the figures comparable:
each op's latency is the fastest of its repeats, and every time is
divided by the run's slowdown, the fastest times of a fixed set of
stdlib-only reference computations (``arith.py``), replayed between the
ops of every pass (and between the set-ups), over their nominal total.
The unscaled throughput and the slowdown are printed beside the result.

Each output is checked outside the timed section, later passes must
reproduce the first pass's outputs, and at the recorded seed the digest
of the first pass must match ``expected.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run,
compared with an untraced stretch of the same run for the tracing
overhead.  Exit status is 0 only when every check passed; a checkout
without ``src/ringload`` exits with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 8  # child interpreters, besides the set-up in this process
CLI_REPEATS = 11
UNTRACED_SHARE = 1 / 3  # of a traced run's time, spent without tracing
# fastest total time of the reference computations on an idle 2-core x86
# host; a run's times are divided by how much slower it ran them
REFERENCE_NOMINAL_S = 0.033


def tail_rank(n: int) -> float:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    best = 50.0
    for pct in (90.0, 99.0, 99.9):
        if n * (1 - pct / 100) >= 10:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_command(argv) -> float:
    """Median wall seconds of running ``argv`` to completion, one at a time."""
    samples = []
    for _ in range(CLI_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def time_each(ops, run) -> list[float]:
    times = []
    for op in ops:
        start = time.perf_counter()
        run(op)
        times.append(time.perf_counter() - start)
    return times


def set_up(name: str, seed: int, workdir: Path):
    """Import the library, generate the inputs, write the CLI input file
    and warm up; returns (workload, CLI input path)."""
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    cli_path = workdir / "input.txt"
    cli_path.write_text(wl.cli_text, encoding="utf-8")
    for op in wl.ops[: wl.warmup]:
        wl.run(op)
    return wl, cli_path


class Loop:
    """Replays the pass, keeping every op's latency per pass, with the
    reference computations spread evenly between the ops.  Outputs are
    checked between ops, untimed: the first pass in full, later passes
    by comparing fingerprints with the first."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference_ops = reference
        self.reference: list[str] | None = None
        self.passes: list[list[float]] = []
        self.reference_passes: list[list[float]] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.passes) * len(self.wl.ops)

    def verify(self, index, op, out, error, fingerprints) -> str | None:
        if error is not None:
            problem = f"op {index} raised {error!r}"
            fp = problem
        else:
            try:
                fp = self.wl.fingerprint(op, out)
                if fingerprints is not None:
                    self.wl.check(op, out)
                problem = None
            except Exception as exc:  # a failed check, or an output of the wrong shape
                fp = problem = f"op {index}: {exc}"
        if fingerprints is not None:
            fingerprints.append(fp)
        elif problem is None and fp != self.reference[index]:
            problem = f"op {index} output differs from the first pass"
        return problem

    def run(self, seconds: float, call, run_reference, tracer=None) -> None:
        clock = time.perf_counter
        n, refs = len(self.wl.ops), self.reference_ops
        slots = [k * n // len(refs) for k in range(len(refs))]
        total = 0.0
        while not self.passes or total * (1 + 1 / len(self.passes)) <= seconds:
            fingerprints = [] if self.reference is None else None
            latencies, ref_latencies = [], []
            for index, op in enumerate(self.wl.ops):
                while len(ref_latencies) < len(refs) and slots[len(ref_latencies)] == index:
                    start = clock()
                    run_reference(refs[len(ref_latencies)])
                    ref_latencies.append(clock() - start)
                if tracer is not None:
                    tracer.op = self.attempted + index
                    tracer.active = True
                error = out = None
                start = clock()
                try:
                    out = call(op)
                except Exception as exc:  # counted as a failed op; the loop goes on
                    error = exc
                latencies.append(clock() - start)
                if tracer is not None:
                    tracer.active = False
                problem = self.verify(index, op, out, error, fingerprints)
                if problem is not None:
                    self.failures.append(problem)
            if fingerprints is not None:
                self.reference = fingerprints
            self.passes.append(latencies)
            self.reference_passes.append(ref_latencies)
            total += sum(latencies)

    def best(self, passes: int | None = None) -> list[float]:
        """Each op's fastest repeat (over the first ``passes`` passes),
        in nominal seconds."""
        slowdown = self.slowdown(passes)
        return [min(column) / slowdown for column in zip(*self.passes[:passes])]

    def slowdown(self, passes: int | None = None) -> float:
        """How much slower than nominal the machine ran the reference."""
        fastest = (min(column) for column in zip(*self.reference_passes[:passes]))
        return sum(fastest) / REFERENCE_NOMINAL_S

    def ops_per_s(self) -> float:
        return len(self.wl.ops) / sum(self.best())

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.reference).encode()).hexdigest()


def src_loc() -> dict[str, int]:
    out = {}
    for path in sorted((SRC / "ringload").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            out["init" if path.stem == "__init__" else path.stem] = sum(1 for _ in fh)
    out["src"] = sum(out.values())
    return out


def git_commit() -> str:
    """Commit of a git checkout, read from ``.git`` directly; "unknown"
    elsewhere (the benchmark also runs from plain source trees)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_samples, setup_slowdown, peak_rss_mb):
    best = loop.best()
    pct = tail_rank(len(best))
    slowdown = loop.slowdown()
    print(f"# op latencies: fastest of {len(loop.passes)} repeats of each of {len(best)} ops; "
          f"op_tail_ms is p{pct:g} ({len(best) - math.ceil(pct / 100 * len(best))} ops beyond it)")
    print(f"# machine slowdown {slowdown:.4f} in the loop, {setup_slowdown:.4f} in set-up; "
          f"unscaled {loop.ops_per_s() / slowdown:.6g} ops/s, "
          f"set-up samples {', '.join(f'{x:.4f}' for x in setup_samples)} s")
    return {
        "ops_per_s": metric(loop.ops_per_s(), "ops/s"),
        "op_p50_ms": metric(percentile(best, 50) * 1e3, "ms"),
        "op_tail_ms": metric(percentile(best, pct) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup_samples) / setup_slowdown, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
    }


def per_layer(loop, traced, tracer, counts, cli_path):
    import tracing

    n = traced.attempted
    slowdown = traced.slowdown()
    calls, own, durations = tracer.self_times(slowdown)
    tally = tracer.tally
    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    def ratio(num, den):
        return num / den if den else 0.0

    for name in tracing.SPANS:
        if name != "cli.parse_input_text":
            put(f"{name}.self_ms_per_op", own[name] / n * 1e3, "ms/op")
    for name in ("core.additive_performance", "greedy.forward_greedy", "greedy.backward_greedy",
                 "greedy.is_proper", "exact.min_additive_performance"):
        put(f"{name}.calls_per_op", calls[name] / n, "count/op")
    for name in tracing.COUNTS:
        put(f"{name}_per_op", counts[name] / n, "count/op")
    for layer in tracing.LAYERS:
        total = sum(t for name, t in own.items()
                    if name.startswith(layer + ".") and name != "cli.parse_input_text")
        put(f"{layer}.self_ms_per_op", total / n * 1e3, "ms/op")

    mains, kept = calls["rounding.round_main"], tally["rounding.baseline_kept"]
    crossovers, closeness = calls["rounding.crossover"], calls["rounding.closeness"]
    put("rounding.baseline_kept_frac", ratio(kept, mains), "ratio")
    put("rounding.closeness_calls_per_crossover", ratio(closeness, crossovers), "ratio")
    print(f"# bases: {mains} round_main calls, {kept} kept the baseline; "
          f"{closeness} closeness calls, {crossovers} crossovers")

    oracle = durations["exact.min_additive_performance"]
    pct = tail_rank(len(oracle))
    put("exact.min_additive_performance.call_p50_ms",
        percentile(oracle, 50) * 1e3 if oracle else 0.0, "ms")
    put("exact.min_additive_performance.call_tail_ms",
        percentile(oracle, pct) * 1e3 if oracle else 0.0, "ms")
    masks, oracle_self = tally["exact.masks"], own["exact.min_additive_performance"]
    put("exact.masks_per_s", ratio(masks, oracle_self), "masks/s")
    print(f"# {len(oracle)} oracle calls, call_tail_ms is p{pct:g}; exact.masks_per_s is "
          f"computed: {masks} masks enumerated over {oracle_self:.6g} s of oracle self time")

    put("boost.ring_nodes_per_op", tally["boost.ring_nodes"] / n, "count/op")
    put("boost.demands_per_op", tally["boost.demands"] / n, "count/op")
    put("reduce.uncross_steps_per_op", tally["reduce.uncross_steps"] / n, "count/op")
    put("reduce.reduced_m_mean", ratio(tally["reduce.reduced_m"], tally["reduce.reduced"]), "count")
    oracle_calls = tracer.parent_layer_calls("exact.min_additive_performance", "adversary")
    put("adversary.oracle_calls_per_op", oracle_calls / n, "count/op")
    put("adversary.lp_bytes_per_op", tally["adversary.lp_bytes"] / n, "bytes/op")

    put("cli.parse_input_text.self_ms_per_op",
        ratio(own["cli.parse_input_text"], calls["cli.parse_input_text"]) * 1e3, "ms/op")
    for name, argv in (("interpreter", ["-c", "pass"]), ("import", ["-c", "import ringload.cli"]),
                       ("round", ["-m", "ringload.cli", "round", str(cli_path)])):
        put(f"cli.{name}_ms", time_command([sys.executable, *argv]) / slowdown * 1e3, "ms")
    put("machine.slowdown", slowdown, "ratio")

    # fastest-of-k repeats shrink as k grows: compare equal repeat counts
    repeats = min(len(loop.passes), len(traced.passes))
    overhead = sum(traced.best(repeats)) / sum(loop.best(repeats)) - 1
    put("trace.overhead_frac", overhead, "ratio")
    print(f"# tracing overhead {overhead:.4f}: {traced.ops_per_s():.6g} ops/s traced over "
          f"{traced.attempted} ops, {loop.ops_per_s():.6g} untraced over {loop.attempted}")
    for name, lines in src_loc().items():
        put(f"{name}.loc", lines, "lines")
    return out


def traced_run(wl, loop, run_reference, seconds: float, failures: list[str]):
    """Install the wrappers, replay the pass under tracing, then parse
    every input's text once through the CLI parser.  Returns the loop,
    the tracer and the counts of the replay alone."""
    import tracing

    tracer = tracing.Tracer()
    failures += [f"wrapped name {name} is missing from the library" for name in tracer.install()]
    traced = Loop(wl, loop.reference_ops)
    traced.run(seconds, tracer.span("op", wl.run), run_reference, tracer)
    failures += traced.failures
    counts = tracer.counts.copy()
    parse = sys.modules["ringload.cli"].parse_input_text
    tracer.op = -1
    tracer.active = True
    for text in wl.parse_texts:
        parse(text)
    tracer.active = False
    missing = tracing.missing_calls(tracer.self_times()[0], tracer.counts, wl.name)
    failures += [f"traced run never called {name}" for name in missing]
    tracer.write(OUT / f"spans-{wl.name}.csv")
    return traced, tracer, counts


def measure(args, workdir: Path) -> int:
    env = child_env()
    # compile the package once, so every timed import reads cached bytecode
    subprocess.run([sys.executable, "-c", "import ringload.cli"], env=env, cwd=ROOT, check=True)
    import arith

    reference = arith.reference_ops()
    reference_times = []
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        reference_times.append(time_each(reference, arith.run_reference))
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        setup_samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    start = time.perf_counter()
    wl, cli_path = set_up(args.workload, args.seed, workdir)
    setup_samples.append(time.perf_counter() - start)
    reference_times.append(time_each(reference, arith.run_reference))
    # set-up is reported as a median, so it is scaled by the median
    # reference time measured between the set-ups
    setup_slowdown = statistics.median(map(sum, reference_times)) / REFERENCE_NOMINAL_S

    context = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
               "optimize": sys.flags.optimize, "commit": git_commit(), "loc": src_loc()}
    print(f"# context: {json.dumps(context, sort_keys=True)}")
    loop = Loop(wl, reference)
    loop.run(args.seconds * (UNTRACED_SHARE if args.trace else 1), wl.run, arith.run_reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = list(loop.failures)

    digest = loop.digest()
    print(f"# digest of the first pass at seed {args.seed}: {digest}")
    expected = json.loads((HERE / "expected.json").read_text())
    if args.seed == expected["seed"] and digest != expected["digests"][wl.name]:
        failures.append(f"digest {digest} differs from the recorded {expected['digests'][wl.name]}")

    if args.trace:
        traced, tracer, counts = traced_run(wl, loop, arith.run_reference,
                                             args.seconds * (1 - UNTRACED_SHARE), failures)
        metrics = per_layer(loop, traced, tracer, counts, cli_path)
        attempted = loop.attempted + traced.attempted
        op_failures = len(loop.failures) + len(traced.failures)
    else:
        metrics = end_to_end(loop, setup_samples, setup_slowdown, peak_rss_mb)
        attempted, op_failures = loop.attempted, len(loop.failures)

    print(f"# {wl.name}: failed_frac {op_failures / attempted:.6g} ({op_failures} of {attempted} ops)")
    for problem in failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": op_failures, "metrics": metrics}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Ringload benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("round_corpus", "ring_reduce", "oracle_boost", "search_grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the library's asserts and roughly halves some calls;
        # such a run must not pass for a speed-up
        print("error: run without -O or PYTHONOPTIMIZE, as users do", file=sys.stderr)
        return 2
    if not (SRC / "ringload" / "__init__.py").is_file():
        print(f"error: no src/ringload package under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            start = time.perf_counter()
            set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - start}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
