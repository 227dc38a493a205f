"""cobench benchmark: three closed-loop workloads against the public API.

Run from the repository root:

    python3 benchmarks/run.py --workload rl_scoring --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --self-check --seed 1

Workloads (see workloads.py): ``rl_scoring``, ``reference_build`` and
``endpoint_eval``. Every input is made from ``--seed`` during set-up, which
runs three times and is reported as the median ``setup_s``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` measures half the time untraced, then installs span recorders
around the library's layer functions, sets up again and measures the other
half traced. It reports the per-layer metrics, and ``trace_overhead_pct``
from the two halves' throughput, and writes every span to
``.bench_work/spans/<workload>-s<seed>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it record the
machine and print every metric with its unit. The exit code is 0 only when
every output check passed; it is 1, with no result, when the ``cobench``
sources are not in ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
UNITS = {"throughput_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms", "pass_s": "s", "ref_gap_pct": "%"}


def _import_cobench():
    """Import cobench from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cobench
    except ImportError as err:
        sys.exit(f"error: cannot import cobench from {src}: {err}")
    if Path(cobench.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: cobench was imported from {cobench.__file__}, not {src}")
    return cobench


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def _machine(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


class _CountHandler(logging.Handler):
    """Counts the optimality-clamp warnings from cobench.rewards. Attaching
    it also keeps the library's per-call warning off stderr."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def _pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts, on one CPU. Its speed
    then does not hang on whether another tenant holds a second CPU, which
    the single-threaded speed probes (speed.py) cannot see."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(setup, seed: int, work: Path):
    """Set up SETUP_REPEATS times; return the median time (scaled to the
    reference speed), the last state, and whether every repeat made
    byte-identical inputs."""
    from speed import SpeedScale

    times, digests, state = [], set(), None
    speed = SpeedScale()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup(seed, work)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * speed.interval())
        digests.add(state.digest)
    return statistics.median(times), state, len(digests) == 1


def _layer_metrics(workloads, tracing, tracer, traced, base, clamped: int) -> dict:
    from cobench.heuristics import METHODS_BY_KIND

    stats = tracing.SpanStats(tracer.spans, phase="measure")
    every_phase = tracing.SpanStats(tracer.spans, phase=None)
    kinds = [k.value for k in workloads.KINDS]
    m = {"trace_overhead_pct": (100.0 * (base.rate / traced.rate - 1.0), "%")}
    for layer in tracing.LAYERS:
        m[f"self_s.{layer}"] = (stats.self_s[layer], "s")
    for layer in tracing.LAYERS:
        m[f"{layer}.errors"] = (traced.errors.get(layer, 0), "count")
    m["rewards.clamped"] = (clamped, "count")
    for name in ("rewards.total_reward", "rewards.group_advantages",
                 "rewards.grpo_surrogate", "evalharness.request_samples"):
        m[f"{name}.calls"] = (stats.calls(name), "count")
        m[f"{name}.busy_s"] = (stats.busy_s(name), "s")
        m[f"{name}.p50_us"] = (stats.p50_us(name), "us")
    server_s = traced.extra.get("server_busy_s", (0.0, "s"))[0]
    m["endpoint.server_busy_ms"] = (1000.0 * server_s, "ms")
    client_s = stats.busy_s("evalharness.request_samples") - server_s
    m["endpoint.client_wait_ms"] = (1000.0 * max(0.0, client_s), "ms")
    for name in ("tai.parse", "verify.check", "verify.objective"):
        m[f"{name}.calls"] = (stats.calls(name), "count")
        for kind in kinds:
            m[f"{name}.{kind}.busy_s"] = (stats.busy_s(name, kind), "s")
            m[f"{name}.{kind}.p50_us"] = (stats.p50_us(name, kind), "us")
    m["heuristics.solve.calls"] = (stats.calls("heuristics.solve"), "count")
    for kind, methods in METHODS_BY_KIND.items():
        for method in methods:
            key = f"{kind.value}.{method}"
            m[f"heuristics.solve.{key}.busy_s"] = (stats.busy_s("heuristics.solve", key), "s")
    m["tai.encode.calls"] = (stats.calls("tai.encode"), "count")
    for kind in kinds:
        busy = stats.busy_s("tai.encode", kind) + stats.busy_s("tai.render_prompt", kind)
        p50 = stats.p50_us("tai.encode", kind) + stats.p50_us("tai.render_prompt", kind)
        m[f"tai.encode.{kind}.busy_s"] = (busy, "s")
        m[f"tai.encode.{kind}.p50_us"] = (p50, "us")
    m["evalharness.build_record.calls"] = (stats.calls("evalharness.build_record"), "count")
    m["evalharness.build_record.p50_us"] = (stats.p50_us("evalharness.build_record"), "us")
    for kind in kinds:
        m[f"evalharness.build_record.{kind}.busy_s"] = (
            stats.busy_s("evalharness.build_record", kind), "s")
    m["problems.gen_instance.calls"] = (every_phase.calls("problems.gen_instance"), "count")
    for kind in kinds:
        m[f"problems.gen_instance.{kind}.busy_s"] = (
            every_phase.busy_s("problems.gen_instance", kind), "s")
    return m


def run(args) -> int:
    _import_cobench()
    import tracing
    import workloads

    setup, measure = workloads.WORKLOADS[args.workload]
    _pin_to_one_cpu()
    clamps = _CountHandler()
    logging.getLogger("cobench.rewards").addHandler(clamps)
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    print("# machine " + json.dumps(_machine(args.seed)), flush=True)
    try:
        setup_s, state, same_inputs = _setup(setup, args.seed, work)
        checks = [("set-up makes byte-identical inputs every time", same_inputs)]
        if not args.trace:
            outcome = measure(state, args.seconds, tracing.NullTracer())
            runs = [outcome]
            metrics = dict(
                {k: (v, UNITS[k]) for k, v in outcome.metrics.items()},
                setup_s=(setup_s, "s"),
                peak_rss_mb=(_peak_rss_mb(), "MB"),
                success_rate=(1.0 - outcome.failed / outcome.attempted, "ratio"),
            )
        else:
            base = measure(state, args.seconds / 2, tracing.NullTracer())
            tracer = tracing.Tracer()
            tracer.install(extra_modules=[workloads])
            try:
                traced_state = setup(args.seed, work)
                tracer.phase = "measure"
                clamps_before = clamps.count
                outcome = measure(traced_state, args.seconds / 2, tracer)
                clamped = clamps.count - clamps_before
            finally:
                tracer.uninstall()
            runs = [base, outcome]
            checks.append(("traced run: set-up makes the same inputs", traced_state.digest == state.digest))
            checks.append(("traced run: same outputs as untraced", outcome.output_digest == base.output_digest))
            metrics = _layer_metrics(workloads, tracing, tracer, outcome, base, clamped)
            spans_path = ROOT / ".bench_work" / "spans" / f"{args.workload}-s{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for label, r in zip(("", "traced run: ") if args.trace else ("",), runs):
        checks.extend((label + name, ok) for name, ok in r.checks)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    checks.append(("every metric is a finite number", finite))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    listed = {(m["name"], m["unit"]) for m in declared[section]}
    checks.append((f"metrics match BENCHMARK.json {section}", listed == {(k, u) for k, (_, u) in metrics.items()}))
    correct = all(ok for _, ok in checks)

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# input digest {state.digest}, output digest {outcome.output_digest}")
    for name, ok in checks:
        print(f"# check {'PASS' if ok else 'FAIL'}: {name}")
    for layer, count in sorted(sum((r.errors for r in runs), Counter()).items()):
        print(f"# errors in {layer}: {count}")
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} library calls)")
    named = workloads.NAMED[args.workload]
    for name, (value, unit) in metrics.items():
        alias = f" ({named[name]})" if name in named else ""
        print(f"{name}{alias} = {value:.6g} {unit}")
    for name, (value, unit) in outcome.extra.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v if finite else None, "unit": u} for k, (v, u) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def self_check(args) -> int:
    """Same seed gives byte-identical inputs, another seed gives other
    inputs, and a short run on that other seed passes its checks."""
    _import_cobench()
    import tracing
    import workloads

    _pin_to_one_cpu()
    logging.getLogger("cobench.rewards").addHandler(_CountHandler())
    ok_all = True
    for name, (setup, measure) in workloads.WORKLOADS.items():
        work = ROOT / ".bench_work" / f"self-check-{name}-{os.getpid()}"
        try:
            a, b = setup(args.seed, work), setup(args.seed, work)
            c = setup(args.seed + 1, work)
            outcome = measure(c, 1.0, tracing.NullTracer())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        results = [
            (f"seed {args.seed} twice gives identical inputs ({a.digest})", a.digest == b.digest),
            (f"seed {args.seed + 1} gives other inputs ({c.digest})", c.digest != a.digest),
        ] + [(f"seed {args.seed + 1}: {check}", ok) for check, ok in outcome.checks]
        for text, ok in results:
            print(f"{name}: {'PASS' if ok else 'FAIL'}: {text}")
            ok_all &= ok
    return 0 if ok_all else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("rl_scoring", "reference_build", "endpoint_eval"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.self_check:
        return self_check(args)
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
