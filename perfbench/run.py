#!/usr/bin/env python3
"""Closed-loop benchmark of the exact torsion pipeline.

    python3 perfbench/run.py --workload knots --seed 1 --seconds 20 --trace 0

One client runs the workload's seeded corpus in whole passes, each case from
its JSON input text to a verified result, until --seconds have been spent.
Answers are checked against independent oracles after the timed region.
With --trace 0 the end-to-end metrics are printed; with --trace 1 the run
alternates untraced passes with traced passes that compose the pipeline
stage by stage inside spans, and prints per-layer metrics.  The last line of
standard output is one JSON object.  Every time is scaled to the host speed
at which a fixed reference computation takes calibrate.REFERENCE_MS (see
calibrate.py); the raw reference time is printed too.  --workload all runs
every workload in both modes, each in its own process.  Exit code 0 only if
every case passed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("knots", "surfaces", "polytope", "batch")
SETUP_REPEATS = 3
SETUP_SAMPLES = 5       # reference samples on each side of a set-up
CASE_LIMIT_S = 20.0

E2E = {"setup_s": "s", "case_p50_ms": "ms", "case_p90_ms": "ms",
       "cases_per_s": "1/s", "peak_rss_mb": "MB"}
SPANS = ("case", "engine.input_from_dict", "engine.validate", "abelian.abelianize",
         "fox.fox_matrix", "groupring.determinant", "groupring.normalize",
         "engine.evaluation_check", "engine.augmentation_order_check",
         "polytope.support", "polytope.vertices", "polytope.is_centrally_symmetric",
         "polytope.difference_polytope", "polytope.disk_obstruction_report",
         "cli.batch", "cli.format_element")
COUNTS = ("fox.dim", "fox.nnz", "fox.terms", "groupring.det_terms", "abelian.G_order",
          "polytope.points", "polytope.disk_cap")


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout(f"case exceeded the {CASE_LIMIT_S} s wall limit")


class Run:
    """Executions, first outputs and failures of one workload's cases."""

    def __init__(self, W):
        self.W = W
        self.first = [None] * len(W.cases)
        self.execs = [0] * len(W.cases)
        self.bad = [0] * len(W.cases)
        self.errors = {}

    def fail(self, case, message: str) -> None:
        self.errors.setdefault(case.cid, message)

    def execute(self, case, fn):
        """Time fn(case); returns (start, seconds, output), or three Nones
        if it raised or ran past the wall limit.  Every output must equal
        the case's first one."""
        self.execs[case.cid] += 1
        # start every case from the same collector state: earlier cases'
        # garbage collected, everything alive frozen out of later scans
        gc.collect()
        gc.freeze()
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
        try:
            t0 = time.perf_counter()
            out = fn(case)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failing case must not end the run
            self.bad[case.cid] += 1
            self.fail(case, f"{type(exc).__name__}: {exc}")
            return None, None, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if self.first[case.cid] is None:
            self.first[case.cid] = out
        elif not self.W.same(self.first[case.cid], out):
            self.bad[case.cid] += 1
            self.fail(case, "output differs from the case's first output")
        return t0, dt, out

    def verify(self) -> None:
        """Check each case's first output against its oracle; a wrong answer
        fails every execution of the case."""
        for case in self.W.cases:
            out = self.first[case.cid]
            if out is None:
                continue
            try:
                errs = self.W.check(case, out)
            except Exception as exc:  # an oracle that raises is a failed check
                errs = [f"{type(exc).__name__}: {exc}"]
            if errs:
                self.bad[case.cid] = self.execs[case.cid]
                self.fail(case, "; ".join(errs))

    @property
    def attempted(self) -> int:
        return sum(self.execs)

    @property
    def failed(self) -> int:
        return sum(self.bad)


def setup(workload: str, seed: int, workdir: Path, nproc: int):
    """Fresh import of sutor and the benchmark, corpus generation and
    serialization, and one warm-up case."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("sutor", "perfbench")]:
        del sys.modules[name]
    sutor = importlib.import_module("sutor")
    if not Path(sutor.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sutor was imported from {sutor.__file__}, not from the checkout")
    W = importlib.import_module("perfbench.workloads").make(workload, seed, str(workdir), nproc)
    W.solve(W.cases[0])
    return W


def passes(seconds: float, body) -> int:
    """Run body() in whole passes until about `seconds` have been spent."""
    start, n = time.perf_counter(), 0
    while True:
        p0 = time.perf_counter()
        body()
        n += 1
        now = time.perf_counter()
        if now - start + (now - p0) / 2 >= seconds:
            return n


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(W, seconds: float, speed):
    """Untraced closed loop: end-to-end metrics.  A case's time is the
    median of its executions, one per pass, each scaled to the reference
    speed of the moment it ran.  On a shared host the CPU also runs some
    seconds far faster than usual, and how many such seconds a run catches
    varies; a case's best time follows them, its median does not."""
    run = Run(W)
    raw = [[] for _ in W.cases]
    order = list(W.cases)

    def one_pass():
        for case in order:
            speed.tick()
            t0, dt, _ = run.execute(case, W.solve)
            if dt is not None:
                raw[case.cid].append((t0, dt))
        order.reverse()   # spread each case's executions over the window

    n = passes(seconds, one_pass)
    rss = peak_rss_mb()
    speed.sample()
    times = [[speed.scaled(t0, dt) for t0, dt in r] for r in raw]
    med = [statistics.median(t) for t in times if t]
    case_ms = [m * 1e3 for m in med]
    metrics = {"case_p50_ms": statistics.median(case_ms),
               "case_p90_ms": statistics.quantiles(case_ms, n=10)[8],
               "cases_per_s": len(med) / sum(med),
               "peak_rss_mb": rss}
    return run, n, metrics, times, {}


def traced(W, seconds: float, tr, speed, cpus):
    """Each case untraced and traced back to back, in alternating order, so
    that the difference is the tracer's cost and not the host's drift."""
    run = Run(W)
    raw = [[] for _ in W.cases]
    counts = {}
    totals = {"ref": 0.0, "traced": 0.0, "pairs": 0}
    mark = len(tr.spans)

    def reference(case):
        t0, dt, _ = run.execute(case, W.reference)
        if dt is not None:
            raw[case.cid].append((t0, dt))
            totals["ref"] += dt

    def traced_case(case):
        tr.case = case.cid
        _, dt, out = run.execute(case, lambda c: tr.call("case", W.solve_traced, c, tr))
        if dt is not None:
            totals["traced"] += dt
            if case.cid not in counts:
                counts[case.cid] = W.counts(out)

    def one_pair():
        for case in W.cases:
            speed.tick()
            first, second = ((reference, traced_case) if (case.cid + totals["pairs"]) % 2
                             else (traced_case, reference))
            first(case)
            second(case)
        totals["pairs"] += 1

    n = passes(seconds, one_pair)
    speed.sample()
    times = [[speed.scaled(t0, dt) for t0, dt in r] for r in raw]
    per_case = tr.self_times(mark)
    per_name = {}
    for (_, name), (s, k) in per_case.items():
        acc = per_name.setdefault(name, [0.0, 0])
        acc[0] += s
        acc[1] += k
    metrics = {}
    for name in SPANS:
        s, k = per_name.get(name, (0.0, 0))
        metrics[f"{name}.s"], metrics[f"{name}.calls"] = s / n * speed.scale, k / n
    total = {}
    for c in counts.values():
        for key, v in c.items():
            total[key] = total.get(key, 0) + v
    metrics.update({key: total.get(key, 0) for key in COUNTS})

    def ratio(a: str, b: str) -> float:
        return total[a] / total[b] if total.get(b) else 0.0

    metrics["polytope.vertex_yield"] = ratio("polytope.vertex_count", "polytope.points")
    metrics["polytope.diff_yield"] = ratio("polytope.diff_vertices", "polytope.diff_points")
    metrics["trace.overhead_frac"] = (totals["traced"] - totals["ref"]) / totals["ref"]
    metrics["cli.batch.speedup"] = 0.0
    if W.name == "batch":
        # the real CLI at --parallel nproc on every CPU, against the serial
        # reference passes
        mark = len(tr.spans)
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            for case in W.cases:
                speed.tick()
                tr.case = case.cid
                run.execute(case, lambda c: tr.call("cli.batch", W.solve, c))
        finally:
            os.sched_setaffinity(0, pinned)
        cli_s = sum(v[0] for v in tr.self_times(mark).values())
        metrics["cli.batch.s"] = cli_s * speed.scale
        metrics["cli.batch.calls"] = float(len(W.cases))
        metrics["cli.batch.speedup"] = totals["ref"] / n / cli_s
    metrics["host.reference_ms"] = speed.reference_ms
    stages = {}
    for (c, nm), v in per_case.items():
        stages.setdefault(c, {})[nm] = v[0] / n * speed.scale
    return run, n, metrics, times, {c: {"stages": stages.get(c, {}), "counts": counts.get(c, {})}
                                    for c in range(len(W.cases))}


def per_layer_units(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_yield", "_frac", ".speedup")):
        return "ratio"
    return "count"


def write_rows(path: Path, W, run, seed: int, times, extra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for case in W.cases:
            first = run.first[case.cid]
            row = {"workload": W.name, "seed": seed, "cid": case.cid, "family": case.family,
                   "median_ms": (statistics.median(times[case.cid]) * 1e3
                                 if times[case.cid] else None),
                   "params": {k: v for k, v in case.params.items()
                              if k not in ("pd", "word", "words")},
                   "oracle": case.oracle,
                   "sizes": dict(case.sizes, **(W.sizes(first) if first is not None else {})),
                   "ok": case.cid not in run.errors}
            row.update(extra.get(case.cid, {}))
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def run_workload(args) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    work = BENCH / ".work" / str(os.getpid())
    calibrate = importlib.import_module("perfbench.calibrate")
    speed = calibrate.Speed()
    cpus = os.sched_getaffinity(0)
    # one client on one CPU, the CLI's worker threads included
    cpu = calibrate.pin_to_fastest_cpu()
    try:
        setups, digests = [], set()
        for i in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            speed.sample(SETUP_SAMPLES)
            t0 = time.perf_counter()
            W = setup(args.workload, args.seed, work, len(cpus))
            dt = time.perf_counter() - t0
            speed.sample(SETUP_SAMPLES)
            setups.append(speed.scaled(t0, dt))
            digests.add(sys.modules["perfbench.corpus"].digest(W.cases))
        if len(digests) != 1:
            raise RuntimeError("the same seed gave different corpora")
        print(f"workload {args.workload} seed {args.seed}: {len(W.cases)} cases, "
              f"corpus digest {digests.pop()[:16]}, python {platform.python_version()}, "
              f"nproc {len(cpus)}, pinned to CPU {cpu}")
        if args.trace:
            tr = importlib.import_module("perfbench.spans").Tracer()
            run, n, metrics, times, extra = traced(W, args.seconds, tr, speed, cpus)
        else:
            run, n, metrics, times, extra = measure(W, args.seconds, speed)
            metrics["setup_s"] = statistics.median(setups)
        run.verify()
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        write_rows(results / f"{stem}.jsonl", W, run, args.seed, times, extra)
        if args.trace:
            tr.write(str(results / f"{stem}-spans.jsonl"))
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by a concurrent run
            work.parent.rmdir()
    for cid, msg in sorted(run.errors.items())[:10]:
        print(f"FAILED case {cid} ({W.cases[cid].family}): {msg}", file=sys.stderr)
    units = E2E if not args.trace else {k: per_layer_units(k) for k in metrics}
    print(f"passes {n}, attempted {run.attempted}, failed {run.failed}, "
          f"failed_frac {run.failed / run.attempted} ratio")
    print(f"reference {speed.reference_ms} ms, median of {len(speed.took)} samples; "
          f"times are at the speed where it takes {calibrate.REFERENCE_MS} ms")
    for name in units:
        print(f"{name} {metrics[name]} {units[name]}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    merged, ok, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"error: {workload} trace {trace} printed no result", file=sys.stderr)
                return proc.returncode or 1
            ok &= proc.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            merged.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
