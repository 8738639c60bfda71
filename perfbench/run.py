"""Time-step benchmark for irksolve.

    python3 perfbench/run.py --workload mms2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The unit of work is one IRKStepper.advance call.  A run builds the
workload's inputs from the seed, sets up a ready stepper several times
(setup_s is the median), then repeats fixed-length integrations from
the same initial state for --seconds, timing each step.  Every
integration ends in an untimed correctness check, and every integration
of a run must report the same per-factor iteration and preconditioner
counts.  With --trace 1 untraced and traced integrations alternate, and
the run reports per-layer numbers instead of the end-to-end ones.

The gated step time, step_ms_best, is the run's lower envelope: for each
step of the integration, the fastest time it took in any integration of
the run, averaged over the steps.  On a shared VM the speed can switch
between states up to 2x apart, each lasting from a fraction of a second
to tens of seconds, so the median step time (printed as step_ms_p50,
with the p90 tail and steps_per_s) measures how long the run stayed in
each state more than it measures the program.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  attempted counts integrations
and failed those whose state fails the correctness check.  A step that
raises ends its integration; the check then applies to the state of the
last completed step, and the steps not completed show in completed_frac
and in the printed fail_frac (not completed / planned steps).
The full result, with an environment block, is written to
perfbench/results/<workload>-trace<0|1>.json, and the spans of a traced
run to perfbench/results/<workload>-spans.csv.
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
NAMES = ("mms2d", "upwind1d", "fem1d")
MAX_FACTORS = 3     # LobattoIIIC-5 has the most: two pairs and one real
# The tail percentile is fixed, so it means the same on every run and
# every commit.  Ten-beyond (p99.9 on the 1D workloads) measures the
# host's scheduling noise: its spread between runs exceeds 20%.
TAIL_PCT = 90.0


def percentile_tail(samples, pct=TAIL_PCT):
    """(value, percentile, samples beyond) of the nearest-rank pct-th
    percentile; when fewer than ten samples lie beyond it, the highest
    percentile that has ten (or the maximum, under eleven samples)."""
    xs = sorted(samples)
    n = len(xs)
    k = max(math.ceil(pct / 100.0 * n) - 1, 0)
    if n - 1 - k < 10:
        k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def git_commit():
    """HEAD of the checkout's .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


class Integration:
    """One fixed-length integration from the workload's initial state."""

    def __init__(self, wl, x, stepper, u0, t0, advance, before_step):
        u, t = u0, t0
        self.times = []
        reports = []
        self.error = None
        start = perf_counter()
        for k in range(wl.steps):
            before_step()
            a = perf_counter()
            try:
                u, reps = advance(u, t)
            except Exception as exc:  # a failed step ends its integration
                self.error = f"{type(exc).__name__}: {exc}"
                break
            self.times.append(perf_counter() - a)
            reports.append(reps)
            t = t0 + (k + 1) * stepper.dt
        self.wall = perf_counter() - start
        self.planned = wl.steps
        self.done = len(self.times)
        nf = len(reports[0]) if reports else 0
        self.iters = tuple(sum(r[i].iterations for r in reports) for i in range(nf))
        self.apps = tuple(sum(r[i].preconditioner_applications for r in reports)
                          for i in range(nf))
        if self.done:
            self.ok, self.check = wl.check(x, u, t)
        else:
            self.ok, self.check = False, "no step completed"

    def counts(self):
        return {"steps": self.done, "iters": list(self.iters),
                "precond_apps": list(self.apps)}


def _untraced(_name, fn):
    return fn


def _noop():
    pass


def _integrations(wl, x, ready, seconds, tracer):
    """Integrations until `seconds` have passed, at least one.  With a
    tracer, untraced and traced integrations alternate, so both see the
    same machine state and their difference is the tracing overhead."""
    stepper, u0, t0 = ready
    plain, traced = [], []
    gc.collect()
    end = perf_counter() + seconds
    while not plain or perf_counter() < end:
        plain.append(Integration(wl, x, stepper, u0, t0, stepper.advance, _noop))
        if tracer is not None:
            tracer.hook_steps(stepper)
            try:
                advance = tracer.wrap("stepper.advance", stepper.advance)
                traced.append(Integration(wl, x, stepper, u0, t0, advance, tracer.next_step))
            finally:
                tracer.unpatch()
    return plain, traced


def step_stats(runs):
    """best_ms is the lower envelope: the mean over step positions of the
    fastest time each position took in any of the runs."""
    times = [s for r in runs for s in r.times]
    if not times:
        return {}
    positions = min(r.done for r in runs)  # equal unless the counts differ
    best = (sum(min(r.times[k] for r in runs) for k in range(positions)) / positions
            if positions else float("nan"))
    tail, pct, beyond = percentile_tail(times)
    return {"best_ms": 1e3 * best, "p50_ms": 1e3 * median(times), "tail_ms": tail * 1e3,
            "tail_pct": pct, "tail_beyond": beyond, "samples": len(times),
            "steps_per_s": len(times) / sum(r.wall for r in runs)}


def run(name, seed, seconds, trace):
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    x = wl.inputs(seed)
    tracer = Tracer() if trace else None

    setup_times = []
    ready = None
    for k in range(wl.setups):
        ready = None
        gc.collect()
        if tracer is not None:
            tracer.begin_setup(k)
        try:
            a = perf_counter()
            ready = wl.build(x, tracer.wrap if tracer is not None else _untraced)
            setup_times.append(perf_counter() - a)
        finally:
            if tracer is not None:
                tracer.unpatch()

    base, traced = _integrations(wl, x, ready, seconds, tracer)
    runs = base + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    planned = sum(r.planned for r in runs)
    done = sum(r.done for r in runs)
    failed = sum(not r.ok for r in runs)
    signatures = {(r.done, r.iters, r.apps) for r in runs}
    checks_ok = all(r.ok for r in runs)
    repeat_ok = len(signatures) == 1
    correct = checks_ok and repeat_ok

    stats = step_stats(base)
    end_to_end = {
        "step_ms_best": (stats.get("best_ms", float("nan")), "ms"),
        "setup_s": (median(setup_times), "s"),
        "completed_frac": (done / planned, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # printed and recorded, not gated: they follow the host's speed state
    host_bound = {
        "step_ms_p50": (stats.get("p50_ms", float("nan")), "ms"),
        "step_ms_tail": (stats.get("tail_ms", float("nan")), "ms"),
        "steps_per_s": (stats.get("steps_per_s", 0.0), "1/s"),
    }

    ref = runs[0]
    per_layer = {}
    if trace:
        layers = layer_metrics(tracer, len(traced))
        tstats = step_stats(traced)
        for i in range(MAX_FACTORS):
            layers[f"krylov.iters.f{i}"] = (ref.iters[i] / ref.done
                                            if i < len(ref.iters) and ref.done else 0.0)
            layers[f"linop.precond_apps.f{i}"] = (ref.apps[i] / ref.done
                                                  if i < len(ref.apps) and ref.done else 0.0)
        layers["linop.precond_apps"] = sum(ref.apps) / ref.done if ref.done else 0.0
        for key, stat in (("step_ms_best", "best_ms"), ("step_ms_p50", "p50_ms")):
            layers[f"trace.untraced_{key}"] = stats.get(stat, float("nan"))
            layers[f"trace.{key}"] = tstats.get(stat, float("nan"))
        layers["trace.overhead_ms"] = (layers["trace.step_ms_best"]
                                       - layers["trace.untraced_step_ms_best"])
        per_layer = {k: (v, unit_of(k)) for k, v in sorted(layers.items())}

    shown = per_layer if trace else end_to_end
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": x,
        "environment": environment(seed),
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "planned_steps": planned,
        "failed_steps": planned - done,
        "fail_frac": (planned - done) / planned,
        "setup_times_s": setup_times,
        "integrations": len(runs),
        "step_tail_percentile": stats.get("tail_pct"),
        "step_tail_beyond": stats.get("tail_beyond"),
        "step_samples": stats.get("samples", 0),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "host_bound": {k: {"value": v, "unit": u} for k, (v, u) in host_bound.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "counts": ref.counts(),
        "counts_repeat": repeat_ok,
        "checks": sorted({r.check for r in runs if not r.ok}) or [ref.check],
        "step_errors": sorted({r.error for r in runs if r.error}),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        tracer.write_csv(RESULTS / f"{name}-spans.csv")

    print(f"# {name} seed={seed} inputs={json.dumps(x)}")
    print(f"# environment {json.dumps(result['environment'])}")
    for k, (v, u) in end_to_end.items():
        print(f"{k:32s} {v:14.6g} {u}")
    print(f"{'fail_frac':32s} {result['fail_frac']:14.6g} ratio "
          f"({planned - done} of {planned} planned steps)")
    print("# not gated, they follow the host's speed state:")
    for k, (v, u) in host_bound.items():
        print(f"{k:32s} {v:14.6g} {u}")
    if stats:
        print(f"# step_ms_tail is p{stats['tail_pct']:.4g} of {stats['samples']} steps "
              f"({stats['tail_beyond']} beyond it); {len(runs)} integrations of {wl.steps} steps")
    for k, (v, u) in per_layer.items():
        print(f"{k:32s} {v:14.6g} {u}")
    for e in result["step_errors"]:
        print(f"# failed step: {e}")
    for c in result["checks"]:
        print(f"# check {'ok' if checks_ok else 'FAILED'}: {c}")
    if not repeat_ok:
        print(f"# counts differ between integrations: {sorted(signatures)}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}))
    return 0


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ms", "_ms_p50", "_ms_best")):
        return "ms"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def _child(name, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: exit {out.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak_rss_mb is its own."""
    status = 0
    for name in NAMES:
        lines, last = _child(name, seed, seconds, trace)
        print("\n".join(lines))
        print(f"# {name}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']}\n")
        status |= not last["correct"]
    return status


def self_test(seed):
    """Two runs of each workload with one seed, untraced then traced,
    must report identical per-factor counts."""
    status = 0
    for name in NAMES:
        counts = []
        for trace in (0, 1):
            _child(name, seed, 1, trace)
            counts.append(json.loads((RESULTS / f"{name}-trace{trace}.json").read_text())["counts"])
        same = counts[0] == counts[1]
        status |= not same
        print(f"self-test {name}: {'counts identical' if same else 'COUNTS DIFFER'} {counts}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that two runs of one seed give identical counts")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "irksolve" / "__init__.py").is_file():
        print(f"error: no irksolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
