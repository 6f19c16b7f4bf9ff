"""mellin-saddle benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 times the workload and reports
the end-to-end metrics; --trace 1 runs a fixed prefix of the workload once
untraced and once traced and reports the per-layer metrics.  See
perfbench/README.md.
"""
from __future__ import annotations

import os

# pin the run environment before numpy is loaded: one thread, default budget
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MELLIN_MAX_NODES", None)

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# the package's declared dependencies load before anything is timed
import numpy  # noqa: E402
import scipy.special  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 31
TAIL_BEYOND = 10
# The host is shared: its speed drifts by up to 25% over seconds to
# minutes, which medians inside one run cannot remove.  A fixed probe runs
# between calls, and each timing is scaled by the probes on either side of
# it to a host on which the probe takes PROBE_REF_S.
PROBE_REF_S = 3.6e-3
PROBE_EVERY_S = 0.25       # busy time between probes
_PROBE_Z = numpy.linspace(1.0, 20.0, 15) + 0.5j
_PROBE_U = numpy.geomspace(1.0, 1e6, 2000)
# the probe works in place on buffers made here, so it adds nothing to the
# peak RSS but their size, which peak_rss_mb leaves out
_PROBE_GRID = numpy.empty((_PROBE_Z.size, _PROBE_U.size), complex)
_PROBE_BIG = numpy.linspace(1.0, 2.0, 400_000) + 0.5j     # 6.4 MB, past L2
PROBE_BYTES = sum(a.nbytes for a in (_PROBE_Z, _PROBE_U, _PROBE_GRID, _PROBE_BIG))


def probe() -> float:
    """Time a fixed job shaped like the package's own work, none of it the
    package's code: small complex ufunc calls, a masked recurrence and a
    heap, which track the interpreter-bound paths, and a pass over an
    array larger than the L2 cache, which tracks the kernel sums of the
    theorem3 weight.  Each part alone follows only one kind of slowdown."""
    t0 = perf_counter()
    heap = []
    acc = 0.0
    for i in range(32):
        z = _PROBE_Z + 0.25 * i
        acc += float(numpy.abs(scipy.special.loggamma(z)).sum())
        acc += float(numpy.abs(scipy.special.digamma(z)).sum())
        w, total = z.copy(), numpy.zeros_like(z)
        need = w.real < 10.0
        while numpy.any(need):
            total[need] += 1.0 / w[need] ** 2
            w[need] += 1.0
            need = w.real < 10.0
        acc += float(numpy.abs(total).sum())
        heapq.heappush(heap, (-acc, i, z))
        if len(heap) > 8:
            heapq.heappop(heap)
    numpy.add(_PROBE_Z[:, None], _PROBE_U[None, :], out=_PROBE_GRID)
    numpy.reciprocal(_PROBE_GRID, out=_PROBE_GRID)
    acc += float(abs(_PROBE_GRID.sum()))
    # the buffer holds x and 1/x by turns, which cost the same to invert
    numpy.reciprocal(_PROBE_BIG, out=_PROBE_BIG)
    acc += float(_PROBE_BIG.real.sum())
    return perf_counter() - t0


@dataclass
class PassRecord:
    latencies: list = field(default_factory=list)     # s, one per call
    labels: list = field(default_factory=list)        # call type, one per call
    round_ends: list = field(default_factory=list)    # calls made by the
                                                      # end of each round
    round_rss: list = field(default_factory=list)     # peak RSS by then, KiB
    failed_calls: list = field(default_factory=list)  # indices of failed calls
    failures: Counter = field(default_factory=Counter)        # by kind
    unexpected: Counter = field(default_factory=Counter)      # (label, tag)
    digests: list = field(default_factory=list)
    probes: list = field(default_factory=list)        # s, one per probe
    probe_at: list = field(default_factory=list)      # calls made before it
    attempted: int = 0
    wall: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def scaled(self) -> list:
        return scaled(self.latencies, self.probes, self.probe_at)


def scaled(times: list, probes: list, probe_at: list) -> list:
    """Each time converted to the reference host by the mean of the probes
    just before and just after it; probe j ran after probe_at[j] timings.
    The host's speed drifts within a run too, so local probes track it
    better than one factor for the whole run."""
    out = []
    for i, dt in enumerate(times):
        j = bisect.bisect_right(probe_at, i) - 1
        out.append(dt * PROBE_REF_S / statistics.fmean(probes[max(j, 0):j + 2]))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def source_digest() -> str:
    """Hash of the package's and the benchmark's own sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "mellin_saddle").rglob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Setup:
    """Imports the package afresh, builds the workload's weights and fills
    their lazy caches; the modules of earlier imports are dropped first, so
    each set-up pays the full cost again."""

    def __init__(self, workload):
        self.workload = workload
        self.baseline = set(sys.modules)

    def __call__(self):
        for name in [n for n in sys.modules if n not in self.baseline]:
            del sys.modules[name]
        gc.collect()
        t0 = perf_counter()
        ms = importlib.import_module("mellin_saddle")
        cli = importlib.import_module("mellin_saddle.cli")
        weights = {}
        for name in self.workload.weights:
            f = ms.build(ms.FunctionSpec.from_dict(workloads.SPECS[name]))
            f.default_rho0()
            f.epsilon_sup()
            f.one_over_gamma0
            weights[name] = f
        elapsed = perf_counter() - t0
        if Path(ms.__file__).resolve().parent != SRC / "mellin_saddle":
            raise SystemExit(f"imported mellin_saddle from {ms.__file__}, "
                             f"not from {SRC}")
        return elapsed, workloads.Context(ms, cli, weights)


def run_pass(ctx, rounds, known, deadline=None, tr=None,
             min_rounds=0) -> PassRecord:
    """Closed loop over the rounds until they run out or, once `min_rounds`
    rounds are complete, the deadline passes.  A failure outside `known`,
    the workload's set of known defects as (call label, failure tag) pairs,
    is counted as unexpected."""
    rec = PassRecord()
    seen = set()
    start = perf_counter()
    since_probe = PROBE_EVERY_S
    for tasks in rounds:
        complete = True
        for task in tasks:
            if since_probe >= PROBE_EVERY_S:
                rec.probes.append(probe() if tr is None else tr.span("bench.probe", probe))
                rec.probe_at.append(len(rec.latencies))
                since_probe = 0.0
            if (deadline is not None and len(rec.round_ends) >= min_rounds
                    and perf_counter() >= deadline):
                complete = False
                break
            if task.key in seen:
                raise RuntimeError(f"input repeated within a run: {task.key}")
            seen.add(task.key)
            outcomes = []
            for label, fn in task.calls:
                t0 = perf_counter()
                try:
                    res = fn(ctx) if tr is None else tr.span("bench.op", fn, ctx)
                    outcome = (res, None)
                except Exception as exc:        # the program's failure, judged below
                    outcome = (None, exc)
                dt = perf_counter() - t0
                rec.latencies.append(dt)
                rec.labels.append(label)
                since_probe += dt
                outcomes.append(outcome)
            reasons = _judge(ctx, task, outcomes, tr)
            rec.attempted += len(outcomes)
            for (label, _), outcome, tag in zip(task.calls, outcomes, reasons):
                rec.digests.append(_digest(workloads.describe(outcome)))
                if tag is None:
                    continue
                rec.failed_calls.append(len(rec.digests) - 1)
                rec.failures[workloads.kind_of(tag)] += 1
                if (label, tag) not in known:
                    rec.unexpected[(label, tag)] += 1
        if not complete:
            break
        rec.round_ends.append(len(rec.latencies))
        rec.round_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    rec.wall = perf_counter() - start
    return rec


def _judge(ctx, task, outcomes, tr):
    if tr is None:
        return task.check(ctx, outcomes)

    def untraced_check():
        tr.paused = True
        try:
            return task.check(ctx, outcomes)
        finally:
            tr.paused = False
    return tr.span("bench.check", untraced_check)


def measured_calls(rec: PassRecord, rounds: int) -> int:
    """The number of leading calls the figures are taken over: those of
    the first `rounds` rounds, which every timed run completes, so that
    every run of a seed measures the same calls (all calls, if the
    workload has fewer rounds)."""
    ends = rec.round_ends[:rounds]
    return ends[-1] if ends else len(rec.latencies)


def typical_latency(labels: list, latencies: list) -> float:
    """The median latency of each call type, combined by the geometric mean
    so every type weighs the same.  The median of the pooled calls, or of
    the types' medians, falls on some workloads in the gap between two
    groups of types (a 50/50 mix of cheap and costly calls) and jumps
    across it from run to run."""
    by_type = {}
    for label, dt in zip(labels, latencies):
        by_type.setdefault(label, []).append(dt)
    medians = [statistics.median(v) for v in by_type.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def tail(latencies: list, window: int):
    """The highest percentile with TAIL_BEYOND calls beyond it, in each
    window of `window` consecutive calls, and the median over the windows.
    The percentile, 1 - (TAIL_BEYOND + 1)/window, is then the same in every
    run, however many calls a run completes.  With fewer calls than one
    window, all calls form one.  Returns (value, percentile, windows)."""
    chunks = [latencies[i:i + window]
              for i in range(0, len(latencies) - window + 1, window)] or [latencies]
    values = []
    for chunk in chunks:
        lat = sorted(chunk)
        k = max(len(lat) - TAIL_BEYOND - 1, 0)
        values.append(lat[k])
    return statistics.median(values), 100.0 * (k + 1) / len(lat), len(values)


class StateCheck:
    """Cross-run determinism: what a seed produced before, for this exact
    source tree, must be produced again (output digests, cost counters)."""

    def __init__(self, workload: str, seed: int, mode: str):
        self.path = OUT / "state" / f"{workload}-{seed}-{mode}-{source_digest()}.json"
        self.mismatches: list = []

    def compare(self, digests, counts=None) -> None:
        old = {}
        if self.path.is_file():
            old = json.loads(self.path.read_text())
        prev = old.get("digests", [])
        n = min(len(prev), len(digests))
        bad = [i for i in range(n) if prev[i] != digests[i]]
        if bad:
            self.mismatches.append(f"{len(bad)} output digests differ from an "
                                   f"earlier run of this seed (first at call {bad[0]})")
        if counts is not None and "counts" in old and old["counts"] != counts:
            self.mismatches.append(f"cost counters differ from an earlier run of "
                                   f"this seed: {old['counts']} vs {counts}")
        new = {"digests": digests if len(digests) > len(prev) else prev,
               "counts": counts if counts is not None else old.get("counts")}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(new))
        except OSError as exc:      # a read-only checkout only loses the check
            print(f"determinism state not saved: {exc}")


def host_line() -> str:
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: cpu_count={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"loadavg=[{load}] python={sys.version.split()[0]}")


def timed_run(workload, seed: int, seconds: float):
    setup = Setup(workload)
    setups, setup_probes = [], [probe()]
    for _ in range(SETUP_REPEATS):
        elapsed, ctx = setup()
        setups.append(elapsed)
        setup_probes.append(probe())
    t0 = perf_counter()
    rec = run_pass(ctx, workload.rounds(seed), workload.known,
                   deadline=t0 + seconds, min_rounds=workload.measured_rounds)
    n = measured_calls(rec, workload.measured_rounds)
    failed = bisect.bisect_left(rec.failed_calls, n)

    def figures(setup_times, lat):
        lat = lat[:n]
        tail_s, tail_pct, n_windows = tail(lat, workload.window)
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (n / sum(lat), "1/s"),
            "latency_p50_ms": (1e3 * typical_latency(rec.labels[:n], lat), "ms"),
            "latency_tail_ms": (1e3 * tail_s, "ms"),
        }, tail_pct, n_windows

    raw, _, _ = figures(setups, rec.latencies)
    metrics, tail_pct, n_windows = figures(
        scaled(setups, setup_probes, range(len(setup_probes))), rec.scaled())
    metrics["failed_share"] = (failed / n, "ratio")
    # the high-water mark when the measured calls are done
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rec.round_rss:
        peak = rec.round_rss[min(workload.measured_rounds, len(rec.round_rss)) - 1]
    metrics["peak_rss_mb"] = ((peak * 1024.0 - PROBE_BYTES) / 2.0 ** 20, "MB")
    state = StateCheck(workload.name, seed, "timed")
    state.compare(rec.digests)
    notes = [f"latency_tail_ms is p{tail_pct:.1f}, the median over {n_windows} "
             f"window(s) of {workload.window} calls",
             f"rounds complete: {len(rec.round_ends)}; figures, attempted and "
             f"failed over the first {n} calls; wall {rec.wall:.3f} s",
             f"peak_rss_mb leaves out the probe's {PROBE_BYTES / 2.0 ** 20:.2f} MB "
             f"of buffers; setup_s is the median of {SETUP_REPEATS} set-ups",
             f"timings scaled by their nearest probes: probe median "
             f"{1e3 * statistics.median(rec.probes):.4f} ms over {len(rec.probes)} "
             f"probes in the pass, {1e3 * statistics.median(setup_probes):.4f} ms "
             f"over {len(setup_probes)} in set-up, reference {1e3 * PROBE_REF_S:g} ms",
             "unscaled: " + ", ".join(f"{n}={v:.6g} {u}" for n, (v, u) in raw.items())]
    return rec, (n, failed), metrics, state.mismatches, notes


def traced_run(workload, seed: int):
    setup = Setup(workload)
    _, ctx = setup()
    plain = run_pass(ctx, workload.trace_rounds(seed), workload.known)
    _, ctx = setup()
    tr = tracer.Tracer()
    tr.install(sys.modules)
    rec = run_pass(ctx, workload.trace_rounds(seed), workload.known, tr=tr)
    metrics = tr.metrics()
    for kind in workloads.FAILURE_KINDS:
        metrics[f"failed.{kind}"] = (rec.failures[kind], "count")
    covered = sum(tr.self_time.values())
    traced_busy, plain_busy = sum(rec.scaled()), sum(plain.scaled())
    metrics["trace.overhead_share"] = ((traced_busy - plain_busy) / traced_busy, "ratio")
    metrics["trace.wall_s"] = (rec.wall, "s")
    metrics["trace.self_coverage"] = (covered / rec.wall, "ratio")
    mismatches = []
    if plain.digests != rec.digests:
        bad = sum(a != b for a, b in zip(plain.digests, rec.digests))
        mismatches.append(f"untraced and traced passes differ in {bad} outputs")
    state = StateCheck(workload.name, seed, "trace")
    state.compare(rec.digests, tr.deterministic_counts())
    mismatches += state.mismatches
    try:
        OUT.mkdir(parents=True, exist_ok=True)
        tr.save(OUT / f"spans-{workload.name}-{seed}.npz")
    except OSError as exc:
        print(f"spans not saved: {exc}")
    notes = [f"traced prefix: {len(rec.round_ends)} rounds, {rec.attempted} calls, "
             f"{len(tr.start)} spans; untraced busy {plain.busy:.3f} s, traced "
             f"busy {rec.busy:.3f} s",
             f"deterministic counters: {tr.deterministic_counts()}",
             "single-threaded process: no layer waits on another, so no wait "
             "times are reported"]
    return rec, (rec.attempted, rec.failed), metrics, mismatches, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mellin_saddle" / "__init__.py").is_file():
        print(f"no mellin_saddle package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    workload = workloads.WORKLOADS[args.workload]

    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(host_line())
    if args.trace:
        rec, counted, metrics, mismatches, notes = traced_run(workload, args.seed)
    else:
        rec, counted, metrics, mismatches, notes = timed_run(
            workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    split = ", ".join(f"{k}={rec.failures[k]}" for k in workloads.FAILURE_KINDS)
    print(f"all calls: attempted={rec.attempted} failed={rec.failed} ({split})")
    attempted, failed = counted
    for (label, tag), n in sorted(rec.unexpected.items()):
        print(f"unexpected failure: {n} x {tag} in {label}")
    for note in notes + mismatches:
        print(note)
    # the program's known defects are counted as failed calls of the
    # measured rounds, the same calls in every run of a seed; the run is
    # incorrect when any call fails otherwise or an output does not
    # reproduce
    correct = not mismatches and not rec.unexpected
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
