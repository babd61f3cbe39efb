"""nestrad benchmark: one closed-loop client, one process, no threads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scalar-mix --seed 1 --seconds 20 --trace 0

Workloads are described in perfbench/README.md and BENCHMARK.json.  The
run prints a few human-readable lines, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``.  A run whose checkout has no
``src/nestrad`` exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 11
REF_EVERY_S = 0.05
REF_SPAN = 2
RESERVOIR = 1 << 18
LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TRACE_DIR = ROOT / ".bench_out"

_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import refspeed
for _ in range(3):
    refspeed.measure("argparse")
before = refspeed.measure("argparse")
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nestrad, nestrad.cli
nestrad.cli.build_parser()
t1 = time.perf_counter()
after = refspeed.measure("argparse")
print(t1 - t0, refspeed.NOMINAL_S["argparse"] * 2 / (before + after))
"""


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    if not (SRC / "nestrad" / "__init__.py").is_file():
        fail(f"no nestrad sources under {SRC}; run from a nestrad checkout")
    sys.path.insert(0, str(SRC))
    import nestrad
    if Path(nestrad.__file__).resolve().parent != SRC / "nestrad":
        fail(f"imported nestrad from {nestrad.__file__}, not from {SRC}")


def measure_setup() -> tuple[float, float]:
    """Median time to import nestrad and nestrad.cli and build the parser.

    Each sample is a fresh interpreter, timed from inside it so that
    interpreter start-up is left out; one untimed run first writes the
    byte-code caches, as any installed package already has them.
    Returns the median scaled to the reference speed and the raw one.
    """
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE)],
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            seconds, factor = map(float, out.stdout.split())
            scaled.append(seconds * factor)
            raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


class Latencies:
    """Per-request latencies in a fixed-size uniform reservoir.

    Memory stays the same however many requests a run completes, so a
    faster program does not read as a larger peak RSS.
    """

    def __init__(self, seed: int) -> None:
        self.samples = array("d", bytes(8 * RESERVOIR))
        self.n = 0
        self.busy = 0.0      # scaled to the reference speed
        self.raw_busy = 0.0  # as measured
        self.rng = random.Random(f"reservoir:{seed}")

    def add(self, raw: float, seconds: float | None = None) -> None:
        """Record one request: its raw time and that time scaled (see refspeed)."""
        if seconds is None:
            seconds = raw
        self.busy += seconds
        self.raw_busy += raw
        if self.n < RESERVOIR:
            self.samples[self.n] = seconds
        else:
            j = self.rng.randrange(self.n + 1)
            if j < RESERVOIR:
                self.samples[j] = seconds
        self.n += 1

    def sorted(self) -> list[float]:
        return sorted(self.samples[:min(self.n, RESERVOIR)])


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted xs."""
    rank = max(1, -(-len(xs) * p // 100))
    return xs[int(rank) - 1]


def band(xs: list[float], lo: float, hi: float) -> float:
    """Mean of the sorted samples from percentile lo to percentile hi.

    Used in place of a single order statistic: a request mix has
    clusters (exact-expand: one per depth), and one sample at a cluster
    edge jumps from run to run where the mean of a band does not.
    """
    i = int(len(xs) * lo / 100)
    j = max(int(len(xs) * hi / 100), i + 1)
    return statistics.fmean(xs[i:j])


def middle(xs: list[float]) -> float:
    """The median as the mean of the samples from p40 to p60."""
    return band(xs, 40.0, 60.0)


def tail(xs: list[float]) -> tuple[float, float]:
    """Highest percentile p of LADDER with at least 10 samples beyond it,
    as the mean of the samples within (100 - p) / 4 of it."""
    for p in LADDER:
        if len(xs) * (100.0 - p) / 100.0 >= 10:
            break
    w = (100.0 - p) / 4
    return p, band(xs, p - w, p + w)


class Stopwatch:
    """Request times with reference-speed timings around them.

    A request runs in one or more segments (``pause`` splits it between
    library calls).  The reference kernels are timed before a segment
    and after it whenever REF_EVERY_S has passed since the last timing.
    A segment is scaled by the median of the timings around it, of the
    kernel its request names in ``stop``.
    """

    def __init__(self, kinds: tuple[str, ...]) -> None:
        self.kinds = kinds
        self.refs: list[tuple[dict[str, float], float]] = []  # (timings, taken at)
        self._reference(force=True)
        self.requests: list[tuple[str, list[tuple[float, int, float]]]] = []
        self.segments: list[tuple[float, int, float]] = []
        self.t0 = 0.0

    def _reference(self, force: bool = False) -> None:
        if force or perf_counter() - self.refs[-1][1] > REF_EVERY_S:
            timings = {kind: refspeed.measure(kind) for kind in self.kinds}
            self.refs.append((timings, perf_counter()))

    def start(self) -> None:
        self._reference()
        self.segments = []
        self.t0 = perf_counter()

    def _close(self) -> None:
        t1 = perf_counter()
        self.segments.append((t1 - self.t0, len(self.refs) - 1, t1))
        self._reference()

    def pause(self) -> None:
        self._close()
        self.t0 = perf_counter()

    def stop(self, kind: str) -> None:
        self._close()
        self.requests.append((kind, self.segments))

    def _scaled(self, kind: str, seconds: float, i: int, end: float) -> float:
        # One timing is a 1 ms snapshot and jitters by several percent;
        # the median of the timings around the segment (the one before it,
        # the one after it if taken within REF_EVERY_S, and two more on
        # each side) follows changes that last seconds without the jitter.
        last = i + 1 if (i + 1 < len(self.refs)
                         and self.refs[i + 1][1] - end <= REF_EVERY_S) else i
        window = [t[kind] for t, _ in self.refs[max(0, i - REF_SPAN):last + REF_SPAN + 1]]
        return seconds * refspeed.NOMINAL_S[kind] / statistics.median(window)

    def times(self) -> list[tuple[float, float]]:
        """(raw, scaled) seconds of every request, once the block is done."""
        self._reference(force=True)
        return [(sum(t for t, _, _ in segs),
                 sum(self._scaled(kind, *seg) for seg in segs))
                for kind, segs in self.requests]


def run_loop(wl, seed: int, seconds: float, tracer=None, blocks=None,
             min_blocks: int | None = None):
    """Run blocks until ``seconds`` have passed and ``min_blocks`` (by
    default all accuracy blocks) ran.

    Returns the latencies, the number of requests attempted and failed,
    the accuracy samples and the block indices run.  With ``blocks`` the
    given indices are replayed instead, with no deadline.
    """
    import workloads

    lat = Latencies(seed)
    acc = workloads.Accuracy()
    if tracer is None:
        run = wl.run
    else:
        def run(req, pause):
            return wl.run_traced(req, tracer)
    done = []

    def one_block(index: int, timed: bool) -> tuple[int, int]:
        """Run, time and check one block; return (requests, failures)."""
        outs = []
        watch = Stopwatch(wl.kernels)
        for req in wl.block(seed, index):
            watch.start()
            if tracer is not None:
                tracer.begin_request()
                root = tracer.span("request")
                root.__enter__()
            try:
                out = run(req, watch.pause)
            except Exception as exc:  # a failed request, counted and checked below
                out = exc
            if tracer is not None:
                root.__exit__(None, None, None)
            watch.stop(wl.kernel_for(req))
            if tracer is not None:
                if not isinstance(out, Exception):
                    with tracer.span("probe"):
                        try:
                            wl.probe(req, out, tracer)
                        except Exception:  # the span recorded the layer error
                            pass
                tracer.end_request()
            outs.append((req, out))
        if timed:
            for raw, scaled in watch.times():
                lat.add(raw, scaled)
        sample = acc if 0 <= index < wl.acc_blocks else None
        acc.roundoff_on = index < wl.roundoff_blocks
        bad = sum(isinstance(out, Exception) or not wl.check(req, out, sample)
                  for req, out in outs)
        return len(outs), bad

    attempted = failed = 0

    def account(index: int, timed: bool) -> None:
        nonlocal attempted, failed
        n, bad = one_block(index, timed)
        attempted += n
        failed += bad
        if timed:
            done.append(index)

    if blocks is not None:
        for index in blocks:
            account(index, timed=True)
    else:
        for i in range(wl.warm_blocks):
            account(-1 - i, timed=False)
        deadline = perf_counter() + seconds
        least = wl.acc_blocks if min_blocks is None else min_blocks
        while len(done) < least or perf_counter() < deadline:
            account(len(done), timed=True)
    return lat, attempted, failed, acc, done


def end_to_end(lat: Latencies, acc, setup_s: float) -> tuple[dict, dict]:
    xs = lat.sorted()
    p_tail, v_tail = tail(xs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "req_per_s": (lat.n / lat.busy, "1/s"),
        "latency_p50_us": (middle(xs) * 1e6, "us"),
        "latency_tail_us": (v_tail * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rel_error_p50": (statistics.median(acc.rel_error), "ratio"),
        "roundoff_rel_p99": (percentile(sorted(acc.roundoff), 99.0), "ratio"),
    }
    info = {"tail_percentile": p_tail, "latency_samples": len(xs),
            "requests": lat.n, "accuracy_samples": len(acc.rel_error),
            "roundoff_samples": len(acc.roundoff),
            "branch_dev_max": acc.branch_dev_max}
    return metrics, info


LAYER_TIMES = (
    ("core.config", "us"), ("core.seed", "us"), ("core.double_step", "us"),
    ("core.half_step", "us"), ("core.outer", "us"), ("core.chain", "us"),
    ("branches.gray_signs", "us"), ("branches.branch_eval", "us"),
    ("derived.eval", "us"),
    ("verify.eval_report", "us"), ("verify.evaluate", "us"), ("verify.oracle", "us"),
    ("verify.make_report", "us"), ("verify.sweep_row", "us"), ("verify.table", "us"),
    ("verify.converge", "us"),
    ("cli.main", "us"), ("cli.parse_scalar", "us"), ("cli.fmt_scalar", "us"),
    ("cli.build_parser", "us"), ("cli.parse_args", "us"), ("cli.format_rows", "us"),
    ("expand.expand", "ms"), ("expand.profile", "ms"), ("expand.poly_eval", "us"),
)
LAYER_COUNTS = ("core.double_steps", "core.half_steps", "branches.sign_flips",
                "cli.rows", "expand.coeffs", "expand.coeff_bits")
LAYERS = ("core", "branches", "derived", "verify", "cli", "expand")


def per_layer(tracer, traced, untraced, wl, acc) -> dict:
    out = {}
    for name, unit in LAYER_TIMES:
        out[f"{name}_{unit}"] = (tracer.per_call(name, 1e6 if unit == "us" else 1e3), unit)
        out[f"{name}.calls"] = (tracer.calls(name), "count")
    chains = tracer.calls("core.chain")
    wrapper = ((tracer.durations["core.chain"] - tracer.durations["core.replay"])
               / chains * 1e6 if chains else 0.0)
    out["core.wrapper_us"] = (wrapper, "us")
    for name in LAYER_COUNTS:
        out[name] = (tracer.counts.get(name, 0), "count")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (tracer.errors(layer), "count")
    traced_rps = traced.n / traced.busy
    untraced_rps = untraced.n / untraced.busy
    out["trace.traced_req_per_s"] = (traced_rps, "1/s")
    out["trace.untraced_req_per_s"] = (untraced_rps, "1/s")
    out["trace.overhead_ratio"] = (untraced_rps / traced_rps, "ratio")
    out["workload.repeat_share"] = (wl.repeat_share(), "ratio")
    out["verify.branch_dev_max"] = (acc.branch_dev_max, "k")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)}")
    env = environment()
    wl = workloads.WORKLOADS[args.workload]()

    if args.trace:
        # Untraced first, for a quarter of the time, then the same blocks
        # traced (probes make that pass several times longer): the kept
        # spans would otherwise slow the untraced pass's garbage collection.
        plain = workloads.WORKLOADS[args.workload]()
        base, attempted, failed, _, done = run_loop(plain, args.seed, args.seconds / 4,
                                                    min_blocks=1)
        tracer = Tracer()
        lat, n2, f2, acc, _ = run_loop(wl, args.seed, 0.0, tracer, blocks=done)
        attempted += n2
        failed += f2
        metrics = per_layer(tracer, lat, base, wl, acc)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "blocks": done, **env})
        print(f"# trace: {len(tracer.kept)} spans of the first requests written "
              f"to {path.relative_to(ROOT)}")
    else:
        setup_s, setup_raw = measure_setup()
        lat, attempted, failed, acc, done = run_loop(wl, args.seed, args.seconds)
        metrics, info = end_to_end(lat, acc, setup_s)
        print(f"# as measured: setup_s {setup_raw:.6g}, req_per_s "
              f"{lat.n / lat.raw_busy:.6g}; times below are scaled to the "
              f"reference speed (refspeed.py) by {lat.busy / lat.raw_busy:.4f} on average")
        print(f"# {args.workload}: {lat.n} timed requests in {len(done)} blocks; "
              f"tail is p{info['tail_percentile']:g} of {info['latency_samples']} "
              f"samples; {info['accuracy_samples']} accuracy and "
              f"{info['roundoff_samples']} roundoff samples")
        print(f"# branch_dev_max {info['branch_dev_max']:.6g} k  "
              f"repeat_share {wl.repeat_share():.4f}  "
              f"fail_ratio {failed / attempted:.6g}")
    print(f"# env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
