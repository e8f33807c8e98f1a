"""eprbell benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package under test is imported
from that checkout's ``src/``, never from an installed copy.  The next
operation starts when the previous one returns.  With ``--trace 0`` the run
times operations untraced for S seconds and prints the end-to-end metrics;
with ``--trace 1`` it runs a fixed set of operations, each untraced and
then traced, in passes until S seconds are spent, and prints the per-layer
metrics.  Every operation is judged against the oracles in ``oracles.py``.
The last line of standard output is the result as one JSON object; the
lines before it give every metric with its unit, the failure counts and
the machine facts.  See README.md for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_all", "psd_batteries", "algebra_products", "bell_search")
#: Set-up is repeated this many times and its median reported.
SETUP_ROUNDS = 5

#: name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Speed:
    """Probe of the share of a core this process is getting.

    The box this runs on is a virtual machine whose cores the host shares
    with other machines.  For minutes at a time the process gets half to
    two thirds of a core, and every wall-clock time stretches by about the
    same factor.  The probe is a fixed pure-Python loop that calls nothing
    in eprbell, so no change to the program can move it, and that starts no
    BLAS threads, whose wake-up latency would swamp it.  It runs between
    operations for about 5 % of the measured time.  Each time is divided
    by the stretch of the probes nearest to it in time, which keeps the
    figures of one program comparable from run to run; the unscaled
    figures are printed too.
    """

    #: Probe time with a core to itself on the reference machine (the
    #: 2-core Intel Xeon VM the bounds were set on), so that scaled figures
    #: read as seconds there.
    REFERENCE_S = 42e-3
    #: Probe time spent per second of operation time.
    DUTY = 0.05
    #: Probes averaged for the stretch at one moment.
    NEAREST = 4
    #: Long enough to span many of the host's scheduling slices: a probe
    #: starts just after an operation, while the core is known to be ours,
    #: so a probe of a few slices would miss part of the stretch.
    LOOP = 600_000

    def __init__(self):
        #: (midpoint, duration) of every probe, in time order
        self.samples: list[tuple[float, float]] = []
        self._debt = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i % 7
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))

    def after(self, busy_s: float) -> None:
        """Probe for DUTY of the `busy_s` seconds just measured."""
        self._debt += self.DUTY * busy_s
        while self._debt > 0:
            self.probe()
            self._debt -= self.samples[-1][1]

    def stretch(self, at: float) -> float:
        """Mean stretch against the reference of the probes nearest `at`."""
        mids = [m for m, _ in self.samples]
        i = bisect.bisect(mids, at)
        lo = max(0, min(i - self.NEAREST // 2, len(mids) - self.NEAREST))
        near = self.samples[lo:lo + self.NEAREST]
        return statistics.fmean(d for _, d in near) / self.REFERENCE_S

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference machine's speed."""
        return seconds / self.stretch(start + seconds / 2)


def import_package() -> tuple[tuple[float, float], object]:
    """Import eprbell from ./src; return its (start, duration) and the package."""
    if not (SRC / "eprbell" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'eprbell'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    eprbell = importlib.import_module("eprbell")
    importlib.import_module("eprbell.cli")
    span = (start, time.perf_counter() - start)
    if Path(eprbell.__file__).resolve().parent != (SRC / "eprbell").resolve():
        raise SystemExit(f"perfbench: imported {eprbell.__file__}, not the checkout's copy")
    return span, eprbell


class Tally:
    """Outcomes of every judged operation."""

    def __init__(self):
        self.counts = {"ok": 0, "wrong": 0, "false_fail": 0}

    def judge(self, op, result) -> None:
        try:
            outcome = op.judge(result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = "wrong"
        self.counts[outcome] += 1

    def run(self, op) -> tuple[float, float, object]:
        """Run one operation: its start, its latency and its result.
        An exception is a wrong result."""
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            result = exc
        return start, time.perf_counter() - start, result

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def summarize(latencies: list[float], cycle: int, tail_pct: float) -> dict:
    """Latency metrics of one run; operation i sits at cycle position i % cycle."""
    slots = [latencies[k::cycle] for k in range(cycle)]
    # ops_per_s weighs each position of the schedule cycle once, by its
    # median, so a run cut mid-cycle does not shift the operation mix
    if all(slots):
        ops_per_s = cycle / sum(statistics.median(s) for s in slots)
    else:
        ops_per_s = len(latencies) / sum(latencies)
    return {
        "ops_per_s": ops_per_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, tail_pct),
    }


def measure(workloads, ctx, name: str, seed: int, seconds: float, tally: Tally,
            import_span: tuple[float, float]) -> dict:
    """The untraced run: set-up, then the closed loop for `seconds`.

    `import_span` is the (start, duration) of the package import, which
    counts into set-up."""
    speed = Speed()
    setups = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        op = workloads.make_op(ctx, name, seed, 0)
        _, _, result = tally.run(op)
        setups.append((start, time.perf_counter() - start))
        speed.after(setups[-1][1])
        tally.judge(op, result)

    spans = []
    begin = time.perf_counter()
    index = 0
    while not spans or time.perf_counter() - begin < seconds:
        op = workloads.make_op(ctx, name, seed, index)
        start, latency, result = tally.run(op)
        speed.after(latency)
        tally.judge(op, result)
        spans.append((start, latency))
        index += 1

    cycle, tail_pct = gen.CYCLES[name], workloads.TAIL_PCT[name]
    raw = [lat for _, lat in spans]
    metrics = summarize([speed.scale(*span) for span in spans], cycle, tail_pct)
    metrics["setup_s"] = speed.scale(*import_span) + statistics.median(
        speed.scale(*span) for span in setups)
    unscaled = summarize(raw, cycle, tail_pct)
    unscaled["setup_s"] = import_span[1] + statistics.median(d for _, d in setups)
    tail = percentile(raw, tail_pct)
    return {
        "operations": len(spans),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": sum(x > tail for x in raw),
        "slot_p50_s": [statistics.median(raw[k::cycle]) if raw[k::cycle] else None
                       for k in range(cycle)],
        "speed_probes": len(speed.samples),
        "mean_stretch": statistics.fmean(d for _, d in speed.samples) / speed.REFERENCE_S,
        "unscaled": unscaled,
        "metrics": metrics,
    }


def traced(workloads, ctx, name: str, seed: int, seconds: float, tally: Tally) -> dict:
    """The traced run: the fixed operation set, each untraced then traced,
    in passes while another pass fits in `seconds` (at least one pass)."""
    import tracing

    ops = [workloads.make_op(ctx, name, seed, i) for i in range(workloads.TRACE_OPS[name])]
    controls = {i for i, op in enumerate(ops) if op.control}
    passes, sections = [], []
    untraced_lat, traced_lat = [], []
    start = time.perf_counter()
    pass_s = 0.0
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        tracer = tracing.Tracer()
        section_s = dict.fromkeys(tracing.SECTIONS, 0.0)
        for i, op in enumerate(ops):
            _, latency, result = tally.run(op)
            tally.judge(op, result)
            untraced_lat.append(latency)
            if op.report is not None:  # only verify-all reports have sections
                for s in tracing.SECTIONS:
                    section_s[s] += op.report["wall_clock_s"].get(s, 0.0)
            with tracing.installed(tracer), tracer.operation(i):
                _, latency, result = tally.run(op)
            tally.judge(op, result)
            traced_lat.append(latency)
        passes.append(tracing.layer_metrics(tracer, controls))
        sections.append(section_s)
        pass_s = time.perf_counter() - pass_start

    out = {}
    for m in tracing.PER_LAYER:
        key = m["name"]
        if key in passes[0]:
            values = [p[key] for p in passes]
            out[key] = values[0] if m["exact"] else statistics.median(values)
    for s in tracing.SECTIONS:
        out[f"cli.verify_all.{s}_s"] = statistics.median(p[s] for p in sections)
    out["trace_overhead_share"] = (
        statistics.median(traced_lat) / statistics.median(untraced_lat) - 1.0)
    return {"passes": len(passes), "operations": len(ops), "metrics": out}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eprbell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(eprbell, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "eprbell_file": str(Path(eprbell.__file__).resolve().relative_to(ROOT)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    import_span, eprbell = import_package()
    import workloads

    # norm_lower_bound warns on every singular frame Gram, which the
    # clustered frames are by design
    warnings.simplefilter("ignore", RuntimeWarning)
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ctx = workloads.Context(workdir)
        if args.trace:
            detail = traced(workloads, ctx, args.workload, args.seed, args.seconds, tally)
        else:
            detail = measure(workloads, ctx, args.workload, args.seed, args.seconds, tally,
                             import_span)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = detail.pop("metrics")
    if args.trace:
        import tracing

        units = {m["name"]: m["unit"] for m in tracing.PER_LAYER}
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {name: unit for name, unit, _ in END_TO_END}
    counts = tally.counts
    failures = counts["wrong"] + counts["false_fail"]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for key, unit in units.items():
        print(f"  {key:40s} {metrics[key]:.6g} {unit}")
    print(f"  {'fail_share':40s} {failures / tally.attempted:.6g} 1"
          f"  (wrong {counts['wrong']}, false FAIL {counts['false_fail']},"
          f" attempted {tally.attempted})")
    facts = machine_facts(eprbell, args.seed)
    facts.update(import_s=import_span[1], load_before=load_before, load_after=os.getloadavg())
    print("detail " + json.dumps(detail))
    print("machine " + json.dumps(facts))
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": tally.attempted,
        "failed": counts["wrong"],
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
