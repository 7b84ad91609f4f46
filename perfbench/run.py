"""Run one benchmark workload of vcew and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

The workload (census, connectivity or witness, see README.md) is built
from the seed, then whole rounds of its instances run until the given
number of seconds has passed.  Outputs are checked against independent
references after the timed phase.  The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Details of the run go to
``perfbench/results/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def process_age() -> float:
    """Seconds since this process started (the kernel's start time has
    clock-tick resolution); since this module loaded if /proc is absent."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def import_vcew() -> bool:
    """Import vcew from this checkout's ``src`` on the pure-Python kernel,
    the one the test suite runs on; False, with a message, if absent."""
    if not os.path.isfile(os.path.join(SRC, "vcew", "__init__.py")):
        print(f"error: no vcew sources in {SRC}; run from a source checkout", file=sys.stderr)
        return False
    os.environ["VCEW_PURE_PYTHON"] = "1"
    sys.path.insert(0, SRC)
    import vcew

    if not os.path.abspath(vcew.__file__).startswith(SRC + os.sep):
        print(f"error: vcew imported from {vcew.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def measure(workload, seconds, tracer=None):
    """Whole rounds for ``seconds``: a round starts only if one more, as
    long as the last, ends in time (the first always runs).  With a
    tracer, rounds alternate untraced and traced, so both are measured
    under the same conditions.  Returns the plain rounds, the traced
    rounds, the first round's outputs and how many later rounds gave
    other outputs."""
    plain, traced, mismatches = [], [], 0
    first = None
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not plain or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        batch = [(plain, None)] + ([(traced, tracer)] if tracer else [])
        for bucket, tr in batch:
            if tr is not None:
                tr.install()
            try:
                rnd = workload.run_round(tr)
            finally:
                if tr is not None:
                    tr.uninstall()
            if first is None:
                first = rnd.outputs
            elif rnd.outputs != first:
                mismatches += 1
            rnd.outputs = None
            bucket.append(rnd)
        last = time.perf_counter() - started
    return plain, traced, first, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "connectivity", "witness"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_vcew():
        return 2
    import workloads
    from reference import CheckFailure
    from spans import Tracer, percentile

    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = process_age()
        tracer = Tracer() if args.trace else None
        plain, traced, outputs, mismatches = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_start = time.perf_counter()
    failure = None
    if mismatches:
        failure = f"{mismatches} rounds gave outputs different from the first round"
    else:
        try:
            workload.check(outputs)
        except CheckFailure as exc:
            failure = str(exc)

    check_s = time.perf_counter() - check_start
    rounds = plain + traced
    latencies = [x for r in plain for x in r.latencies_s]
    sweeps = [r.sweep_s for r in plain]
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "sweep_s": (statistics.fmean(sweeps), "s"),
            "instance_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
            "instance_ms.p99": (percentile(latencies, 0.99) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        traced_sweep = statistics.fmean(r.sweep_s for r in traced)
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.sweep_s"] = (traced_sweep, "s")
        metrics["trace.overhead_s"] = (traced_sweep - statistics.fmean(sweeps), "s")
    result = {
        "correct": failure is None,
        "attempted": sum(len(r.latencies_s) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        instances_per_round=workload.instances,
        plain_sweeps_s=sweeps,
        traced_sweeps_s=[r.sweep_s for r in traced],
        check_s=check_s,
        failure=failure,
    )
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        # spans of the last traced round, times relative to its first span
        last = tracer.spans[tracer.mark:]
        base = last[0][1] if last else 0.0
        spans = [
            [layer, start - base, end - base, parent - tracer.mark if parent >= 0 else -1, inst, own]
            for layer, start, end, parent, inst, own in last
        ]
        with open(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent", "instance", "self_s"], "spans": spans}, fh)

    if failure:
        print(f"check failed: {failure}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} rounds={len(plain)}+{len(traced)} traced "
        f"instances/round={workload.instances} sweeps_s={[round(s, 3) for s in sweeps]}"
    )
    print(json.dumps(result))
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
