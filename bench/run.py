"""Run one tscc benchmark workload and print its result as the last line.

    python3 bench/run.py --workload codec --seed 1 --seconds 30 --trace 0

Run from the root of a tscc checkout; the package is imported from its
src/ directory, never from an installed copy.  --trace 0 prints the
end-to-end metrics; --trace 1 runs the workload untraced and then
traced, each for half of --seconds, and prints the per-layer metrics and
the tracing overhead.  Generated inputs, spans and results go to bench/.out/.
"""

import os
import sys
import time

START = time.perf_counter()
# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAYERS = ("wwl", "constructions", "cosets", "core", "bounds", "cli")
# inclusive time of one function over the timed region, by metric name
HOT = {
    "wwl.unrank.share": "wwl.unrank",
    "wwl.rank.share": "wwl.rank",
    "wwl.count_wwl.share": "wwl.count_wwl",
    "wwl.capacity.share": "wwl.wwl_capacity",
    "core.parse.share": "core.WriteSequence.from_lines",
    "core.check.share": "core.check_constraint",
    "bounds.count2d.share": "bounds.count_2d_arrays",
    "cosets.double.share": "cosets.GoodCodeSearch.double",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["codec", "verify", "analysis"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def metric_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(setup, setup_wall, timed, timed_wall, ops, power_iterations):
    """The per-layer metrics, the same on every workload: a layer that a
    workload does not call reads 0."""
    from tracer import named

    metrics = {}
    for layer in LAYERS:
        def in_layer(name, layer=layer):
            return name.startswith(layer + ".")
        metrics[f"{layer}.self_share"] = (timed.self_total(in_layer) / timed_wall, "ratio")
        metrics[f"{layer}.calls_per_op"] = (timed.calls(in_layer) / ops, "calls/op")
        if layer in ("wwl", "cosets"):
            metrics[f"{layer}.setup_share"] = (setup.self_total(in_layer) / setup_wall, "ratio")
    for metric, span in HOT.items():
        metrics[metric] = (timed.total(named(span)) / timed_wall, "ratio")
    metrics["wwl.power_iterations_per_op"] = (power_iterations / ops, "count/op")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "tscc"
    if not (package / "__init__.py").is_file():
        print(f"bench: no tscc sources at {package}", file=sys.stderr)
        return 2

    # the probe's set-up and runs are not part of setup_s; its first run
    # is slower while the interpreter specialises the loop, and its data
    # is freed during set-up so that it does not raise the memory peak
    probing = time.perf_counter()
    sys.path.insert(0, str(HERE))
    from timing import P_REF, Probe
    probe = Probe()
    probe()
    probe_before = statistics.median(probe() for _ in range(5))
    del probe
    probed = time.perf_counter()

    sys.path.insert(0, str(SRC))
    import tscc
    if Path(tscc.__file__).resolve().parent != package.resolve():
        print(f"bench: imported tscc from {tscc.__file__}, not {package}", file=sys.stderr)
        return 2
    imported = time.perf_counter()

    import reference
    import workloads
    from tracer import Tracer

    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    building = time.perf_counter()
    work = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    built = time.perf_counter()
    setup_wall = (probing - START) + (imported - probed) + (built - building)
    probe = Probe()
    probe()
    probe_after = statistics.median(probe() for _ in range(5))
    setup_s = setup_wall * 2 * P_REF / (probe_before + probe_after)
    if tracer:
        setup_end = tracer.mark()
        tracer.uninstall()

    work.make_inputs()
    if tracer:
        # half the time untraced, half traced, to compare the two
        work.measure(args.seconds / 2, probe)
        untraced = statistics.fmean(work.op_seconds())
        traced_from, ops_from = tracer.mark(), work.attempted
        iterations_from = tracer.power_iterations
        tracer.install()
        work.measure(args.seconds / 2, probe)
        tracer.uninstall()
        samples = work.samples
        metrics = per_layer(tracer.summary(0, setup_end), built - building,
                            tracer.summary(traced_from), math.fsum(samples.seconds),
                            work.attempted - ops_from,
                            tracer.power_iterations - iterations_from)
        reference_s = math.fsum(samples.scaled(i) for i in range(len(samples.keys)))
        metrics["trace.ms_per_op"] = (reference_s * 1e3 / (work.attempted - ops_from), "ms")
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(work.op_seconds()) / untraced, "ratio")
        counts = {}
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        work.measure(args.seconds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops = work.op_seconds()
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_per_s": (len(ops) / math.fsum(ops), "1/s"),
            "op_p95_ms": (statistics.quantiles(ops, n=100, method="inclusive")[94] * 1e3, "ms"),
        }
        counts = {"ops_per_s": len(ops), "op_p95_ms": len(ops)}

    problems = reference.self_test() + work.check()
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        extra = f" over {counts[name]} samples" if name in counts else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    result = {"correct": not problems, "attempted": work.attempted,
              "failed": work.failed, "metrics": metric_json(metrics)}
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(out_dir / f"result-{stem}.json", "w") as fh:
        json.dump({"result": result, "samples": counts, "setup_wall_s": setup_wall,
                   "raw": work.raw()}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
