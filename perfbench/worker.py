"""One workload in one process: warm up, run whole passes, check, report.

Started by run.py with one BLAS thread and SCHATTENLAB_WORKERS unset.  Prints
one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload oracle --seed 1 --seconds 40 --trace 0
    python3 perfbench/worker.py --setup-probe
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# An untraced run times every operation in at least two passes and keeps each
# one's fastest time (fastest_ops).  A traced run needs one untraced and one
# traced pass.
MIN_ROUNDS = 2


def import_package():
    """Import schattenlab from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import schattenlab
    import schattenlab.cli  # noqa: F401  (the package itself does not import its CLI)

    if Path(schattenlab.__file__).resolve().parent != SRC / "schattenlab":
        raise SystemExit(f"schattenlab imported from {schattenlab.__file__}, not from {SRC}")
    return schattenlab


def warm_up(sl):
    """First calls that load lazily initialised code (numpy.linalg, the layers)."""
    import numpy as np

    from schattenlab import density, gammafn, moments, samplers
    from schattenlab.ensembles import EnsembleParams, SchattenSpec

    params = EnsembleParams(2, 1, 0, 2)
    density.log_f_p(params, 2.0, np.array([[0.3, 0.6]]))
    samplers.batch_singular_values(SchattenSpec("C", "Full", 2, math.inf), np.ones((2, 8)))
    samplers.exact_p2_sample(params, 4, seed=0)
    moments.quadrature_moments(EnsembleParams(2, 1, 0, 1), 2.0, ["x1_sq"])
    gammafn.gamma_ratio(4.0, 2.0, 2.0)


def run_pass(sl, workload, seed, index, refs, tracer=None):
    """Run every operation once; time each of its parts, then check the outputs."""
    from workloads import WORKLOADS

    ops = WORKLOADS[workload][1](sl, seed, index, refs)
    outputs, op_wall, op_cpu = [], [], []
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for op in ops:
            outs, walls, cpus = [], [], []
            for part in range(op.parts):
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    outs.append(op.run(part))
                except Exception as exc:  # a failed call is counted, and the pass goes on
                    outs.append(exc)
                walls.append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
            errors = [o for o in outs if isinstance(o, Exception)]
            outputs.append(errors[0] if errors else outs if op.parts > 1 else outs[0])
            op_wall.append(walls)
            op_cpu.append(cpus)
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    results = [dict(judge(op, out), wall_s=sum(w), cpu_s=sum(c), part_wall_s=w, part_cpu_s=c)
               for op, out, w, c in zip(ops, outputs, op_wall, op_cpu)]
    return {"wall_s": wall, "cpu_s": cpu, "ops": results}


def fastest_ops(passes, key):
    """Sum over operations of parts times the fastest part over the passes.

    Every pass runs the same operations, split into parts of the same size,
    so this is a time one pass can take.  A part lasts well under a second
    where the operation allows it: the fastest of many short parts leaves out
    the spells of a few seconds in which other programs slow a shared host,
    which a part of several seconds cannot.
    """
    total = 0.0
    for runs in zip(*(p["ops"] for p in passes)):
        times = [t for r in runs for t in r[f"part_{key}"]]
        total += len(runs[0][f"part_{key}"]) * min(times)
    return total


def judge(op, out):
    """Status of one operation: ok, failed (error, underpowered, known fault) or wrong."""
    if isinstance(out, Exception):
        return {"op": op.name, "status": "failed", "why": f"error: {out!r}"[:300]}
    try:
        checks = op.check(out)
    except Exception as exc:  # output no longer has the shape the check reads
        return {"op": op.name, "status": "failed", "why": f"check error: {exc!r}"[:300]}
    detail = [{"check": c.name, "value": c.value, "reference": c.reference, "tol": c.tol,
               "se": c.se, "passed": c.passed, "powered": c.powered} for c in checks]
    if not all(c.powered for c in checks):
        status, why = "failed", "underpowered"
    elif all(c.passed for c in checks):
        status, why = "ok", ""
    elif op.known_fault:
        status, why = "failed", "known fault"
    else:
        status, why = "wrong", "check missed its reference"
    return {"op": op.name, "status": status, "why": why, "checks": detail}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and warm up; print the time it took")
    args = parser.parse_args(argv)

    sl = import_package()
    warm_up(sl)
    if args.setup_probe:
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    refs = WORKLOADS[args.workload][0]()
    tracer = Tracer(sl) if args.trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(untraced)
        untraced.append(run_pass(sl, args.workload, args.seed, index, refs))
        if tracer is not None:
            # same inputs as the untraced pass, so the difference is the tracing
            traced.append(run_pass(sl, args.workload, args.seed, index, refs, tracer))
        round_s = sum(p["wall_s"] for p in untraced + traced) / len(untraced)
        enough = tracer is not None or len(untraced) >= MIN_ROUNDS
        if enough and time.perf_counter() - start + round_s > args.seconds:
            break

    passes = untraced + traced
    result = {
        "workload": args.workload,
        "passes": len(passes),
        "wall_s": fastest_ops(untraced, "wall_s"),
        "cpu_s": fastest_ops(untraced, "cpu_s"),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": sum(r["status"] == "failed" for p in passes for r in p["ops"]),
        "wrong": sum(r["status"] == "wrong" for p in passes for r in p["ops"]),
        "ops": passes[-1]["ops"],
        "problems": sorted({(r["op"], r["status"], r["why"]) for p in passes for r in p["ops"]
                            if r["status"] != "ok"}),
    }
    if tracer is not None:
        per_layer = layer_metrics(tracer, len(traced))
        per_layer["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                         - statistics.median(p["wall_s"] for p in untraced))
        result["per_layer"] = {key: {"value": per_layer[key], "unit": unit}
                               for key, unit, _ in PER_LAYER}
        result["traced_wall_s"] = [p["wall_s"] for p in traced]
        result["spans"] = len(tracer.spans)
        result["hook_failures"] = tracer.hook_failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
