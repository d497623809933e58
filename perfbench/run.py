"""schattenlab benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Each workload runs in a fresh process
(worker.py) with one BLAS thread and SCHATTENLAB_WORKERS unset.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A traced run also writes its figures to
perfbench/results/.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOADS = ("oracle", "gauss-exact")
# Set-up probes run half before and half after the workload, so that they
# meet more than one spell of the machine's speed; setup_s is the fastest.
SETUP_PROBES = 6
TIMEOUT_S = 160
# One BLAS thread: a second one bought the oracle about 5% of wall time on two
# cores, and made its wall time depend on load on the other core.
BLAS_THREADS = "1"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def worker_env():
    env = dict(os.environ)
    env.pop("SCHATTENLAB_WORKERS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, timeout):
    """Run worker.py to its end and return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(count):
    """Times of import schattenlab plus first-call warm-up in fresh interpreters."""
    return [run_worker(["--setup-probe"], 60)["setup_s"] for _ in range(count)]


def run_workload(name, seed, seconds, trace):
    probes = setup_probes(SETUP_PROBES // 2)
    res = run_worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)], TIMEOUT_S)
    probes += setup_probes(SETUP_PROBES - len(probes))
    setup_s = min(probes)
    if trace:
        metrics = res["per_layer"]
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"trace-{name}-seed{seed}.json"
        out.write_text(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                   "untraced_wall_s": res["pass_wall_s"],
                                   "traced_wall_s": res["traced_wall_s"],
                                   "spans": res["spans"],
                                   "hook_failures": res["hook_failures"], "metrics": metrics,
                                   "operations": res["ops"]}, indent=1) + "\n")
    else:
        values = {"setup_s": setup_s, "wall_s": res["wall_s"],
                  "cpu_s": res["cpu_s"], "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}, res


def report(name, summary, res):
    """Human-readable lines on stderr: operations that did not pass, then the metrics."""
    err = sys.stderr
    print(f"== {name}: {res['passes']} pass(es), attempted {summary['attempted']}, "
          f"failed {summary['failed']}, correct {summary['correct']}", file=err)
    for op, status, why in res["problems"]:
        print(f"   {status:6s} {op}: {why}", file=err)
    for hook, count in res.get("hook_failures", {}).items():
        print(f"   hook   {hook}: failed {count} time(s); its figures are left out", file=err)
    for key, metric in summary["metrics"].items():
        print(f"   {key:36s} {metric['value']:.6g} {metric['unit']}", file=err)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="makes every workload input")
    parser.add_argument("--seconds", type=int, default=40,
                        help="run whole passes while the next one fits in this time (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schattenlab" / "__init__.py").is_file():
        print(f"no schattenlab source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        summary, res = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, summary, res)
        if len(names) == 1:
            total = summary
            break
        total["correct"] = total["correct"] and summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
