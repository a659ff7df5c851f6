"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --runs 10 [--workload small-batch] [--out perfbench/baseline.json]

Run from the repository root.  Each run is `perfbench/run.py --trace 0` with
seed 1..RUNS.  For every workload and metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
next to the metric's bound.  With --out it writes those figures, and the
environment they were measured in, into that file, keeping its other keys.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    summary = {}
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout}")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        summary[workload] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                            "spread": spread, "unit": m["unit"]}
            print(f"{workload:12s} {m['name']:12s} median {median:10.4f} {m['unit']:3s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.4f} (bound {m['bound']})")
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc.update(environment=_environment(), seeds=seeds, run_seconds=spec["run_seconds"])
        doc.setdefault("workloads", {}).update(summary)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
