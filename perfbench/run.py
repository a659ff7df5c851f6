"""hyperlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sl2-energy --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each pass runs the workload's job list through
`hyperlab.cli.main` in a fresh interpreter (perfbench/worker.py): a closed
loop with one client, no worker pool and no extra threads.  Passes repeat
until --seconds have elapsed, at least one.

--trace 0 reports the end-to-end metrics (medians over passes; setup_s is the
median of several fresh interpreters) and prints job latency percentiles.
wall_s and setup_s are corrected for the host CPU's speed by a probe that
runs alongside (worker.SpeedProbe); the measured times are printed next to
them as wall_raw_s and setup_raw_s.
--trace 1 alternates plain and traced passes and reports the per-layer
metrics of the traced ones; the traced passes' spans go to .perfbench-out/.
Every pass's exit codes and stdout digests are checked against
perfbench/reference.json, and the traced passes' against the plain ones.
The last stdout line is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as jobdefs  # noqa: E402

SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170.0
SPANS_DIR = ".perfbench-out"


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _p99(values):
    ordered = sorted(values)
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


class Runner:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        # OPENBLAS_NUM_THREADS=1: importing numpy (verify does) would otherwise
        # start a BLAS thread pool, whose start-up time swung twofold on a
        # shared host; hyperlab makes no BLAS calls.
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")

    def child(self, mode, spans_path=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.workload, str(self.seed), mode]
        if spans_path:
            cmd.append(spans_path)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            _fail("out of time before the run finished")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            _fail(f"{mode} pass did not finish within the run deadline")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"{mode} pass exited with code {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])


def _load_reference(workload, pool):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[workload]
    if ref["pool_sha256"] != jobdefs.pool_digest(pool):
        _fail(f"reference.json does not match the {workload} job pool; run perfbench/record.py")
    return ref["results"]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=jobdefs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyperlab", "cli.py")):
        _fail("run from the repository root: src/hyperlab/cli.py not found")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    pool, groups = jobdefs.pool(args.workload)
    picks = jobdefs.select(args.workload, groups, args.seed)
    reference = _load_reference(args.workload, pool)
    expected = [reference[i] for i in picks]
    runner = Runner(root, args.workload, args.seed)

    plain, traced = [], []
    if args.trace == 0:
        setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]
        start = time.monotonic()
        while not plain or time.monotonic() - start < args.seconds:
            plain.append(runner.child("plain"))
    else:
        os.makedirs(os.path.join(root, SPANS_DIR), exist_ok=True)
        start = time.monotonic()
        while not traced or time.monotonic() - start < args.seconds:
            plain.append(runner.child("plain"))
            path = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}-{len(traced)}.jsonl")
            traced.append(runner.child("traced", path))

    passes = plain + traced
    attempted = len(expected) * len(passes)
    failed = sum(got != want for p in passes for got, want in zip(p["results"], expected))
    problems = [f"{failed} of {attempted} jobs differ from reference.json"] if failed else []
    for t in traced:
        if t["results"] != plain[0]["results"]:
            problems.append("a traced pass printed different report bytes than the plain pass")
        problems.extend(t["check_errors"][:20])

    med = statistics.median
    if args.trace == 0:
        values = {
            "wall_s": med(p["wall_corrected_s"] for p in plain),
            "setup_s": med(s["setup_corrected_s"] for s in setups),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        }
        declared = spec["end_to_end"]
        # Printed, not declared: on the 9-job workloads they are single-job
        # latencies, too noisy on a shared host for an end-to-end bound.
        per_job = [med(x) for x in zip(*(p["latencies_s"] for p in plain))]
        extra = [
            ("wall_raw_s", med(p["wall_s"] for p in plain), "s", "as measured"),
            ("setup_raw_s", med(s["setup_s"] for s in setups), "s", "as measured"),
            ("host_slowdown", med(p["slowdown"] for p in plain), "ratio", "probe over reference"),
            ("job_p50_ms", med(per_job) * 1e3, "ms", f"{len(expected)} jobs"),
            ("job_p99_ms", _p99(per_job) * 1e3, "ms", f"{len(expected)} jobs"),
        ]
    else:
        values = {}
        for name in {k for t in traced for k in t["layers"]}:
            values[name] = med(t["layers"].get(name, 0) for t in traced)
        values["trace.overhead_frac"] = (
            med(t["wall_s"] for t in traced) / med(p["wall_s"] for p in plain) - 1.0
        )
        declared = spec["per_layer"]
        extra = []

    print(f"workload {args.workload}  seed {args.seed}  passes: {len(plain)} plain, {len(traced)} traced")
    metrics = {}
    for m in declared:
        # a layer the workload never entered reads 0; every end-to-end metric is measured
        value = float(values[m["name"]] if args.trace == 0 else values.get(m["name"], 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40s} {value:16.6f} {m['unit']}")
    extra.append(("ops_failed_frac", failed / attempted, "ratio", f"{attempted} jobs"))
    for name, value, unit, note in extra:
        print(f"  {name:40s} {value:16.6f} {unit:14s} {note}")
    for msg in problems:
        print(f"  problem: {msg}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
