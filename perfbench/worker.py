"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is `setup` (time `import hyperlab` plus building the job list, then
stop), `plain` (run every job through `hyperlab.cli.main`, in process and one
after another) or `traced` (the same with the span recorder installed; the
spans are written to SPANS_PATH as JSON lines once the pass ends).

The pass reports each job's exit code and the SHA-256 of its stdout (first
16 hex digits), each job's latency, the pass wall time from the first job's
start to the last job's end, and `ru_maxrss` of this process.

In `setup` and `plain` mode a speed probe runs alongside (SpeedProbe), and
the times are also reported corrected for the host CPU's speed.
"""

import signal
import sys
import time

# The speed probe: a fixed pure-Python loop, timed every PROBE_INTERVAL_S of
# wall time.  REF_PROBE_S is what one probe takes on an unloaded 2-vCPU Xeon
# host under Python 3.11; it only sets the scale of the corrected times.
# hyperlab's jobs slowed as the probe's slowdown to the power 1.1 to 1.3 on
# that host (likely because a busy neighbour hurts the jobs' large tables
# more than the probe's few cache lines); SLOWDOWN_EXPONENT is the middle.
PROBE_ITERS = 3000
PROBE_INTERVAL_S = 0.01
REF_PROBE_S = 1.2e-4
SLOWDOWN_EXPONENT = 1.2


class SpeedProbe:
    """Tracks how fast the host runs this process while it works.

    On a shared host the CPU this process gets speeds up and slows down by
    a quarter or more, within seconds and over minutes.  A SIGALRM handler
    times a fixed loop every PROBE_INTERVAL_S of wall time, so the probes
    sample the host's speed evenly over the measured interval; their mean
    speed relative to REF_PROBE_S gives the slowdown the interval ran at.
    A duration, minus the probes' own time, divided by that slowdown to the
    power SLOWDOWN_EXPONENT is how long the work would have taken at the
    reference speed.
    The probes take about 1% of the time; they touch no program state.
    """

    def __init__(self):
        self.times = []
        self.total_s = 0.0

    def _probe(self, *_):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_ITERS):
            s += i
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.total_s += dt

    def start(self):
        for _ in range(3):
            self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self._probe()

    def slowdown(self):
        # The probes sample the speed (REF_PROBE_S / probe time) evenly in
        # wall time, so work done over wall time is their mean speed.  A probe
        # the scheduler preempts reads milliseconds; clip each at twice the
        # median so one such probe weighs little in the few of a set-up.
        cap = 2.0 * sorted(self.times)[len(self.times) // 2]
        speed = sum(REF_PROBE_S / min(t, cap) for t in self.times) / len(self.times)
        return 1.0 / speed

    def corrected(self, duration):
        return duration / self.slowdown() ** SLOWDOWN_EXPONENT


def run_jobs(jobs, main, after_job=None, probe=None):
    """Run each job; latencies and the wall time leave out the probe's time."""
    import contextlib
    import hashlib
    import io

    if probe is None:
        probe = SpeedProbe()  # never started: it takes no time

    results = []
    latencies = []
    outputs = []
    first = time.perf_counter()
    probed = probe.total_s
    for argv in jobs:
        out = io.StringIO()
        t0 = time.perf_counter()
        p0 = probe.total_s
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(argv))
        latencies.append(time.perf_counter() - t0 - (probe.total_s - p0))
        text = out.getvalue()
        results.append(f"{rc}:{hashlib.sha256(text.encode()).hexdigest()[:16]}")
        outputs.append(text)
        if after_job is not None:
            after_job()
    wall = time.perf_counter() - first - (probe.total_s - probed)
    return results, latencies, outputs, wall


def _report_rows(text):
    import json

    if text.startswith("["):
        return len(json.loads(text))
    return max(len(text.splitlines()) - 1, 0)


def _check_calls(jobs, outputs, snapshots):
    """Messages for jobs whose span counts differ from what the job implies."""
    import jobs as jobdefs

    errors = []
    before = {}
    for argv, text, after in zip(jobs, outputs, snapshots):
        want = jobdefs.expected_calls(argv, _report_rows(text) if argv[0] == "compute" else 0)
        for name, n in want.items():
            got = after.get(name, 0) - before.get(name, 0)
            if got != n:
                errors.append(f"{' '.join(argv)}: {name} called {got} times, expected {n}")
        before = after
    return errors


def _layer_metrics(rec, wall):
    import statistics

    import hyperlab.counts

    m = {}
    for name, n in rec.calls.items():
        m[f"{name}.calls"] = n
        m[f"{name}.self_s"] = rec.self_s[name]
    m.update(rec.stats)
    info = hyperlab.counts._inv_table.cache_info()
    m["counts.inv_table.misses"] = info.misses
    lookups = info.hits + info.misses
    m["counts.inv_table.hit_ratio"] = info.hits / lookups if lookups else 1.0
    jobs_ms = sorted((t1 - t0) * 1e3 for name, t0, t1, _ in rec.spans if name == "cli.main")
    m["cli.main.p50_ms"] = statistics.median(jobs_ms)
    m["cli.main.p99_ms"] = jobs_ms[-(-99 * len(jobs_ms) // 100) - 1]
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(rec.spans)
    m["trace.unspanned_frac"] = 1.0 - sum(rec.self_s.values()) / wall
    return m


def main(argv):
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    probe = SpeedProbe()
    if mode == "setup":
        probe.start()
    t0 = time.perf_counter()
    p0 = probe.total_s
    import hyperlab.cli

    import jobs as jobdefs

    pool, groups = jobdefs.pool(workload)
    jobs = [pool[i] for i in jobdefs.select(workload, groups, seed)]
    setup_s = time.perf_counter() - t0 - (probe.total_s - p0)

    import json
    import resource

    report = {"setup_s": setup_s}
    if mode == "setup":
        probe.stop()
        report["setup_corrected_s"] = probe.corrected(setup_s)
        print(json.dumps(report))
        return 0

    rec = None
    snapshots = []
    after_job = None
    if mode == "traced":
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
        after_job = lambda: snapshots.append(dict(rec.calls))  # noqa: E731
    probe = SpeedProbe()  # the pass's own; a traced pass leaves it unstarted
    if mode == "plain":
        probe.start()
    results, latencies, outputs, wall = run_jobs(jobs, hyperlab.cli.main, after_job, probe)
    if mode == "plain":
        probe.stop()
        report.update(wall_corrected_s=probe.corrected(wall), slowdown=probe.slowdown())
    report.update(
        wall_s=wall,
        latencies_s=latencies,
        results=results,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if rec is not None:
        report["layers"] = _layer_metrics(rec, wall)
        report["check_errors"] = _check_calls(jobs, outputs, snapshots)
        with open(argv[4], "w") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
