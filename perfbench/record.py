"""Record reference.json: the exit code and stdout digest of every pool job.

    PYTHONPATH=src python3 perfbench/record.py

Run from the repository root on a commit whose outputs are trusted.  Every
job of every workload's pool runs once through `hyperlab.cli.main`, so the
benchmark can check any seed.  The sl2-energy pool takes about two minutes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as jobdefs  # noqa: E402
from worker import run_jobs  # noqa: E402


def main():
    import hyperlab.cli

    ref = {}
    for workload in jobdefs.WORKLOADS:
        pool, _ = jobdefs.pool(workload)
        results, _, _, wall = run_jobs(pool, hyperlab.cli.main)
        ref[workload] = {"pool_sha256": jobdefs.pool_digest(pool), "results": results}
        print(f"{workload}: {len(pool)} jobs in {wall:.1f} s", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
