"""Record the reference sha256 of every workload artifact into
fixtures/digests.json, at the recorded seed and full size.

    python3 perfbench/record_digests.py

Run it only on the commit the references should come from. Every artifact
still has to pass the content checks before its digest is recorded.
"""

from __future__ import annotations

import json
import os
import sys
import time

import ops
import run

SEED = 42


def main() -> int:
    os.environ.update(run.PINNED_ENV)  # before numpy loads, as in run.main
    from checks import DIGESTS, sha256

    os.chdir(run.ROOT)
    digests = {}
    for workload in ops.WORKLOADS:
        r = run.Run(workload, SEED, "full", time.perf_counter())
        try:
            r.load_library()
            r.digests_all = r.digests_seeded = None
            for op in r.ops:
                r.cold_op(op, 0)
        finally:
            r.launcher.close()
        if r.failed:
            print("\n".join(r.failures), file=sys.stderr)
            return 1
        for op in r.ops:
            for a in op.artifacts:
                digests[f"{workload}/{op.name}/{a}"] = sha256(r.work / "cold0" / op.name / a)
    DIGESTS.write_text(json.dumps({"seed": SEED, "size": "full", "sha256": digests}, indent=1) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
