"""
Write digests.json: SHA-256 of the output bytes of every fixed-input
command-line job, at both sizes.

    python3 perfbench/record_digests.py

The digests are the benchmark's reference: ROADMAP promises
byte-identical CLI output, so they are recorded once, from the code the
benchmark was defined on, and re-recorded only by a change that means
to alter that output and says so.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402


def main() -> int:
    digests = {}
    for size in jobs.SIZES:
        for workload in jobs.WORKLOADS:
            for job in jobs.build_jobs(workload, 0, size, jobs.References()):
                if job.digest_argv is None:
                    continue
                out = jobs.run_cli(job.digest_argv)
                if out.code != 0:
                    print(f"error: {jobs.digest_key(job.digest_argv)} exited {out.code}", file=sys.stderr)
                    return 1
                digests[jobs.digest_key(job.digest_argv)] = hashlib.sha256(out.out.encode()).hexdigest()
    jobs.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {jobs.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
