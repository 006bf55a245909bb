"""Record the report digests that the correctness gate compares against.

    python3 wittbench/record_digests.py

Runs `wittram verify` once per workload and pool seed, requires each report
to pass the rest of the gate, and writes wittbench/digests.json.  Run it
only when a change alters the report bytes on purpose and bumps
REPORT_VERSION; the gate skips the digest rule for any other version.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, POOL_SIZE, WORKLOADS, gate, report_digest, run_child


def main() -> int:
    reports = {}
    version = None
    for name, w in sorted(WORKLOADS.items()):
        reports[name] = {}
        for seed in range(POOL_SIZE):
            child = run_child(["-m", "wittram.cli"] + w.verify_argv(seed), 600.0)
            problems = gate(w, seed, child.code, child.out,
                            {"report_version": None, "reports": {}})
            if problems:
                print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            version = json.loads(child.out)["version"]
            reports[name][str(seed)] = report_digest(child.out)
            print(f"{name} seed {seed}: {child.wall_s:.3f} s", flush=True)
    DIGESTS.write_text(json.dumps({"report_version": version, "reports": reports},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
