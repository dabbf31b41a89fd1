#!/usr/bin/env python3
"""Regenerate ``pins.json``: per-point digests for the pinned seeds.

Usage::

    python3 perfbench/pin.py [--workloads fast-cold,bounds-oracle]

For each workload and each of :data:`inputs.DEFAULT_SEED` and
:data:`inputs.HELD_OUT_SEED` it makes one fresh-process run, requires every
check that needs no pin to pass, and records the input's content hash and
one digest per point.  Run it only for a change that is meant to alter outputs; the
diff of ``pins.json`` then shows which workloads' results moved.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    run.import_repro()
    import checks
    import inputs

    pins = json.loads(checks.PINS.read_text()) if checks.PINS.exists() else {}
    run.WORK.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in (inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED):
            generated = inputs.GENERATORS[workload](seed)
            work = Path(tempfile.mkdtemp(prefix=f"pin-{workload}-", dir=run.WORK))
            try:
                fill_json = None
                cache = work / "cache"
                if workload == "warm-rerun":
                    fill_json = run.fill_store(generated.payload, cache)
                result = run.spawn(workload, generated.payload, work / "run", cache)
                plan = run.sweep_plan(workload, generated.payload)
                outcome = run.check_runs(generated, plan, [result], fill_json, pin=None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if outcome["failed"]:
                print(f"error: {workload} seed {seed}: {outcome['failed']} points "
                      "failed the unpinned checks; not pinning", file=sys.stderr)
                return 1
            records = outcome["reference"]
            pins.setdefault(workload, {})[str(seed)] = {
                "content_sha256": generated.content_sha256,
                "points": len(records),
                "digests": checks.digest_string(records),
            }
            print(f"pinned {workload} seed {seed}: {len(records)} points")
    checks.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
