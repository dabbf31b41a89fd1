"""Set-up loads only what a sweep runs: numpy, the pool and the service stay out.

Every benchmark run, CLI command and pool or service worker pays set-up once
per process, so ``import repro`` loads only the modules a ``fast`` or
``analytic`` sweep, or the bounds cross-check, runs.  The check needs a fresh
interpreter: the test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Standard-library and third-party modules no sweep may load.
FORBIDDEN = ("numpy", "multiprocessing", "sqlite3", "http.server")

SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return {m for m in sys.modules if m == "repro" or m.startswith("repro.")}

out = {}
import repro
setup = loaded()
out["import"] = [m for m in %(forbidden)r if m in sys.modules]

from repro import DESIGNS, GemmShape, Session, SweepPlan
for fidelity in ("fast", "analytic"):
    plan = SweepPlan(designs=tuple(DESIGNS), suites=("table1",), scale=4, fidelity=fidelity)
    Session(cache=None, workers=1).run(plan)
out["sessions"] = sorted(loaded() - setup)

import repro.cli
def cli(*argv):
    before = loaded()
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(list(argv))
    return {"code": code, "added": sorted(loaded() - before)}

out["sweep"] = cli("sweep", "--workloads", "table1", "--designs", "all",
                   "--scale", "16", "--no-cache", "--jobs", "1")
out["plan show"] = cli("plan", "show", "--workloads", "table1", "--scale", "16")
out["cli"] = sorted(loaded() - setup)

import repro.analysis
bounds_setup = loaded()
repro.analysis.cross_check_bounds(GemmShape(64, 64, 64, name="hygiene"))
out["cross_check_bounds"] = sorted(loaded() - bounds_setup)
out["bounds"] = cli("bounds", "--m", "64", "--n", "64", "--k", "64")
out["end"] = [m for m in %(forbidden)r if m in sys.modules]
print(json.dumps(out))
"""


def fresh_interpreter(script: str) -> dict:
    """Run ``script`` in a new interpreter on this checkout; its last line as JSON."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in (os.environ.get("PYTHONPATH"),) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_sweeps_load_only_what_they_run():
    out = fresh_interpreter(SCRIPT % {"forbidden": FORBIDDEN})
    assert out["import"] == [] and out["end"] == []
    # Sessions and the cross-check import nothing set-up did not load.
    assert out["sessions"] == []
    assert out["cross_check_bounds"] == []
    # The CLI module is the sweep commands' set-up: they add nothing to it,
    # and it loads no analysis, experiment driver or service module.
    for command in ("sweep", "plan show", "bounds"):
        assert out[command] == {"code": 0, "added": []}, command
    assert not [
        m for m in out["cli"]
        if m.startswith(("repro.analysis", "repro.experiments", "repro.service."))
    ]


def test_experiment_runner_loads_no_numpy():
    """``repro simulate`` needs ``run_design`` only: the numpy-backed
    experiment modules (the Fig. 1 toy, the full report) load on first
    access."""
    out = fresh_interpreter(
        "import json, sys\n"
        "from repro.experiments.runner import run_design\n"
        "print(json.dumps([m for m in ('numpy', 'repro.experiments.toy',\n"
        "    'repro.experiments.report') if m in sys.modules]))\n"
    )
    assert out == []
