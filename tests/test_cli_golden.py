"""Byte-for-byte CLI transcripts of the sweep, plan, models, bounds and report commands.

Each ``data/cli/<name>.txt`` is the stdout of one command run through
:func:`repro.cli.main` — serial and cache-free, so every point simulates —
with the elapsed seconds of the stats lines masked.  A refactor of the
sweep plumbing must leave every table, stats line and count unchanged.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data" / "cli"
ELAPSED = re.compile(r"in \d+\.\d+s")
SERIAL = ["--no-cache", "--jobs", "1"]

TRANSCRIPTS = {
    "sweep_table1": ["sweep", "--workloads", "table1", "--scale", "16", *SERIAL],
    "sweep_suites": ["sweep", "--workloads", "bert-base,dlrm,training",
                     "--scale", "16", *SERIAL],
    "sweep_batches": ["sweep", "--workloads", "dlrm", "--batches", "64,512",
                      "--scale", "8", *SERIAL],
    "plan_run": ["plan", "run", "--workloads", "dlrm", "--scale", "8", *SERIAL],
    "models": ["models"],
    "bounds_table1": ["bounds", "--workloads", "table1", "--scale", "16"],
}


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return ELAPSED.sub("in <elapsed>s", capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript(name, capsys):
    expected = (DATA / f"{name}.txt").read_text()
    assert _stdout(capsys, TRANSCRIPTS[name]) == expected


def test_report_transcript(monkeypatch, capsys):
    """The whole ``repro report`` — Table I, Fig. 1/2/5/6/7, Sec. V and
    E15–E18 over every registered suite — end to end, serial and
    cache-free through the experiment drivers' environment knobs."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
    expected = (DATA / "report_scale16.txt").read_text()
    assert _stdout(capsys, ["report", "--scale", "16"]) == expected


def test_plan_merge_transcript(tmp_path, capsys):
    shards = []
    for index in range(2):
        path = tmp_path / f"s{index}.json"
        argv = TRANSCRIPTS["plan_run"] + ["--shard", f"{index}/2", "-o", str(path)]
        assert main(argv) == 0
        shards.append(str(path))
    capsys.readouterr()
    expected = (DATA / "plan_merge.txt").read_text()
    assert _stdout(capsys, ["plan", "merge", *shards]) == expected
