"""Machine reports stay byte-identical on the benchmark's golden jobs.

``perfbench/golden.json`` records the SHA-256 of ``report_to_machine`` for
each job the benchmark runs: two-sided jobs under ``pairs``/``toy_pairs``
and one-sided jobs under ``census``/``toy_census``.  The file is only read
here; ``perfbench/golden.py`` regenerates it for an intended format change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from leafatlas import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)
MODES = {"pairs": "full", "toy_pairs": "full", "census": "gminus", "toy_census": "gminus"}
JOBS = [
    pytest.param(
        MODES[group],
        job,
        id=f"{group}-{i}-{job['root_system']}",
    )
    for group in sorted(GOLDEN)
    for i, job in enumerate(GOLDEN[group])
]


def test_every_golden_job_is_collected():
    assert len(JOBS) == 63


@pytest.mark.parametrize("mode, job", JOBS)
def test_machine_report_matches_golden_digest(mode, job):
    cfg = cli.JobConfig(
        root_system=job["root_system"],
        gamma1=tuple(job["gamma1"]),
        gamma2=tuple(job["gamma2"]),
        tau=tuple(tuple(p) for p in job["tau"]),
        mode=mode,
        format="machine",
    )
    report = cli.run_job(cfg)
    assert report.errors == []
    assert len(report.records) == job["records"]
    text = cli.report_to_machine(report)
    assert hashlib.sha256(text.encode()).hexdigest() == job["sha256"]
