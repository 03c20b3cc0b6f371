"""Write perfbench/golden.json: the benchmark's job lists with the SHA-256
digest of each job's ``report_to_machine`` text.

Machine reports must stay byte-identical across changes, so the digests are
recorded once and every later pass compares against them.  Regenerate only
when a change to the report format is intended:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from leafatlas import build_root_system, cli, enumerate_valid_triples  # noqa: E402
from workloads import digest  # noqa: E402

# Two-sided jobs of 144 pairs each (about 0.6 s): short enough that the
# calibration probes between them track the machine's speed.
PAIRS = [
    ("A3", (0,), (1,), ((0, 1),)),
    ("A3", (0,), (2,), ((0, 2),)),
    ("A3", (1,), (2,), ((1, 2),)),
]
TOY_PAIRS = [("A2", (0,), (1,), ((0, 1),))]
CENSUS_SYSTEMS = "A1 A2 A1xA1 A1xA1xA1 A2xA1 B2 G2 A3 B3 C3 A4 D4".split()
TOY_CENSUS_SYSTEMS = ["A2", "B2"]
# The census keeps every triple of the small systems and, for A4 and D4,
# the first triple of each record-count stratum except D4's empty triple
# (1.5 s alone), so that one pass stays near 4 s: 55 of the 104 triples.
CENSUS_SAMPLED = {"A4", "D4"}
CENSUS_SKIPPED_STRATA = {("D4", 192)}


def run(job: tuple, mode: str) -> dict:
    label, g1, g2, tau = job
    cfg = cli.JobConfig(
        root_system=label, gamma1=g1, gamma2=g2, tau=tau, mode=mode, format="machine"
    )
    report = cli.run_job(cfg)
    if report.errors:
        raise SystemExit(f"{job}: {report.errors}")
    text = cli.report_to_machine(report)
    return {
        "root_system": label,
        "gamma1": list(g1),
        "gamma2": list(g2),
        "tau": [list(p) for p in tau],
        "records": len(report.records),
        "sha256": digest(text),
    }


def census(systems) -> list[dict]:
    out, strata = [], set()
    for label in systems:
        for t in enumerate_valid_triples(build_root_system(label)):
            job = run((label, t.gamma1, t.gamma2, t.tau), "gminus")
            stratum = (label, job["records"])
            if label in CENSUS_SAMPLED:
                if stratum in strata or stratum in CENSUS_SKIPPED_STRATA:
                    continue
                strata.add(stratum)
            out.append(job)
    return out


def main() -> None:
    doc = {
        "pairs": [run(j, "full") for j in PAIRS],
        "census": census(CENSUS_SYSTEMS),
        "toy_pairs": [run(j, "full") for j in TOY_PAIRS],
        "toy_census": census(TOY_CENSUS_SYSTEMS),
    }
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
