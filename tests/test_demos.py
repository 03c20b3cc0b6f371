"""Every demo script runs against the checkout's src/ and prints exactly its
pinned output in tests/data/demos/<stem>.txt, and README's library quick
start prints exactly the lines its comments give."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{script.stem}.txt").read_text()


def test_readme_quick_start_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    # the output is each comment-only line, and the comment of each print line
    expected = []
    for line in code.splitlines():
        if line.startswith("# "):
            expected.append(line[2:])
        elif line.startswith("print(") and "  # " in line:
            expected.append(line.split("  # ", 1)[1])
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
