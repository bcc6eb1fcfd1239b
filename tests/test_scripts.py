"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "next_row_intensity.py": (
        ["--columns", "10", "--rows", "20", "--realizations", "4"],
        ["realizations,mean,stderr"],
    ),
    "strip_ladder.py": (
        ["--side", "40", "--buffer", "2"],
        [
            "# strip on a thinned grid",
            "fraction,n_points,n_components,largest_component,typical_foil_size,n_foils",
            "# strip on poisson",
            "# survival profile (poisson)",
            "n,survival_fraction",
        ],
    ),
    "condenser_marks.py": (
        ["--length", "500", "--realizations", "4"],
        [
            "k,observed_fraction,predicted_fraction",
            "k,walk_mean,walk_stderr,walk_dropped,count_ratio_mean,target",
        ],
    ),
}


# scripts whose output is only CSV tables of numbers, each under its header
NUMERIC_TABLES = ("next_row_intensity.py", "condenser_marks.py")


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    args, headers = RUNS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for header in headers:
        assert header in lines
    if script in NUMERIC_TABLES:
        header, rows = None, {}
        for line in lines:
            if line in headers:
                header = line
                rows[header] = 0
                continue
            assert header is not None, line
            fields = line.split(",")
            assert len(fields) == len(header.split(",")), line
            for f in fields:
                float(f)
            rows[header] += 1
        assert all(rows.values()), rows
