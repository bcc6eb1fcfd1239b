#!/usr/bin/env python3
"""Byte-identity check at 10⁶ points: run the two large `run` commands and
compare the SHA-256 of their ten result files with the pinned values.

Both commands draw one Poisson realization of intensity 1 on a 1000×1000
domain (N = 998,344 at seed 3): `mnn` on a torus, and `strip` on a window
with buffer 10.  Each takes a few seconds and about 400 MB.

    python3 tools/large_hashes.py

Exits 0 when both commands exit 0 and every file hashes equal, and 1
otherwise, naming each differing, missing or extra file.  It runs the
source tree next to this script.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = ["run", "--model", "poisson", "--intensity", "1", "--n-max", "5", "--jobs", "1", "--seed", "3"]

COMMANDS = {
    "mnn_torus": RUN + ["--torus", "1000x1000", "--shift", "mnn"],
    "strip_window": RUN + ["--window", "1000x1000", "--buffer", "10", "--shift", "strip"],
}

HASHES = {
    "mnn_torus": {
        "components.csv": "99d1c923cb5bd1b8eee796855b761267a888340ca94bced323fdb7a6c3897de6",
        "stats.csv": "e4d0832ad70c69f803ed7d7b03de494d016b32e51d1398470b03c35e205f7472",
        "stats.json": "7402254310e03da2f1b2a61d34531316610388436d4f90d7da8c69b4b462310b",
        "verify.csv": "039c5b6f5a02a2733396978ca3bcd7baf6c0f36a8a378339bd522e62f7635d7c",
        "verify.json": "16240ec04b36024c8b11053f9de4c698d4af6428d1e9123fb1f48733e0ca9b7b",
    },
    "strip_window": {
        "components.csv": "46b3562fcd0e4b9f0b4fd944094f0436c1c29659a9c047ec2aca0f226ed2634e",
        "stats.csv": "4a4135db8635f039f4ccecbfb3a03e8ece5c766a7621504f93aa0fcf1f46bdc8",
        "stats.json": "d03e9e2a7abe93b8ff5804a48918efde13e98654882d762a1f66479c31e55480",
        "verify.csv": "1cdd752143948924754741e8adb11f839e53e9d3d19759bb61a7ea4acaf7a5df",
        "verify.json": "37758e124c749b276a89ab2a337165d14ab0ddb36cf83ecde091e0058ae126a1",
    },
}


def run(name: str, out: Path) -> list[str]:
    """Run one command into ``out``; the names of the files whose hash
    differs from the pinned one, or that are missing or extra."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "foliate.cli", *COMMANDS[name], "--out", str(out)]
    t0 = time.monotonic()
    code = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path)).returncode
    print(f"{name}: exit {code}, {time.monotonic() - t0:.1f} s")
    files = out.iterdir() if out.is_dir() else []
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    want = HASHES[name]
    bad = [f for f in sorted(got.keys() | want.keys()) if got.get(f) != want.get(f)]
    return bad if code == 0 else [f"exit {code}", *bad]


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            bad += [f"{name}/{f}" for f in run(name, Path(tmp) / name)]
    for f in bad:
        print(f"differs: {f}")
    print("all ten hashes equal" if not bad else f"{len(bad)} file(s) differ")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
