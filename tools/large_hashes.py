#!/usr/bin/env python3
"""Byte-identity check at large N: run four large commands and compare the
SHA-256 of their twenty result files with the pinned values.

Two `run` commands draw one Poisson realization of intensity 1 on a
1000×1000 domain (N = 998,344 at seed 3): `mnn` on a torus, and `strip` on
a window with buffer 10.  Each takes a few seconds and about 400 MB.  Two
`generate` + `foliate` commands write the canonical foliation and stable
maps that `run` never writes, at about 2.5·10⁵ points: `next_row` on a
Bernoulli grid torus of 1000×500 sites (p 0.5), and `mnn` on a Poisson
torus of 500×500.  Each takes one or two seconds and under 250 MB.

    python3 tools/large_hashes.py

Prints each step's exit status, wall time and max RSS (from ``os.wait4``).
Exits 0 when every command exits 0 and every file hashes equal, and 1
otherwise, naming each differing, missing or extra file.  It runs the
source tree next to this script.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = ["run", "--model", "poisson", "--intensity", "1", "--n-max", "5", "--jobs", "1", "--seed", "3"]


def foliate(flags: list[str], shift: str) -> list[list[str]]:
    """`generate` with the model and domain ``flags`` and seed 3 into
    ``{pattern}``, then `foliate --shift shift` on that file."""
    return [
        ["generate", *flags, "--seed", "3", "--out", "{pattern}"],
        ["foliate", "--pattern", "{pattern}", "--shift", shift],
    ]


# each command's steps; the last writes the hashed files into its --out
COMMANDS = {
    "mnn_torus": [RUN + ["--torus", "1000x1000", "--shift", "mnn"]],
    "strip_window": [RUN + ["--window", "1000x1000", "--buffer", "10", "--shift", "strip"]],
    "grid_next_row_foliate": foliate(
        ["--model", "bernoulli_grid", "--p", "0.5", "--torus", "1000x500"], "next_row"
    ),
    "mnn_torus_foliate": foliate(
        ["--model", "poisson", "--intensity", "1", "--torus", "500x500"], "mnn"
    ),
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
    "grid_next_row_foliate": {
        "components.csv": "1fa392f7b3cbabb9ae92ffc61420fa90813b9e8682ab0ab69592f5543ad8f613",
        "f_perp.json": "0916a7789b377b5df95ab5429926b52374f3a0bf4ed639c35cb74043ae254d64",
        "foliation.json": "6a6fcc3e7e5c9c84adaf9c0835b38923ad834bed0e0b4576abb5a39d8ce23110",
        "h_dense.json": "469e5e9a9f25cada03c6cf4d8b758c24d0444333dcb836cc420a97b976e967dd",
        "shiftmap.json": "427a47863d21f616b6920986db57dda8b1d06af8435db61ec3ee36fe08406f34",
    },
    "mnn_torus_foliate": {
        "components.csv": "54f07209a4849de2c0ce0d03e49c1ff1616deff1a8bde35cd9e05b4bfe290c9d",
        "f_perp.json": "85a933b7978f7a3e8f75b579a996dfff4659b9e2c66ea681464937483887bd43",
        "foliation.json": "85cf8dd5823080058dcfa29927293bc0357236b4ef7471c2e78426dda474840f",
        "h_dense.json": "d033b09a7631c72818e125d96c1bb22f0cb11dcfcc9ee112a952b686259d2bcb",
        "shiftmap.json": "34e6191de6476dab3d3bfdaecd3f5670a262684edfa08eaa1d40d04378db6237",
    },
}


def run(name: str, out: Path) -> list[str]:
    """Run one command's steps, the last into ``out``; the names of the
    files whose hash differs from the pinned one, or that are missing or
    extra."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    pattern = str(out.parent / f"{name}.pattern.json")
    steps = [[a.replace("{pattern}", pattern) for a in step] for step in COMMANDS[name]]
    steps[-1] += ["--out", str(out)]
    env = dict(os.environ, PYTHONPATH=path)
    for argv in steps:
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "foliate.cli", *argv], env)
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        seconds = time.monotonic() - t0
        rss = usage.ru_maxrss / 1024  # KiB on Linux
        print(f"{name} {argv[0]}: exit {code}, {seconds:.2f} s, max RSS {rss:.1f} MB", flush=True)
        if code:
            break
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
    print("all twenty hashes equal" if not bad else f"{len(bad)} file(s) differ")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
