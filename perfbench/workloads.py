"""The three benchmark workloads, each driven through ``foliate.cli.main``.

A pass is one CLI command (``run``), or for ``grid_foliate`` one
``foliate foliate`` command per input file.  ``full`` is the measured size;
``tiny`` is the warm-up input and the self-test size.  Why each workload
was chosen, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import oracles

# Files whose bytes are the program's deterministic result; anything else
# a pass writes is ignored by the digest.
RESULT_FILES = (
    "verify.csv",
    "verify.json",
    "stats.csv",
    "stats.json",
    "components.csv",
    "ladder.csv",
    "shiftmap.json",
    "foliation.json",
    "f_perp.json",
    "h_dense.json",
)


def cli_main(argv: list[str]) -> int:
    from foliate import cli

    return int(cli.main(argv))


def generate(path: Path, flags: list[str]) -> Path:
    """Write one pattern file with ``foliate generate``."""
    argv = ["generate", *flags, "--out", str(path)]
    if cli_main(argv) != 0:
        raise RuntimeError(f"generate failed: {argv}")
    return path


class Workload:
    name = ""
    expected: tuple[str, ...] = ()
    exact = False  # every verify.csv row must read exact (torus)

    def __init__(self, seed: int, scale: str, work: Path):
        self.seed = seed
        self.scale = scale
        self.work = work

    def setup(self) -> None:
        """Write the inputs the passes read; idempotent."""

    def commands(self, out: Path, jobs: int, scale: str | None = None) -> list[list[str]]:
        raise NotImplementedError

    def run_pass(self, out: Path, jobs: int, scale: str | None = None) -> list[int]:
        """Exit codes of the pass's commands, in order."""
        return [cli_main(argv) for argv in self.commands(out, jobs, scale)]

    def result_dirs(self, out: Path) -> list[Path]:
        return [out]

    def points(self, out: Path) -> int:
        """Points analysed by one pass, read from its reference outputs."""
        return json.loads((out / "verify.json").read_text())["reports"][0]["n_points_used"]

    def check(self, out: Path) -> list[str]:
        """Oracle check of one pass's outputs."""
        raise NotImplementedError


class RunWorkload(Workload):
    """``foliate run`` over several seeded realizations."""

    expected = ("verify.csv", "verify.json", "stats.csv", "stats.json", "components.csv")
    model = ["--model", "poisson", "--intensity", "1"]
    shift: list[str] = []
    sizes: dict[str, dict] = {}

    def commands(self, out, jobs, scale=None):
        size = self.sizes[scale or self.scale]
        return [
            ["run", *self.model, *size["domain"], *self.shift, "--seed", str(self.seed),
             "--realizations", str(size["realizations"]), "--jobs", str(jobs), "--out", str(out)]
        ]

    def patterns(self) -> list[Path]:
        """The realizations' patterns, drawn again with ``foliate generate``
        (realization i of a run with seed s has seed s + i)."""
        size = self.sizes[self.scale]
        return [
            generate(self.work / "patterns" / f"{i}.json",
                     [*self.model, *size["domain"], "--seed", str(self.seed + i)])
            for i in range(size["realizations"])
        ]


class MnnTorusRun(RunWorkload):
    name = "mnn_torus_run"
    exact = True
    shift = ["--shift", "mnn", "--n-max", "5"]
    sizes = {
        "full": {"domain": ["--torus", "100x100"], "realizations": 4},
        "tiny": {"domain": ["--torus", "12x12"], "realizations": 4},
    }

    def check(self, out):
        return oracles.check_mnn_run(out, self.patterns())


class StripWindowRun(RunWorkload):
    name = "strip_window_run"
    expected = RunWorkload.expected + ("ladder.csv",)
    shift = ["--shift", "strip", "--n-max", "5", "--fractions", "0.25,0.5,0.75,1.0"]
    sizes = {
        "full": {"domain": ["--window", "200x200", "--buffer", "10"], "realizations": 2},
        "tiny": {"domain": ["--window", "40x40", "--buffer", "2"], "realizations": 2},
    }

    def check(self, out):
        return oracles.check_strip_run(out, self.patterns())


class GridFoliate(Workload):
    """``foliate foliate --shift next_row`` on K Bernoulli-grid pattern files."""

    name = "grid_foliate"
    expected = ("shiftmap.json", "foliation.json", "components.csv", "f_perp.json", "h_dense.json")
    K = 4
    sizes = {"full": "100x200", "tiny": "10x20"}

    def inputs(self, scale: str) -> list[Path]:
        return [self.work / "inputs" / scale / f"grid_{k}.json" for k in range(self.K)]

    def setup(self):
        for scale in {self.scale, "tiny"}:
            for k, path in enumerate(self.inputs(scale)):
                generate(path, ["--model", "bernoulli_grid", "--p", "0.5", "--torus",
                                self.sizes[scale], "--seed", str(self.seed * self.K + k)])

    def commands(self, out, jobs, scale=None):
        return [
            ["foliate", "--pattern", str(path), "--shift", "next_row", "--out", str(out / str(k))]
            for k, path in enumerate(self.inputs(scale or self.scale))
        ]

    def run_pass(self, out, jobs, scale=None):
        argvs = self.commands(out, jobs, scale)
        if jobs == 1:
            return [cli_main(argv) for argv in argvs]
        # Two commands at a time in forked workers, as `foliate run --jobs`
        # does with its own process pool.
        with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("fork")) as pool:
            return list(pool.map(cli_main, argvs))

    def result_dirs(self, out):
        return [out / str(k) for k in range(self.K)]

    def points(self, out):
        return sum(len(oracles.read_pattern(p)["coords"]) for p in self.inputs(self.scale))

    def check(self, out):
        problems = []
        for k, path in enumerate(self.inputs(self.scale)):
            problems += [f"input {k}: {p}" for p in oracles.check_grid_foliate(out / str(k), path)]
        return problems


WORKLOADS = {w.name: w for w in (MnnTorusRun, GridFoliate, StripWindowRun)}
