"""The benchmark's tracer around three small commands, one per workload
kind: every attribute and counter it reads off the program must still be
there, so removing one fails here rather than in a traced benchmark pass."""

import sys
from pathlib import Path

import foliate.cli
from foliate.cli import EXIT_OK, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_counts_three_small_commands(tmp_path):
    pattern = tmp_path / "grid.json"
    generate = ["generate", "--model", "bernoulli_grid", "--p", "0.5", "--torus", "10x20"]
    assert main(generate + ["--seed", "3", "--out", str(pattern)]) == EXIT_OK
    poisson = ["run", "--model", "poisson", "--intensity", "1", "--seed", "1"]
    commands = {
        "mnn_torus_run": poisson
        + ["--torus", "12x12", "--shift", "mnn", "--realizations", "2"],
        "strip_window_run": poisson
        + ["--window", "40x40", "--buffer", "2", "--shift", "strip", "--fractions", "0.5,1.0"],
        "grid_foliate": ["foliate", "--pattern", str(pattern), "--shift", "next_row"],
    }
    tracer = Tracer()
    nodes = 0
    for name, argv in commands.items():
        tracer.reset()
        tracer.install()
        try:
            code = foliate.cli.main(argv + ["--out", str(tmp_path / name)])
        finally:
            tracer.uninstall()
        assert code == EXIT_OK, name
        assert tracer.counts["foliation.components"] > 0, name
        assert tracer.function_seconds("cli.main") > 0.0, name
        nodes += tracer.counts["stable.nodes"]
    assert nodes > 0
    assert foliate.cli.main is main  # the originals are back
