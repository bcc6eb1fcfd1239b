import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from foliate import cli, foliation, palm, stable
from foliate.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ExperimentSpec,
    main,
    parse_extents,
    realizations_for,
)
from foliate.generators import GenSpec, generate
from foliate.patterns import ConfigError, Domain, PointPattern
from foliate.shifts import ShiftKind, evaluate


def test_generate_writes_pattern(tmp_path):
    out = tmp_path / "pattern.json"
    code = main(
        [
            "generate",
            "--model",
            "poisson",
            "--intensity",
            "1",
            "--torus",
            "20x20",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    pat = PointPattern.from_json(out.read_text())
    assert pat.domain.extents == (20.0, 20.0)
    assert pat.metadata["seed"] == 7


def test_generate_is_byte_deterministic(tmp_path):
    args = [
        "generate",
        "--model",
        "bernoulli_grid",
        "--p",
        "0.5",
        "--torus",
        "10x10",
        "--seed",
        "3",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_foliate_stage_roundtrip(tmp_path):
    pattern_file = tmp_path / "pattern.json"
    main(
        [
            "generate",
            "--model",
            "poisson",
            "--intensity",
            "1",
            "--torus",
            "20x20",
            "--seed",
            "9",
            "--out",
            str(pattern_file),
        ]
    )
    out = tmp_path / "fol"
    code = main(
        [
            "foliate",
            "--pattern",
            str(pattern_file),
            "--shift",
            "mnn",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = json.loads((out / "shiftmap.json").read_text())
    assert len(rows) == len(PointPattern.from_json(pattern_file.read_text()))
    obj = json.loads((out / "foliation.json").read_text())
    assert obj["schema_version"] == 1
    lines = (out / "components.csv").read_text().splitlines()
    assert lines[0] == "id,size,cycle_length,n_foils,class"


def test_verify_exits_zero_and_reports_exact(tmp_path):
    out = tmp_path / "rep"
    code = main(
        [
            "verify",
            "--model",
            "poisson",
            "--intensity",
            "1",
            "--torus",
            "30x30",
            "--seed",
            "11",
            "--shift",
            "mnn",
            "--realizations",
            "3",
            "--n-max",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    text = (out / "verify.csv").read_text()
    assert "descendant_mean_n1" in text
    assert ",true," in text


def test_verify_on_pattern_file(tmp_path):
    pattern_file = tmp_path / "p.json"
    main(
        [
            "generate",
            "--model",
            "poisson",
            "--intensity",
            "1",
            "--torus",
            "15x15",
            "--seed",
            "2",
            "--out",
            str(pattern_file),
        ]
    )
    out = tmp_path / "rep"
    code = main(
        [
            "verify",
            "--pattern",
            str(pattern_file),
            "--shift",
            "mnn",
            "--n-max",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK


def test_config_error_exit_code():
    code = main(
        [
            "verify",
            "--model",
            "poisson",
            "--intensity",
            "-1",
            "--torus",
            "10x10",
            "--shift",
            "mnn",
        ]
    )
    assert code == EXIT_CONFIG


def test_next_row_on_non_grid_is_config_error(tmp_path):
    code = main(
        [
            "verify",
            "--model",
            "poisson",
            "--intensity",
            "1",
            "--torus",
            "10x10",
            "--seed",
            "1",
            "--shift",
            "next_row",
        ]
    )
    assert code == EXIT_CONFIG


def test_run_matches_staged_verify(tmp_path):
    common = [
        "--model",
        "bernoulli_grid",
        "--p",
        "0.5",
        "--torus",
        "20x20",
        "--seed",
        "5",
        "--shift",
        "next_row",
        "--realizations",
        "4",
        "--n-max",
        "3",
    ]
    staged = tmp_path / "staged"
    mono = tmp_path / "mono"
    assert main(["verify"] + common + ["--out", str(staged)]) == EXIT_OK
    assert main(["run"] + common + ["--out", str(mono)]) == EXIT_OK
    assert (staged / "verify.csv").read_bytes() == (mono / "verify.csv").read_bytes()


def test_run_is_byte_deterministic(tmp_path):
    common = [
        "run",
        "--model",
        "poisson",
        "--intensity",
        "1",
        "--torus",
        "25x25",
        "--seed",
        "6",
        "--shift",
        "mnn",
        "--realizations",
        "3",
        "--n-max",
        "2",
    ]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(common + ["--out", str(a)]) == EXIT_OK
    assert main(common + ["--out", str(b)]) == EXIT_OK
    for name in ("verify.csv", "verify.json", "stats.csv", "stats.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_jobs_do_not_change_results(tmp_path, monkeypatch):
    # uneven shares and more jobs than realizations, on a strip window with
    # the ladder and on an mnn torus whose saved patterns overfill a pipe's
    # buffer; the CPU count is set high so the forked path runs on any host,
    # and at 1 the run is serial
    strip = [
        "run", "--model", "poisson", "--intensity", "1", "--window", "30x30",
        "--buffer", "3", "--shift", "strip", "--seed", "8", "--n-max", "2",
        "--fractions", "0.5,1.0",
    ]
    mnn = [
        "run", "--model", "poisson", "--intensity", "1", "--torus", "40x40",
        "--shift", "mnn", "--seed", "8", "--n-max", "2", "--save-patterns",
    ]
    started = []  # one entry per forked worker
    start = multiprocessing.context.ForkProcess.start
    monkeypatch.setattr(
        multiprocessing.context.ForkProcess, "start", lambda p: started.append(p) or start(p)
    )

    def outputs(common, realizations, jobs, cpus):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        shift = common[common.index("--shift") + 1]
        out = tmp_path / f"{shift}-{realizations}-{jobs}-{cpus}"
        argv = common + ["--realizations", str(realizations), "--jobs", str(jobs)]
        del started[:]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert len(started) == min(jobs, realizations, cpus) - 1
        assert multiprocessing.active_children() == []
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    for common, names in (
        (strip, {"ladder.csv"}),
        (mnn, {f"pattern_{i:04d}.json" for i in range(4)}),
    ):
        for realizations in (4, 5):
            serial = outputs(common, realizations, 1, 64)
            assert names | {"components.csv", "verify.csv", "stats.json"} <= set(serial)
            for jobs in (2, 3, 5):
                assert outputs(common, realizations, jobs, 64) == serial
            assert outputs(common, realizations, 5, 1) == serial


def _fail_at(monkeypatch, index, fail):
    """Make ``build_realization`` call ``fail()`` for realization ``index``,
    and let ``realizations_for`` use two workers: realization 1 (and 3) is
    then the forked worker's share."""
    build = cli.build_realization
    monkeypatch.setattr(
        cli, "build_realization", lambda spec, i: fail() if i == index else build(spec, i)
    )
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)


def _raise(exc):
    raise exc


MNN_JOBS2 = [
    "--model", "poisson", "--intensity", "1", "--torus", "20x20", "--shift", "mnn",
    "--realizations", "2", "--jobs", "2",
]


def test_config_error_in_a_worker_exits_2(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def fail():
        raise ConfigError(f"in the caller: {os.getpid() == parent}")

    _fail_at(monkeypatch, 1, fail)
    assert main(["run", *MNN_JOBS2, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error: in the caller: False" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_config_error_in_the_callers_share_exits_2(monkeypatch, capsys):
    # the worker is still busy when the caller's realization 0 fails: it is
    # terminated, not waited for
    _fail_at(monkeypatch, 0, lambda: _raise(ConfigError("bad realization 0")))
    _fail_at(monkeypatch, 1, lambda: time.sleep(60))
    t0 = time.perf_counter()
    assert main(["verify", *MNN_JOBS2]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 30
    assert "config error: bad realization 0" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_worker_exiting_without_a_result_raises(monkeypatch):
    parent = os.getpid()
    _fail_at(monkeypatch, 1, lambda: os.getpid() != parent and os._exit(3))
    spec = ExperimentSpec(
        gen=GenSpec("poisson", Domain.torus(20, 20), seed=8, intensity=1.0),
        shift=ShiftKind("mnn"),
        n_realizations=4,
        jobs=2,
    )
    with pytest.raises(RuntimeError, match=r"realizations \[1, 3\] exited with code 3"):
        realizations_for(spec, lambda r, i: r.n_points)
    assert multiprocessing.active_children() == []


def test_run_builds_each_realization_once(tmp_path, monkeypatch):
    # the ladder's whole-window rung reads realization 0's own foliation:
    # two generations, and one foliation per realization plus the 0.5 core
    calls = {"generate": 0, "foliate": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for mod in (cli, palm, foliation):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    assert main([
        "run", "--model", "poisson", "--intensity", "1", "--window", "30x30",
        "--buffer", "3", "--shift", "strip", "--realizations", "2",
        "--fractions", "0.5,1.0", "--out", str(tmp_path),
    ]) == EXIT_OK
    assert calls == {"generate": 2, "foliate": 3}


def test_run_builds_no_whole_pattern_stable_maps(tmp_path, monkeypatch):
    # walk-mode relative intensity, taken on the censored strip components,
    # orders only the typical point's foil and its senior foil
    calls = {"build_stable_maps": 0, "build_rls_order": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        spy = counted(name, getattr(stable, name))
        for mod in (stable, palm):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy)
    assert main([
        "run", "--model", "poisson", "--intensity", "1", "--window", "30x30",
        "--buffer", "3", "--shift", "strip", "--realizations", "2",
        "--fractions", "0.5,1.0", "--out", str(tmp_path),
    ]) == EXIT_OK
    reports = json.loads((tmp_path / "stats.json").read_text())["reports"]
    walked = [rep for rep in reports if rep["name"] == "relative_intensity"]
    assert walked[0]["dropped"] == 0 and len(walked[0]["per_realization"]) == 2
    assert calls == {"build_stable_maps": 0, "build_rls_order": 0}
    # the spies do see the whole-pattern maps where they are still built
    spec = GenSpec("poisson", Domain.window(30, 30, buffer=3.0), seed=0, intensity=1.0)
    assert palm.Realization.from_spec(spec, "strip").stable.f_perp.size
    assert calls == {"build_stable_maps": 1, "build_rls_order": 1}


ROOT1 = "/sys/fs/cgroup/cpu,cpuacct/"
V1 = ROOT1 + "docker/ab/"


@pytest.mark.parametrize(
    "files, quota",
    [
        # cgroup v2: cpu.max holds "quota period"
        ({"/sys/fs/cgroup/jobs/cpu.max": "250000 100000\n"}, 2),
        ({"/sys/fs/cgroup/jobs/cpu.max": "50000 100000\n"}, 1),
        ({"/sys/fs/cgroup/jobs/cpu.max": "max 100000\n"}, None),
        ({"/sys/fs/cgroup/jobs/cpu.max": "garbled\n"}, None),
        # cgroup v1: the cpu controller's two files
        ({V1 + "cpu.cfs_quota_us": "300000\n", V1 + "cpu.cfs_period_us": "100000\n"}, 3),
        ({V1 + "cpu.cfs_quota_us": "-1\n", V1 + "cpu.cfs_period_us": "100000\n"}, None),
        ({V1 + "cpu.cfs_quota_us": "300000\n"}, None),
        # a container without a cgroup namespace: its own cgroup is the mount root
        ({ROOT1 + "cpu.cfs_quota_us": "200000\n", ROOT1 + "cpu.cfs_period_us": "100000\n"}, 2),
        ({"/sys/fs/cgroup/cpu.max": "100000 100000\n"}, 1),
        # both, as on a hybrid host: the smaller quota holds
        (
            {
                "/sys/fs/cgroup/jobs/cpu.max": "400000 100000",
                V1 + "cpu.cfs_quota_us": "300000",
                V1 + "cpu.cfs_period_us": "100000",
            },
            3,
        ),
        ({}, None),
    ],
)
def test_cpu_quota_reads_the_cgroup_files(monkeypatch, files, quota):
    cgroup = "12:cpu,cpuacct:/docker/ab\n4:memory:/elsewhere\n0::/jobs\n"
    files = {"/proc/self/cgroup": cgroup, **files}
    monkeypatch.setattr(cli, "_read_text", lambda path: files.get(path, ""))
    assert cli.cpu_quota() == quota
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4, 5}, raising=False)
    assert cli.usable_cpus() == min(6, quota or 6)


def test_cpu_quota_without_a_cgroup_file_is_none(monkeypatch, tmp_path):
    assert cli._read_text(str(tmp_path / "missing")) == cli._read_text(str(tmp_path)) == ""
    monkeypatch.setattr(cli, "_read_text", lambda path: "")
    assert cli.cpu_quota() is None


def test_realizations_for_returns_each_reduction_in_index_order(monkeypatch):
    spec = ExperimentSpec(
        gen=GenSpec("poisson", Domain.torus(20, 20), seed=8, intensity=1.0),
        shift=ShiftKind("mnn"),
        n_realizations=5,
        jobs=3,
    )
    sizes = [cli.build_realization(spec, i).n_points for i in range(5)]
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        rows = realizations_for(spec, lambda r, i: (i, r.n_points))
        assert rows == list(enumerate(sizes))
        assert multiprocessing.active_children() == []


def test_reduction_steps_each_order_once(monkeypatch):
    steps = []
    step = palm.next_generation
    monkeypatch.setattr(
        palm, "next_generation", lambda image, images: steps.append(1) or step(image, images)
    )
    gen = GenSpec("poisson", Domain.torus(20, 20), seed=8, intensity=1.0)
    for n_max in (1, 5):
        for verify, stats in ((True, True), (True, False), (False, True)):
            steps.clear()
            r = palm.Realization.from_spec(gen, "mnn")
            if verify:
                cli.verify_reports(r, n_max)
            if stats:
                cli.stats_reports(r, n_max)
            assert len(steps) == (max(n_max, 3) if verify else n_max)


def test_reduction_sorts_only_where_an_order_is_read(monkeypatch):
    calls = {"unique": 0, "lexsort": 0, "argsort": 0}

    def spy(name):
        fn = getattr(np, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np, name, spy(name))
    spec = GenSpec("poisson", Domain.torus(40, 40), seed=8, intensity=1.0)
    pattern = generate(spec)
    assert calls["unique"] == 0
    shift_map = evaluate(pattern, "mnn")
    calls.update(dict.fromkeys(calls, 0))
    fol = foliation.foliate(pattern, shift_map)
    assert calls == dict.fromkeys(calls, 0)
    r = palm.Realization(pattern, shift_map, fol)
    cli.verify_reports(r, 5)
    cli.stats_reports(r, 5)
    assert calls["unique"] == 0
    # the canonical anchors are read off sorts, and the spies see them
    foliation.canonical(pattern, fol)
    assert calls["unique"] > 0 and calls["argsort"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--model", "bernoulli_grid", "--p", "0.0", "--torus", "4x4",
         "--shift", "next_row"],
        ["run", "--model", "poisson", "--intensity", "0.001", "--torus", "5x5",
         "--shift", "mnn", "--realizations", "2"],
        ["verify", "--pattern", None, "--shift", "mnn"],
    ],
    ids=["grid_run", "poisson_run", "verify_pattern"],
)
def test_empty_torus_realization_fails_no_identity(tmp_path, capsys, argv):
    pattern = tmp_path / "empty.json"
    pattern.write_text(PointPattern(Domain.torus(5, 5), np.zeros((0, 2))).to_json())
    argv = [str(pattern) if a is None else a for a in argv]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    if argv[0] == "verify":  # run without --out prints no rows
        # the identities have no value to check, and the transport sums are 0
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert sum(row[5] == "0" for row in rows) == 15
        assert all(row[4] == "true" for row in rows if row[5] != "0")


def test_ladder_subcommand(tmp_path):
    out = tmp_path / "lad"
    code = main(
        [
            "ladder",
            "--model",
            "poisson",
            "--intensity",
            "1",
            "--window",
            "80x80",
            "--buffer",
            "6",
            "--seed",
            "4",
            "--shift",
            "strip",
            "--fractions",
            "0.5,1.0",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    text = (out / "ladder.csv").read_text()
    assert text.splitlines()[0].startswith("fraction,")
    assert "class," in text


def test_stats_subcommand(tmp_path):
    out = tmp_path / "st"
    code = main(
        [
            "stats",
            "--model",
            "poisson",
            "--intensity",
            "1",
            "--torus",
            "20x20",
            "--seed",
            "12",
            "--shift",
            "mnn",
            "--realizations",
            "2",
            "--n-max",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert "descendants_mean_n1" in (out / "stats.csv").read_text()


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FOLIATE_SEED", "99")
    out = tmp_path / "p.json"
    main(
        [
            "generate",
            "--model",
            "poisson",
            "--intensity",
            "1",
            "--torus",
            "10x10",
            "--out",
            str(out),
        ]
    )
    pat = PointPattern.from_json(out.read_text())
    assert pat.metadata["seed"] == 99


def test_config_file_driving(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = poisson\ndomain = torus\nextents = 20x20\nintensity = 1.0\n"
        "shift = mnn\nrealizations = 2\nn_max = 2\nseed = 13\n"
    )
    out = tmp_path / "rep"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "verify.csv").exists()


def test_verify_pattern_takes_shift_from_config(tmp_path):
    pattern = tmp_path / "p.json"
    gen = ["generate", "--model", "poisson", "--intensity", "1", "--torus", "15x15"]
    assert main(gen + ["--seed", "5", "--out", str(pattern)]) == EXIT_OK
    cfg = tmp_path / "c.cfg"
    cfg.write_text("shift = mnn\n")
    by_config = tmp_path / "config"
    by_flag = tmp_path / "flag"
    code = main(["verify", "--pattern", str(pattern), "--config", str(cfg), "--out", str(by_config)])
    assert code == EXIT_OK
    code = main(["verify", "--pattern", str(pattern), "--shift", "mnn", "--out", str(by_flag)])
    assert code == EXIT_OK
    assert (by_config / "verify.csv").read_bytes() == (by_flag / "verify.csv").read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "0"],
        ["--realizations", "0"],
        ["--seed", "-5"],
        ["--window", "3x3"],
        ["--intensity", "-1"],
    ],
    ids=["jobs", "realizations", "seed", "window", "intensity"],
)
def test_verify_pattern_refuses_a_setting_it_does_not_read(tmp_path, capsys, flags):
    pattern = tmp_path / "p.json"
    gen = ["generate", "--model", "poisson", "--intensity", "1", "--window", "20x20"]
    assert main(gen + ["--seed", "5", "--out", str(pattern)]) == EXIT_OK
    out = tmp_path / "out"
    argv = ["verify", "--pattern", str(pattern), "--shift", "strip", "--out", str(out)]
    assert main(argv + flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "not read" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_experiment_spec_validation():
    gen = GenSpec("poisson", Domain.torus(10, 10), seed=0, intensity=1.0)
    with pytest.raises(ConfigError):
        ExperimentSpec(gen=gen, shift=ShiftKind("mnn"), n_realizations=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(gen=gen, shift=ShiftKind("mnn"), fractions=(0.5, 0.25))


def test_verify_on_pattern_with_duplicates_is_config_error(tmp_path, capsys):
    pattern_file = tmp_path / "dup.json"
    pattern_file.write_text(
        json.dumps(
            {
                "dimension": 2,
                "domain": {"kind": "torus", "extents": [10.0, 10.0], "buffer": 0.0},
                "points": [[1.0, 1.0], [1.0, 1.0]],
            }
        )
    )
    code = main(["verify", "--pattern", str(pattern_file), "--shift", "mnn"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "duplicate" in err and len(err.strip().splitlines()) == 1


def test_foliate_on_missing_pattern_is_config_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    code = main(
        ["foliate", "--pattern", str(missing), "--shift", "mnn", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def _pattern_file(points, extents=(10.0, 10.0), metadata=None, kind="window") -> dict:
    obj = {
        "dimension": 2,
        "domain": {"kind": kind, "extents": extents, "buffer": 0.0},
        "points": points,
    }
    if metadata is not None:
        obj["metadata"] = metadata
    return obj


def _grid_file(points, extents=(4.0, 4.0), kind="torus") -> dict:
    """A grid pattern file on the unshifted lattice."""
    return _pattern_file(points, extents, {"grid_shift": [0.0, 0.0]}, kind)


def _cluster_file(**arrays) -> dict:
    """A two-point cluster pattern file (a parent and its child), with the
    given cluster arrays in place of the valid ones."""
    meta = {"cluster_parent": [-1, 0], "cluster_type": [1, 1], "cluster_is_parent": [1, 0]}
    return _pattern_file([[1.0, 1.0], [2.0, 2.0]], metadata={**meta, **arrays})


@pytest.mark.parametrize(
    "shift, obj",
    [
        ("mnn", _pattern_file([[1.0, 1.0], [2.0]])),
        ("mnn", _pattern_file([[1.0, 1.0], [2.0, "two"]])),
        ("mnn", _pattern_file([["1", 2]], extents=(5.0, 5.0), kind="torus")),
        ("mnn", _pattern_file([[True, False]], extents=(5.0, 5.0), kind="torus")),
        ("mnn", _pattern_file([[True, 1.5], [2.0, 2.0]], extents=(5.0, 5.0), kind="torus")),
        ("mnn", _pattern_file([[1.0, 1.0], [2.0, 2.0]], extents=None)),
        (
            "multitype_strip",
            _pattern_file(
                [[1.0, 1.0], [2.0, 2.0]],
                metadata={"cluster_parent": [-1, 0], "cluster_is_parent": [1, 0]},
            ),
        ),
        (
            "multitype_strip",
            _pattern_file(
                [[1.0, 1.0], [2.0, 2.0]],
                metadata={
                    "cluster_parent": [-1],
                    "cluster_type": [0],
                    "cluster_is_parent": [1],
                },
            ),
        ),
        ("multitype_strip", _cluster_file(cluster_parent=[-1, 10**20])),
        ("multitype_strip", _cluster_file(cluster_is_parent=[1, 0.5])),
        ("multitype_strip", _cluster_file(cluster_is_parent=[True, False])),
        ("mnn", _pattern_file([[1.0, 1.0], [2.0, 2.0]], metadata=[1])),
        ("next_row", _pattern_file([[1.5, 1.5], [2.5, 1.5]], metadata={"grid_shift": [0.5] * 3})),
        ("next_row", _pattern_file([[1.5, 1.5], [2.5, 1.5]], metadata={"grid_shift": [1e300, 0.5]})),
        ("mnn", '{"points": ' + "[" * 10**5 + "]" * 10**5 + "}"),
        ("mnn", _pattern_file([[10**400, 1.0], [2.0, 2.0]])),
        ("next_row", _grid_file([[3.9, 2.0], [0.0, 2.0]])),
        ("next_row", _grid_file([[1.0, 2.0], [1.2, 2.0], [2.0, 2.0]])),
        ("next_row", _grid_file([[1.0, 2.0], [1.0 + 1e-9, 2.0], [2.0, 2.0]])),
        ("next_row", _grid_file([[4.0 - 1e-9, 2.0], [0.0, 2.0]])),
        ("next_row", _grid_file([[1.5e19, 1.0], [0.0, 1.0]], extents=(2e19, 4.0), kind="window")),
        ("mnn", _pattern_file([[1.0, 2.0, 3.0], [4.0]])),
    ],
    ids=[
        "ragged_points",
        "non_numeric_coordinate",
        "numeric_string_coordinate",
        "boolean_coordinates",
        "boolean_among_float_coordinates",
        "null_extents",
        "cluster_type_missing",
        "short_cluster_arrays",
        "cluster_parent_past_int64",
        "float_cluster_flag",
        "boolean_cluster_flags",
        "metadata_not_an_object",
        "grid_shift_of_three_on_a_plane",
        "grid_shift_past_one",
        "deeply_nested_points",
        "coordinate_past_float",
        "grid_point_off_the_lattice",
        "grid_points_off_one_site",
        "grid_points_sharing_a_site",
        "grid_site_on_the_torus_extent",
        "grid_site_past_int64",
        "ragged_points_of_a_whole_count",
    ],
)
def test_foliate_on_bad_pattern_file_is_config_error(tmp_path, capsys, shift, obj):
    pattern_file = tmp_path / "bad.json"
    pattern_file.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    code = main(
        ["foliate", "--pattern", str(pattern_file), "--shift", shift, "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


SMALL_RUN = ["run", "--model", "poisson", "--intensity", "1", "--torus", "10x10"]


@pytest.mark.parametrize(
    "flags",
    [["--realizations", "0"], ["--n-max", "0"], ["--jobs", "0"], ["--ball-radius", "0"]],
)
def test_explicit_zero_is_config_error(tmp_path, flags, capsys):
    code = main(SMALL_RUN + ["--shift", "mnn", "--out", str(tmp_path / "out")] + flags)
    assert code == EXIT_CONFIG
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_a_failed_exact_identity_exits_1_on_a_torus_only(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(palm._IDENTITY_TARGETS, "descendant_mean", 2.0)
    failed = "".join(f"exact identity failed: descendant_mean_n{n}\n" for n in (1, 2))
    torus = SMALL_RUN[1:] + ["--shift", "mnn", "--n-max", "2", "--realizations", "2"]
    for argv in (["run", *torus], ["run", *torus, "--out", str(tmp_path)], ["verify", *torus]):
        assert main(argv) == 1
        assert capsys.readouterr().err == failed
    window = ["--model", "poisson", "--intensity", "1", "--window", "30x30", "--shift", "strip"]
    assert main(["verify", *window]) == EXIT_OK
    assert capsys.readouterr().err == ""


WINDOW_RUN = ["run", "--intensity", "1", "--window", "30x30", "--buffer", "3"]
CLUSTER_RUN = [*WINDOW_RUN, "--model", "poisson_cluster", "--shift", "multitype_strip"]


@pytest.mark.parametrize(
    "argv",
    [
        [*WINDOW_RUN, "--model", "poisson", "--shift", "condenser", "--ball-radius", "nan"],
        [*CLUSTER_RUN, "--mark-radius", "nan"],
        [*CLUSTER_RUN, "--mark-intensity", "inf"],
        [*WINDOW_RUN, "--model", "poisson", "--shift", "strip", "--buffer", "nan"],
    ],
    ids=["ball_radius", "mark_radius", "mark_intensity", "buffer"],
)
def test_non_finite_setting_is_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    _one_config_error(capsys)


def test_unparseable_env_seed_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("FOLIATE_SEED", "abc")
    assert main(SMALL_RUN + ["--shift", "mnn"]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["realizations = two", "seed = x", "intensity = lots"])
def test_unparseable_config_value_is_config_error(tmp_path, line, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = poisson\ndomain = torus\nextents = 10x10\nshift = mnn\n" + line + "\n"
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert line.split()[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--seed", "x"], ["--realizations", "two"], ["--intensity", "lots"]],
    ids=["seed", "realizations", "intensity"],
)
def test_unparseable_flag_value_is_config_error(flags, capsys):
    assert main(SMALL_RUN + ["--shift", "mnn"] + flags) == EXIT_CONFIG
    assert flags[0].lstrip("-") in _one_config_error(capsys)


@pytest.mark.parametrize(
    "lines, named",
    [("intensty = 5\nrealisations = 3\n", "intensty"), ("save_patterns = true\n", "save_patterns")],
    ids=["typos", "flag_only"],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, lines, named):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = poisson\nextents = 10x10\nshift = mnn\n" + lines)
    assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG
    assert named in _one_config_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [["generate", "--model", "poisson"], SMALL_RUN[:3] + ["--shift", "mnn"]],
    ids=["generate", "run"],
)
def test_torus_and_window_together_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--torus", "12x12", "--window", "10x10"])
    assert exc.value.code == EXIT_CONFIG
    assert "not allowed with" in capsys.readouterr().err


def test_parse_extents():
    assert parse_extents("50x50") == (50.0, 50.0)
    assert parse_extents("10000") == (10000.0,)
    with pytest.raises(ConfigError):
        parse_extents("50xfoo")


# The settings a `run` resolves on top of BASE_SETTINGS: each one's flags,
# its config value, and the spec field that holds it.
BASE_SETTINGS = {"model": "poisson", "domain": "window", "extents": "20x20", "shift": "mnn"}
SETTING_CASES = {
    "model": (["--model", "bernoulli_grid"], "bernoulli_grid", lambda s: s.gen.model),
    "domain": (["--torus", "20x20"], "torus", lambda s: s.gen.domain.kind),
    "extents": (["--window", "30x20"], "30x20", lambda s: s.gen.domain.extents),
    "buffer": (["--buffer", "2"], "2", lambda s: s.gen.domain.buffer),
    "seed": (["--seed", "9"], "9", lambda s: s.gen.seed),
    "intensity": (["--intensity", "2.5"], "2.5", lambda s: s.gen.intensity),
    "p": (["--p", "0.25"], "0.25", lambda s: s.gen.p),
    "parent_intensity": (["--parent-intensity", "0.5"], "0.5", lambda s: s.gen.parent_intensity),
    "mark_circle_radius": (["--mark-radius", "1.5"], "1.5", lambda s: s.gen.mark_circle_radius),
    "mark_intensity": (["--mark-intensity", "3"], "3", lambda s: s.gen.mark_intensity),
    "shift": (["--shift", "strip"], "strip", lambda s: s.shift.name),
    "ball_radius": (["--ball-radius", "2"], "2", lambda s: s.shift.ball_radius),
    "condenser_metric": (
        ["--condenser-metric", "first_coordinate"],
        "first_coordinate",
        lambda s: s.shift.condenser_metric,
    ),
    "realizations": (["--realizations", "3"], "3", lambda s: s.n_realizations),
    "n_max": (["--n-max", "5"], "5", lambda s: s.n_max),
    "fractions": (["--fractions", "0.5,1.0"], "0.5,1.0", lambda s: s.fractions),
    "out": (["--out", "outdir"], "outdir", lambda s: s.out),
    "jobs": (["--jobs", "2"], "2", lambda s: s.jobs),
}
# What an unset setting resolves to: the spec classes' defaults, and the
# torus domain kind; model, extents and shift have none.
SETTING_DEFAULTS = {
    "domain": "torus",
    "buffer": Domain.buffer,
    "seed": GenSpec.seed,
    "intensity": GenSpec.intensity,
    "p": GenSpec.p,
    "parent_intensity": GenSpec.parent_intensity,
    "mark_circle_radius": GenSpec.mark_circle_radius,
    "mark_intensity": GenSpec.mark_intensity,
    "ball_radius": ShiftKind.ball_radius,
    "condenser_metric": ShiftKind.condenser_metric,
    "realizations": ExperimentSpec.n_realizations,
    "n_max": ExperimentSpec.n_max,
    "fractions": ExperimentSpec.fractions,
    "out": ExperimentSpec.out,
    "jobs": ExperimentSpec.jobs,
}


def _resolved_run(monkeypatch, tmp_path, conf, flags=()):
    """The ExperimentSpec `run` resolves from ``conf`` as a config file and
    ``flags``, or the exit code when it is refused."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FOLIATE_SEED", raising=False)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{key} = {val}\n" for key, val in conf.items()))
    specs = []
    monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or EXIT_OK)
    code = main(["run", "--config", str(cfg), *flags])
    return specs[0] if code == EXIT_OK else code


@pytest.mark.parametrize("key", list(cli.SETTINGS))
def test_flag_and_config_line_resolve_alike(key, tmp_path, monkeypatch):
    flags, value, held = SETTING_CASES[key]
    by_flag = _resolved_run(monkeypatch, tmp_path, BASE_SETTINGS, flags)
    by_config = _resolved_run(monkeypatch, tmp_path, {**BASE_SETTINGS, key: value})
    assert by_flag == by_config
    assert held(by_flag) != held(_resolved_run(monkeypatch, tmp_path, BASE_SETTINGS))


@pytest.mark.parametrize("key", list(cli.SETTINGS))
def test_unset_setting_takes_the_spec_default(key, tmp_path, monkeypatch, capsys):
    conf = {k: v for k, v in BASE_SETTINGS.items() if k != key}
    spec = _resolved_run(monkeypatch, tmp_path, conf)
    if key in SETTING_DEFAULTS:
        assert SETTING_CASES[key][2](spec) == SETTING_DEFAULTS[key]
    else:
        assert spec == EXIT_CONFIG
        assert key in _one_config_error(capsys)


def test_single_fraction_fails_before_any_file_is_written(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--model",
            "poisson",
            "--window",
            "30x30",
            "--buffer",
            "2",
            "--shift",
            "strip",
            "--realizations",
            "2",
            "--fractions",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "ladder"])
def test_fractions_on_a_torus_are_refused_before_any_work(tmp_path, monkeypatch, capsys, command):
    _refuse_work(monkeypatch)
    out = tmp_path / "out"
    flags = SMALL_RUN[1:] + ["--shift", "mnn", "--fractions", "0.5,1.0", "--out", str(out)]
    assert main([command] + flags) == EXIT_CONFIG
    assert "window" in _one_config_error(capsys)
    assert not out.exists()


def _readme_config() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("with flags winning on conflict:\n\n```\n", 1)[1].split("```", 1)[0]


def test_readme_config_names_every_setting():
    lines = [line.lstrip("# ") for line in _readme_config().splitlines()]
    assert sorted(line.split("=")[0].strip() for line in lines) == sorted(cli.SETTINGS)


def test_readme_config_runs_everywhere(tmp_path, monkeypatch, capsys):
    """The README's example config, shrunk to a 10 x 10 torus and one
    realization, runs under every subcommand that reads a config."""
    conf = _readme_config()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(conf.replace("50x50", "10x10").replace("realizations = 20", "realizations = 1"))
    monkeypatch.chdir(tmp_path)
    for command in ("run", "verify", "stats"):
        assert main([command, "--config", str(cfg)]) == EXIT_OK, capsys.readouterr().err


def _one_config_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    return err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.cfg"
    assert main(["run", "--config", str(missing)]) == EXIT_CONFIG
    assert "nonexistent.cfg" in _one_config_error(capsys)


def test_config_file_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("model = poisson # d\xe9faut\n".encode("latin-1"))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    _one_config_error(capsys)


def test_out_naming_a_regular_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code = main(SMALL_RUN + ["--shift", "mnn", "--seed", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    _one_config_error(capsys)
    assert out.read_text() == "not a directory\n"


def _refuse_work(monkeypatch):
    """Make building a realization or evaluating a shift fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("work done before --out was checked")

    monkeypatch.setattr(cli, "build_realization", refuse)
    monkeypatch.setattr(cli, "evaluate", refuse)
    monkeypatch.setattr(palm, "evaluate", refuse)


@pytest.mark.parametrize("command", ["run", "verify", "stats", "ladder"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_out_naming_a_file_is_refused_before_any_realization(
    tmp_path, monkeypatch, capsys, command, below
):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if below else taken
    _refuse_work(monkeypatch)
    flags = SMALL_RUN[1:] + ["--shift", "mnn", "--out", str(out)]
    flags += ["--fractions", "0.5,1.0"] if command == "ladder" else ["--realizations", "4"]
    assert main([command] + flags) == EXIT_CONFIG
    assert "not a directory" in _one_config_error(capsys)
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["verify", "foliate"])
def test_out_naming_a_file_is_refused_before_the_pattern_is_read(
    tmp_path, monkeypatch, capsys, command
):
    pattern = tmp_path / "pattern.json"
    pattern.write_text(PointPattern(Domain.torus(4, 4), [[1.0, 1.0], [2.0, 3.0]]).to_json())
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    _refuse_work(monkeypatch)
    argv = [command, "--pattern", str(pattern), "--shift", "mnn", "--out", str(taken)]
    assert main(argv) == EXIT_CONFIG
    assert "not a directory" in _one_config_error(capsys)
    assert taken.read_text() == "not a directory\n"
