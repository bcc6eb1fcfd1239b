"""Batch driver: generate patterns, evaluate shifts, foliate, verify the
exact identities, estimate statistics, and run the nested-core ladder.

Exit codes: 0 on success (statistical deviations only warn), 1 when an
identity that is a theorem on the analyzed data fails (a software defect,
not noise), 2 on configuration errors.  Identical specs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .foliation import check_fractions, foliate, ladder_diagnostic
from .generators import GenSpec, convert, generate, read_config, spec_from_config
from .palm import (
    Realization,
    ShiftIterateKernel,
    StatReport,
    check_mass_transport,
    evaporation_profile,
    fold_reports,
    palm_mean,
    relative_intensity_report,
    reports_csv,
    reports_json,
    verify_identities,
)
from .patterns import TORUS, WINDOW, ConfigError, PointPattern
from .shifts import SHIFT_NAMES, ShiftKind, evaluate

EXIT_OK = 0
EXIT_EXACT_FAILURE = 1
EXIT_CONFIG = 2

# orders of the edge-indicator kernels checked by mass transport
TRANSPORT_ORDERS = (1, 2, 3)


@dataclass(frozen=True)
class ExperimentSpec:
    """A batch run: generator, shift, realization count, and outputs."""

    gen: GenSpec
    shift: ShiftKind
    n_realizations: int = 1
    n_max: int = 3
    fractions: tuple[float, ...] | None = None
    out: str | None = None
    jobs: int = 1
    save_patterns: bool = False

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.fractions is not None:
            object.__setattr__(self, "fractions", check_fractions(self.fractions))
        _check_out_dir(self.out)


def _check_out_dir(out: str | None) -> None:
    """Refuse an output directory that cannot be made because its path, or
    the nearest part of it that exists, is not a directory; checked before
    any realization is built."""
    if not out:
        return
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"cannot write to {out}: {existing} is not a directory")


def seed_for(spec: ExperimentSpec, index: int) -> int:
    return (spec.gen.seed + index) % 2**64


def build_realization(spec: ExperimentSpec, index: int) -> Realization:
    gen = spec.gen.with_seed(seed_for(spec, index))
    return Realization.from_spec(gen, spec.shift)


@dataclass(frozen=True)
class RealizationReports:
    """What a run keeps of one realization: its single-realization reports,
    plus the components CSV, ladder CSV and pattern JSON when they are to be
    written."""

    exact_setting: bool
    verify: list[StatReport] | None = None
    stats: list[StatReport] | None = None
    components_csv: str | None = None
    ladder_csv: str | None = None
    pattern_json: str | None = None


def reduce_realization(
    r: Realization,
    n_max: int,
    *,
    verify: bool,
    stats: bool,
    components: bool = False,
    pattern: bool = False,
    ladder: tuple[ShiftKind, tuple[float, ...]] | None = None,
) -> RealizationReports:
    """``r``'s reports, and the texts asked for.  The ``(shift, fractions)``
    ladder runs first, so its cores are dropped before the descendant table
    is built."""
    ladder_text = None
    if ladder is not None:
        ladder_text = ladder_diagnostic(r.pattern, *ladder, r.foliation).csv()
    r.dstats(max(n_max, *TRANSPORT_ORDERS))  # the one table every report reads
    return RealizationReports(
        exact_setting=r.is_exact_setting,
        verify=verify_reports(r, n_max) if verify else None,
        stats=stats_reports(r, n_max) if stats else None,
        components_csv=r.foliation.components_csv() if components else None,
        ladder_csv=ladder_text,
        pattern_json=r.pattern.to_json() if pattern else None,
    )


def _reduce_indexed(
    spec: ExperimentSpec, index: int, verify: bool, stats: bool, files: bool
) -> RealizationReports:
    first = files and index == 0
    return reduce_realization(
        build_realization(spec, index),
        spec.n_max,
        verify=verify,
        stats=stats,
        components=first,
        pattern=files and spec.save_patterns,
        ladder=(spec.shift, spec.fractions) if first and spec.fractions else None,
    )


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _send_share(conn: Any, reduce_share: Callable[[range], list], share: range) -> None:
    """A forked worker's body: send ``(True, rows)`` of its share, or
    ``(False, exception)``, and close the pipe."""
    try:
        try:
            result = (True, reduce_share(share))
        except Exception as exc:
            result = (False, exc)
        conn.send(result)
    finally:
        conn.close()


def realizations_for(
    spec: ExperimentSpec,
    *,
    verify: bool = True,
    stats: bool = True,
    files: bool = False,
) -> list[RealizationReports]:
    """Every realization's reports, in index order regardless of the worker
    count.  Each realization is built, reduced to its reports and dropped
    in the process that builds it, so one is alive per process at a time.
    With ``files`` the rows also carry the text of ``run``'s components and
    ladder CSVs (realization 0, the ladder under ``fractions``) and pattern
    files (under ``save_patterns``).

    ``min(jobs, realizations, usable CPUs)`` processes share the work: the
    caller reduces realizations ``i % workers == 0`` and forks one worker
    for each other residue before it builds any realization.  No worker
    outlives the call."""
    n = spec.n_realizations
    workers = min(spec.jobs, n, usable_cpus())

    def reduce_share(share: range) -> list[RealizationReports]:
        return [_reduce_indexed(spec, i, verify, stats, files) for i in share]

    if workers == 1:
        return reduce_share(range(n))
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    forked = []
    try:
        for w in range(1, workers):
            recv_end, send_end = ctx.Pipe(duplex=False)
            share = range(w, n, workers)
            proc = ctx.Process(target=_send_share, args=(send_end, reduce_share, share))
            proc.start()
            send_end.close()
            forked.append((proc, recv_end))
        rows: list[Any] = [None] * n
        rows[0::workers] = reduce_share(range(0, n, workers))
        for w, (proc, conn) in enumerate(forked, 1):
            try:
                ok, result = conn.recv()  # before join: a large payload fills the pipe
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"the worker for realizations {list(range(w, n, workers))} exited "
                    f"with code {proc.exitcode} without a result"
                ) from None
            proc.join()
            if not ok:
                raise result
            rows[w::workers] = result
        return rows
    finally:
        for proc, conn in forked:
            proc.terminate()  # a no-op on a worker already joined
            proc.join()
            conn.close()


def fold(rows: list[RealizationReports], part: str) -> list[StatReport]:
    """The whole-run ``verify`` or ``stats`` reports of the reduced rows."""
    return fold_reports(
        [getattr(row, part) for row in rows], all(row.exact_setting for row in rows)
    )


def verify_reports(r: Realization, n_max: int) -> list[StatReport]:
    transport = [check_mass_transport(ShiftIterateKernel(n), r) for n in TRANSPORT_ORDERS]
    return verify_identities(r, n_max) + transport


def exact_failures(reports: list[StatReport], expect_exact: bool) -> list[str]:
    if not expect_exact:
        return []
    return [rep.name for rep in reports if rep.target is not None and not rep.exact]


def stats_reports(r: Realization, n_max: int) -> list[StatReport]:
    ds = r.dstats(n_max)
    reports: list[StatReport] = []
    for n in range(1, n_max + 1):
        reports.append(palm_mean(ds.d[n], r, f"descendants_mean_n{n}"))
        cousins = np.where(ds.defined[n], ds.l[n], np.nan)
        reports.append(palm_mean(cousins, r, f"cousins_mean_n{n}"))
    reports.extend(evaporation_profile(r, range(1, n_max + 1)))
    reports.append(relative_intensity_report(r))
    return reports


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory; a path that cannot
    be written (``--out`` naming a regular file) is a config error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_report_files(out: Path, stem: str, reports: list[StatReport]) -> None:
    _write(out / f"{stem}.csv", reports_csv(reports))
    _write(out / f"{stem}.json", reports_json(reports))


def _read_conf(args: argparse.Namespace) -> dict:
    """The ``--config`` file's keys (empty without one)."""
    if getattr(args, "config", None):
        return read_config(args.config)
    return {}


def _setting(
    args: argparse.Namespace,
    conf: dict,
    key: str,
    default: Any = None,
    to: Callable[[Any], Any] | None = None,
) -> Any:
    """A setting from its flag, else the config file, else ``default``.

    Only ``None`` counts as unset, so an explicit 0 is kept.  ``to``
    converts the value; one that does not convert is a config error.
    """
    val = getattr(args, key, None)
    if val is None:
        val = conf.get(key, default)
    return val if to is None or val is None else convert(val, to, key)


def _shift_kind(args: argparse.Namespace, conf: dict) -> ShiftKind:
    """The shift from the flags, falling back to the config file."""
    shift = _setting(args, conf, "shift", to=str)
    if shift is None:
        raise ConfigError("a shift is required (--shift)")
    return ShiftKind(
        shift,
        ball_radius=_setting(args, conf, "ball_radius", 1.0, float),
        condenser_metric=_setting(args, conf, "condenser_metric", "euclidean", str),
    )


def _resolve_seed(args: argparse.Namespace, conf: dict) -> int:
    return _setting(args, conf, "seed", os.environ.get("FOLIATE_SEED", 0), int)


def _gen_spec(args: argparse.Namespace, conf: dict) -> GenSpec:
    conf = dict(conf)
    if getattr(args, "torus", None):
        conf["domain"] = TORUS
        conf["extents"] = args.torus
    if getattr(args, "window", None):
        conf["domain"] = WINDOW
        conf["extents"] = args.window
    for key in ("model", "buffer", "intensity", "p", "parent_intensity", "mark_intensity",
                "mark_circle_radius"):
        val = getattr(args, key, None)
        if val is not None:
            conf[key] = val
    conf["seed"] = _resolve_seed(args, conf)
    return spec_from_config(conf)


def _fractions(text: str) -> tuple[float, ...]:
    return tuple(float(f) for f in str(text).split(","))


def _experiment_spec(args: argparse.Namespace) -> ExperimentSpec:
    conf = _read_conf(args)
    return ExperimentSpec(
        gen=_gen_spec(args, conf),
        shift=_shift_kind(args, conf),
        n_realizations=_setting(args, conf, "realizations", 1, int),
        n_max=_setting(args, conf, "n_max", 3, int),
        fractions=_setting(args, conf, "fractions", to=_fractions),
        out=_setting(args, conf, "out"),
        jobs=_setting(args, conf, "jobs", 1, int),
        save_patterns=bool(getattr(args, "save_patterns", False)),
    )


def cmd_generate(args: argparse.Namespace) -> int:
    pattern = generate(_gen_spec(args, _read_conf(args)))
    text = pattern.to_json()
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text + "\n")
    return EXIT_OK


def _load_pattern(path: str) -> PointPattern:
    """Read a pattern file; an unreadable or invalid one is a config error."""
    try:
        return PointPattern.from_json(Path(path).read_text())
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load pattern {path}: {exc}") from exc


def cmd_foliate(args: argparse.Namespace) -> int:
    from .stable import build_stable_maps, stable_to_json

    _check_out_dir(args.out)
    pattern = _load_pattern(args.pattern)
    shift_map = evaluate(pattern, _shift_kind(args, {}))
    fol = foliate(pattern, shift_map)
    out = Path(args.out)
    _write(out / "shiftmap.json", shift_map.to_json())
    _write(out / "foliation.json", fol.to_json())
    _write(out / "components.csv", fol.components_csv())
    stable = build_stable_maps(pattern, shift_map, fol)
    _write(out / "f_perp.json", stable_to_json(stable.f_perp, "f_perp"))
    _write(out / "h_dense.json", stable_to_json(stable.h_dense, "h_dense"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.pattern:
        conf = _read_conf(args)
        n_max = _setting(args, conf, "n_max", 3, int)
        if n_max < 1:
            raise ConfigError("n_max must be >= 1")
        out = _setting(args, conf, "out")
        _check_out_dir(out)
        real = Realization.build(_load_pattern(args.pattern), _shift_kind(args, conf))
        rows = [reduce_realization(real, n_max, verify=True, stats=False)]
        del real  # only the reports outlive the reduction, as in realizations_for
    else:
        spec = _experiment_spec(args)
        rows = realizations_for(spec, stats=False)
        out = spec.out
    reports = fold(rows, "verify")
    failures = exact_failures(reports, all(row.exact_setting for row in rows))
    if out:
        write_report_files(Path(out), "verify", reports)
    else:
        sys.stdout.write(reports_csv(reports))
    for name in failures:
        sys.stderr.write(f"exact identity failed: {name}\n")
    return EXIT_EXACT_FAILURE if failures else EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    spec = _experiment_spec(args)
    reports = fold(realizations_for(spec, verify=False), "stats")
    if spec.out:
        write_report_files(Path(spec.out), "stats", reports)
    else:
        sys.stdout.write(reports_csv(reports))
    return EXIT_OK


def cmd_ladder(args: argparse.Namespace) -> int:
    spec = _experiment_spec(args)
    if spec.fractions is None:
        raise ConfigError("ladder needs --fractions")
    r = build_realization(spec, 0)
    text = ladder_diagnostic(r.pattern, spec.shift, spec.fractions, r.foliation).csv()
    if spec.out:
        _write(Path(spec.out) / "ladder.csv", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def run(spec: ExperimentSpec) -> int:
    """Monolithic pipeline: generate, shift, foliate, verify, report.

    Writes the same files the staged subcommands would; returns the exit
    status (0 unless an exact identity fails on exact-setting data)."""
    out = Path(spec.out) if spec.out else None
    rows = realizations_for(spec, stats=out is not None, files=out is not None)
    reports = fold(rows, "verify")
    failures = exact_failures(reports, all(row.exact_setting for row in rows))
    if out is not None:
        write_report_files(out, "verify", reports)
        write_report_files(out, "stats", fold(rows, "stats"))
        _write(out / "components.csv", rows[0].components_csv)
        if spec.save_patterns:
            for i, row in enumerate(rows):
                _write(out / f"pattern_{i:04d}.json", row.pattern_json)
        if spec.fractions:
            _write(out / "ladder.csv", rows[0].ladder_csv)
    for name in failures:
        sys.stderr.write(f"exact identity failed: {name}\n")
    return EXIT_EXACT_FAILURE if failures else EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    return run(_experiment_spec(args))


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--model", choices=("poisson", "bernoulli_grid", "poisson_cluster"))
    p.add_argument("--torus", help="torus extents, e.g. 50x50")
    p.add_argument("--window", help="window extents, e.g. 200x200")
    p.add_argument("--buffer", type=float, help="window censoring margin")
    p.add_argument("--intensity", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--parent-intensity", dest="parent_intensity", type=float)
    p.add_argument("--mark-intensity", dest="mark_intensity", type=float)
    p.add_argument("--mark-radius", dest="mark_circle_radius", type=float)
    p.add_argument("--seed", type=int, help="base seed (FOLIATE_SEED as fallback)")


def _add_shift_flags(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--shift", required=required, choices=list(SHIFT_NAMES))
    p.add_argument("--ball-radius", dest="ball_radius", type=float, default=None)
    p.add_argument(
        "--condenser-metric",
        dest="condenser_metric",
        choices=("euclidean", "first_coordinate"),
        default=None,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliate",
        description="point patterns, point-shifts, and their discrete foliations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a pattern and write its JSON")
    _add_gen_flags(p)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("foliate", help="evaluate a shift on a pattern file")
    p.add_argument("--pattern", required=True)
    _add_shift_flags(p, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_foliate)

    p = sub.add_parser("verify", help="exact identity and transport checks")
    _add_gen_flags(p)
    _add_shift_flags(p)
    p.add_argument("--pattern", help="analyze one pattern file instead of generating")
    p.add_argument("--realizations", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("stats", help="palm statistics and intensities")
    _add_gen_flags(p)
    _add_shift_flags(p)
    p.add_argument("--realizations", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("ladder", help="nested-core growth diagnostic")
    _add_gen_flags(p)
    _add_shift_flags(p)
    p.add_argument("--fractions", help="comma list, e.g. 0.25,0.5,0.75,1.0")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_ladder)

    p = sub.add_parser("run", help="full pipeline with reports")
    _add_gen_flags(p)
    _add_shift_flags(p)
    p.add_argument("--realizations", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--fractions")
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--save-patterns", action="store_true")
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.fn(args))
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
