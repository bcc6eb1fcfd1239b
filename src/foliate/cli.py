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
from typing import Any, Callable, Iterable, TypeVar

from .foliation import check_fractions, foliate, ladder_diagnostic
from .generators import MODELS, GenSpec, generate
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
from .patterns import TORUS, WINDOW, ConfigError, Domain, PointPattern
from .shifts import SHIFT_NAMES, ShiftKind, evaluate

EXIT_OK = 0
EXIT_EXACT_FAILURE = 1
EXIT_CONFIG = 2

T = TypeVar("T")

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
        if self.fractions is not None and self.gen.domain.kind != WINDOW:
            raise ConfigError("fractions (the ladder) are only defined on window domains")


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


def realizations_for(spec: ExperimentSpec, reduce: Callable[[Realization, int], T]) -> list[T]:
    """``reduce(r, i)`` of every realization ``r`` by its index ``i``, in
    index order regardless of the worker count.  Each realization is built,
    reduced and dropped in the process that builds it, so one is alive per
    process at a time.

    ``min(jobs, realizations, usable CPUs)`` processes share the work: the
    caller reduces realizations ``i % workers == 0`` and forks one worker
    for each other residue before it builds any realization.  No worker
    outlives the call."""
    n = spec.n_realizations
    workers = min(spec.jobs, n, usable_cpus())

    def reduce_share(share: range) -> list[T]:
        return [reduce(build_realization(spec, i), i) for i in share]

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


def verify_reports(r: Realization, n_max: int) -> list[StatReport]:
    transport = [check_mass_transport(ShiftIterateKernel(n), r) for n in TRANSPORT_ORDERS]
    return verify_identities(r, n_max) + transport


def stats_reports(r: Realization, n_max: int) -> list[StatReport]:
    reports: list[StatReport] = []
    for n in range(1, n_max + 1):
        images, d, l = r.generation(n)
        reports.append(palm_mean(d, r, f"descendants_mean_n{n}"))
        reports.append(palm_mean(l, r, f"cousins_mean_n{n}", defined=images >= 0))
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


def write_report_files(out: str | Path | None, stem: str, reports: list[StatReport]) -> None:
    """Write ``stem``.csv and ``stem``.json under ``out``; without ``out``,
    the CSV to stdout."""
    if not out:
        sys.stdout.write(reports_csv(reports))
        return
    _write(Path(out) / f"{stem}.csv", reports_csv(reports))
    _write(Path(out) / f"{stem}.json", reports_json(reports))


def exit_code(reports: list[StatReport]) -> int:
    """Name on stderr each report that is exactable, has a target and a
    value, but is not exact: an exact identity that failed.  1 if there is
    one, else 0.  A report with no value (an empty torus realization)
    checked nothing, so it did not fail."""
    failures = [
        rep.name
        for rep in reports
        if rep.exactable and rep.target is not None and rep.per_realization and not rep.exact
    ]
    for name in failures:
        sys.stderr.write(f"exact identity failed: {name}\n")
    return EXIT_EXACT_FAILURE if failures else EXIT_OK


def parse_extents(text: str) -> tuple[float, ...]:
    """'50x50' or '10000' -> extents tuple."""
    try:
        return tuple(float(part) for part in str(text).lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad extents {text!r}") from exc


def _fractions(text: str) -> tuple[float, ...]:
    return tuple(float(f) for f in str(text).split(","))


# Every setting, keyed by its flag's dest, which is also its config key, with
# the converter its flag value and its config value both pass through.  The
# spec classes hold the defaults.
SETTINGS: dict[str, Callable[[Any], Any]] = {
    "model": str,
    "domain": str,
    "extents": parse_extents,
    "buffer": float,
    "seed": int,
    "intensity": float,
    "p": float,
    "parent_intensity": float,
    "mark_circle_radius": float,
    "mark_intensity": float,
    "shift": str,
    "ball_radius": float,
    "condenser_metric": str,
    "realizations": int,
    "n_max": int,
    "fractions": _fractions,
    "out": str,
    "jobs": int,
}

GEN_SETTINGS = (
    "model", "seed", "intensity", "p", "parent_intensity", "mark_circle_radius", "mark_intensity"
)
# the ExperimentSpec field of each run setting
RUN_FIELDS = {
    "realizations": "n_realizations",
    "n_max": "n_max",
    "fractions": "fractions",
    "out": "out",
    "jobs": "jobs",
}


def convert(value: Any, to: Callable[[Any], Any], key: str) -> Any:
    """``to(value)``; a value that does not convert is a config error."""
    try:
        return to(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a ``key = value`` UTF-8 config file; '#' starts a comment.  A
    file that cannot be read as UTF-8 text, or that names a key outside
    ``SETTINGS``, is a config error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    unknown = [key for key in out if key not in SETTINGS]
    if unknown:
        raise ConfigError(f"unknown config key: {', '.join(unknown)}")
    return out


def _given(args: argparse.Namespace) -> dict[str, Any]:
    """The settings given, each from its flag, else the ``--config`` file,
    converted by ``SETTINGS``.  Only ``None`` counts as unset, so an
    explicit 0 is kept; a value that does not convert is a config error."""
    conf = read_config(args.config) if getattr(args, "config", None) else {}
    flags = {key: val for key, val in vars(args).items() if key in SETTINGS and val is not None}
    return {key: convert(val, SETTINGS[key], key) for key, val in {**conf, **flags}.items()}


def _pick(given: dict[str, Any], keys: Iterable[str]) -> dict[str, Any]:
    return {key: given[key] for key in keys if key in given}


def _require(given: dict[str, Any], key: str) -> Any:
    if key not in given:
        raise ConfigError(f"missing setting: {key}")
    return given[key]


def _shift_kind(given: dict[str, Any]) -> ShiftKind:
    return ShiftKind(_require(given, "shift"), **_pick(given, ("ball_radius", "condenser_metric")))


def _gen_spec(given: dict[str, Any]) -> GenSpec:
    """The generator spec; without a seed setting the seed is ``FOLIATE_SEED``
    when that is set, else GenSpec's default."""
    _require(given, "model")
    extents = _require(given, "extents")
    domain = Domain(given.get("domain", TORUS), extents, **_pick(given, ("buffer",)))
    gen = _pick(given, GEN_SETTINGS)
    if "seed" not in gen and "FOLIATE_SEED" in os.environ:
        gen["seed"] = convert(os.environ["FOLIATE_SEED"], int, "seed")
    return GenSpec(domain=domain, **gen)


def _experiment_spec(args: argparse.Namespace) -> ExperimentSpec:
    given = _given(args)
    if "fractions" not in vars(args):  # verify and stats ignore fractions
        given.pop("fractions", None)
    return ExperimentSpec(
        gen=_gen_spec(given),
        shift=_shift_kind(given),
        save_patterns=bool(getattr(args, "save_patterns", False)),
        **{RUN_FIELDS[key]: val for key, val in _pick(given, RUN_FIELDS).items()},
    )


def cmd_generate(args: argparse.Namespace) -> int:
    pattern = generate(_gen_spec(_given(args)))
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
    except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"cannot load pattern {path}: {exc}") from exc


def cmd_foliate(args: argparse.Namespace) -> int:
    from .stable import build_stable_maps, stable_to_json

    _check_out_dir(args.out)
    pattern = _load_pattern(args.pattern)
    shift_map = evaluate(pattern, _shift_kind(_given(args)))
    stable = build_stable_maps(pattern, shift_map, foliate(pattern, shift_map))
    fol = stable.foliation  # canonically anchored
    out = Path(args.out)
    _write(out / "shiftmap.json", shift_map.to_json())
    _write(out / "foliation.json", fol.to_json())
    _write(out / "components.csv", fol.components_csv())
    _write(out / "f_perp.json", stable_to_json(stable.f_perp, "f_perp"))
    _write(out / "h_dense.json", stable_to_json(stable.h_dense, "h_dense"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.pattern:
        given = _given(args)
        n_max = given.get("n_max", ExperimentSpec.n_max)
        if n_max < 1:
            raise ConfigError("n_max must be >= 1")
        out = given.get("out")
        _check_out_dir(out)
        real = Realization.build(_load_pattern(args.pattern), _shift_kind(given))
        rows = [verify_reports(real, n_max)]
        del real  # only the reports outlive the reduction, as in realizations_for
    else:
        spec = _experiment_spec(args)
        rows = realizations_for(spec, lambda r, i: verify_reports(r, spec.n_max))
        out = spec.out
    reports = fold_reports(rows)
    write_report_files(out, "verify", reports)
    return exit_code(reports)


def cmd_stats(args: argparse.Namespace) -> int:
    spec = _experiment_spec(args)
    rows = realizations_for(spec, lambda r, i: stats_reports(r, spec.n_max))
    write_report_files(spec.out, "stats", fold_reports(rows))
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
    if not spec.out:
        rows = realizations_for(spec, lambda r, i: verify_reports(r, spec.n_max))
        return exit_code(fold_reports(rows))
    out = Path(spec.out)

    def reduce(r: Realization, i: int) -> tuple:
        """``r``'s verify and stats reports and its output texts.  Realization
        0's ladder and components texts come first, so neither one's
        transient stacks on the descendant walk."""
        first = i == 0
        ladder = (ladder_diagnostic(r.pattern, spec.shift, spec.fractions, r.foliation).csv()
                  if first and spec.fractions else None)
        components = r.foliation.components_csv() if first else None
        return (
            verify_reports(r, spec.n_max),
            stats_reports(r, spec.n_max),
            components,
            ladder,
            r.pattern.to_json() if spec.save_patterns else None,
        )

    verify, stats, components, ladders, patterns = zip(*realizations_for(spec, reduce))
    reports = fold_reports(verify)
    write_report_files(out, "verify", reports)
    write_report_files(out, "stats", fold_reports(stats))
    _write(out / "components.csv", components[0])
    if spec.save_patterns:
        for i, text in enumerate(patterns):
            _write(out / f"pattern_{i:04d}.json", text)
    if spec.fractions:
        _write(out / "ladder.csv", ladders[0])
    return exit_code(reports)


def cmd_run(args: argparse.Namespace) -> int:
    return run(_experiment_spec(args))


class _DomainFlag(argparse.Action):
    """``--torus`` or ``--window``: the domain kind ``const`` and its extents."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.domain = self.const
        namespace.extents = values


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--model", choices=MODELS)
    domain = p.add_mutually_exclusive_group()
    domain.add_argument("--torus", dest="extents", action=_DomainFlag, const=TORUS,
                        help="torus extents, e.g. 50x50")
    domain.add_argument("--window", dest="extents", action=_DomainFlag, const=WINDOW,
                        help="window extents, e.g. 200x200")
    p.add_argument("--buffer", help="window censoring margin")
    p.add_argument("--intensity")
    p.add_argument("--p")
    p.add_argument("--parent-intensity", dest="parent_intensity")
    p.add_argument("--mark-intensity", dest="mark_intensity")
    p.add_argument("--mark-radius", dest="mark_circle_radius")
    p.add_argument("--seed", help="base seed (FOLIATE_SEED as fallback)")


def _add_shift_flags(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--shift", required=required, choices=list(SHIFT_NAMES))
    p.add_argument("--ball-radius", dest="ball_radius")
    p.add_argument(
        "--condenser-metric", dest="condenser_metric", choices=("euclidean", "first_coordinate")
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that fold realizations into reports."""
    p.add_argument("--realizations")
    p.add_argument("--n-max", dest="n_max")
    p.add_argument("--jobs")
    p.add_argument("--out", help="output directory")


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
    _add_run_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("stats", help="palm statistics and intensities")
    _add_gen_flags(p)
    _add_shift_flags(p)
    _add_run_flags(p)
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
    _add_run_flags(p)
    p.add_argument("--fractions")
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
