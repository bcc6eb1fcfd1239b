"""foliate benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload mnn_torus_run --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the passes run the program unmodified and the
end-to-end metrics are printed; with ``--trace 1`` every other pass runs
under the out-of-program tracer and the per-layer metrics are printed.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  Work files go to ``.perfbench_out/`` in the checkout, and are
removed at the end except the result and span files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
from tracer import LAYERS, Tracer
from workloads import RESULT_FILES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5

# Per-layer function metrics: metric prefix -> the traced functions whose
# self times it sums.  `evaluate` only dispatches, so the shift's time is
# that of the evaluators it calls.
FUNCTION_METRICS = {
    "shifts.evaluate": ("shifts.evaluate", "shifts.eval_strip", "shifts.eval_mnn",
                        "shifts.eval_next_row", "shifts.eval_condenser",
                        "shifts.eval_multitype_strip"),
    "foliation.foliate": ("foliation.foliate",),
    "foliation.descendant_stats": ("foliation.descendant_stats",),
    "foliation.ladder_diagnostic": ("foliation.ladder_diagnostic",),
    "stable.build_rls_order": ("stable.build_rls_order",),
    "stable.build_f_perp": ("stable.build_f_perp",),
    "stable.build_h_dense": ("stable.build_h_dense",),
    "palm.verify_identities": ("palm.verify_identities",),
    "palm.check_mass_transport": ("palm.check_mass_transport",),
    "palm.relative_intensity": ("palm.relative_intensity",),
    "patterns.from_json": ("patterns.PointPattern.from_json",),
    "patterns.crop": ("patterns.crop",),
    "cli.realizations_for": ("cli.realizations_for",),
    "cli.write_report_files": ("cli.write_report_files",),
}


class SourceMissing(Exception):
    pass


def import_program() -> None:
    """Import foliate.cli from the checkout's src/."""
    if not (SRC / "foliate" / "cli.py").is_file():
        raise SourceMissing(f"no foliate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import foliate.cli  # noqa: F401

    if Path(sys.modules["foliate"].__file__).resolve().parent != SRC / "foliate":
        raise SourceMissing("foliate was imported from outside the checkout")


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing foliate.cli, as every CLI
    invocation does."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import foliate.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=60,
    )
    return time.perf_counter() - t0


def digest(dirs: list[Path], expected: tuple[str, ...]) -> tuple[str, list[str]]:
    """SHA-256 over the result files of a pass, and the expected files missing."""
    h = hashlib.sha256()
    missing = []
    for d in dirs:
        for name in RESULT_FILES:
            path = d / name
            if path.is_file():
                h.update(f"{d.name}/{name}\0".encode())
                h.update(hashlib.sha256(path.read_bytes()).digest())
            elif name in expected:
                missing.append(str(path.relative_to(OUT)))
    return h.hexdigest(), missing


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "foliate").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


class Run:
    """One benchmark run: set-up, timed passes, checks, metrics."""

    def __init__(self, workload, seconds: float, reference: str | None = None):
        self.wl = workload
        self.seconds = seconds
        self.reference = reference  # digest every pass must match; first pass when None
        self.passes: list[dict] = []
        self.ref_dir = workload.work / "reference"
        self.problems: list[str] = []

    def setup(self) -> float:
        """Median time of importing the program, writing the inputs and a
        tiny warm-up pass."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            import_seconds()
            self.wl.setup()
            self.wl.run_pass(self.wl.work / "warmup", 1, scale="tiny")
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def one_pass(self, jobs: int, tracer=None) -> dict:
        out = self.wl.work / "pass"
        shutil.rmtree(out, ignore_errors=True)
        rec = {"jobs": jobs, "traced": tracer is not None, "ok": False}
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            codes = self.wl.run_pass(out, jobs)
        except Exception:
            codes = None
            traceback.print_exc(file=sys.stderr)
        finally:
            rec["seconds"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        self.passes.append(rec)
        if tracer is not None:
            rec["layers"] = pass_layers(tracer, rec["seconds"], out)
            rec["functions"] = tracer.functions()
        if codes is None or any(codes):
            rec["error"] = f"exit codes {codes}"
            return rec
        dirs = self.wl.result_dirs(out)
        rec["digest"], missing = digest(dirs, self.wl.expected)
        if missing:
            rec["error"] = f"missing {missing}"
            return rec
        if self.wl.exact:
            inexact = oracles.check_torus_verify(out)
            if inexact:
                rec["error"] = "; ".join(inexact)
                return rec
        if not self.ref_dir.exists():
            shutil.copytree(out, self.ref_dir)
            self.reference = self.reference or rec["digest"]
        if rec["digest"] != self.reference:
            rec["error"] = "output digest differs from the reference"
            return rec
        rec["ok"] = True
        return rec

    def measure(self, kinds) -> None:
        """Passes of the given kinds until --seconds would be exceeded.

        ``kinds(i)`` is (jobs, traced) for pass i.  The first two passes
        always run; later ones only when a pass of their kind, at its last
        measured time, still ends within the budget."""
        start = time.perf_counter()
        last: dict = {}
        i = 0
        while True:
            kind = kinds(i)
            left = self.seconds - (time.perf_counter() - start)
            if i >= 2 and last.get(kind, last.get(kinds(0), 0.0)) > left:
                break
            rec = self.one_pass(*kind)
            last[kind] = rec["seconds"]
            if rec.get("error"):
                print(f"pass {i} failed: {rec['error']}", file=sys.stderr)
            i += 1

    def verify_reference(self) -> None:
        """Oracle check of the reference outputs; every pass that matched
        the reference shares their verdict."""
        if not self.ref_dir.exists():
            self.problems.append("no pass produced outputs")
            return
        try:
            self.problems = self.wl.check(self.ref_dir)
        except Exception as exc:  # malformed outputs fail the run, not the harness
            self.problems = [f"oracle could not read the outputs: {exc!r}"]
        for p in self.problems:
            print(f"oracle: {p}", file=sys.stderr)

    def counts(self) -> tuple[int, int]:
        attempted = len(self.passes)
        failed = sum(not p["ok"] for p in self.passes)
        return attempted, attempted if self.problems else failed


def end_to_end(run: Run, setup_s: float) -> dict:
    """Timed passes with tracing off: every third pass uses two jobs."""
    run.measure(lambda i: (2 if i % 3 == 1 else 1, None))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.verify_reference()
    points = 0 if run.problems else run.wl.points(run.ref_dir)
    single = [p["seconds"] for p in run.passes if p["jobs"] == 1]
    double = [p["seconds"] for p in run.passes if p["jobs"] == 2]
    return {
        "setup_s": (setup_s, "s"),
        "pass_p50_s": (statistics.median(single), "s"),
        "pass_jobs2_p50_s": (statistics.median(double), "s"),
        "points_per_s": (statistics.median(points / t for t in single), "1/s"),
        "peak_rss_mb": ((self_kb + child_kb) / 1024.0, "MB"),
    }


def per_layer(run: Run, tracer) -> dict:
    """Untraced and traced passes alternate; per-layer figures are medians
    over the traced passes, and each count must agree between them."""
    run.measure(lambda i: (1, tracer if i % 2 else None))
    run.verify_reference()
    samples = [p["layers"] for p in run.passes if "layers" in p]
    out = {}
    for key, (_, unit) in samples[0].items():
        values = [s[key][0] for s in samples]
        if unit != "count":
            out[key] = (statistics.median(values), unit)
        elif len(set(values)) == 1:
            out[key] = (values[0], unit)
        else:
            out[key] = (statistics.median(values), unit)
            run.problems.append(f"count {key} differs between passes: {values}")
    untraced = [p["seconds"] for p in run.passes if not p["traced"]]
    traced = [p["seconds"] for p in run.passes if p["traced"]]
    out["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    return out


def pass_layers(tracer, seconds: float, out: Path) -> dict:
    """Per-layer figures of one traced pass."""
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self[layer], "s")
        m[f"{layer}.calls"] = (tracer.layer_entries[layer], "count")
        m[f"{layer}.share"] = (tracer.layer_self[layer] / seconds, "ratio")
    for metric, names in FUNCTION_METRICS.items():
        m[f"{metric}.self_s"] = (sum(tracer.function_seconds(n) for n in names), "s")
    c = tracer.counts
    m["cellindex.queries"] = (c["cellindex.queries"], "count")
    m["shifts.points"] = (c["shifts.points"], "count")
    m["shifts.defined_frac"] = (c["shifts.defined"] / c["shifts.points"] if c["shifts.points"] else 0.0, "ratio")
    m["foliation.components"] = (c["foliation.components"], "count")
    m["foliation.foils"] = (c["foliation.foils"], "count")
    m["stable.nodes"] = (c["stable.nodes"], "count")
    m["patterns.bytes_written"] = (sum(p.stat().st_size for p in out.rglob("*") if p.is_file()), "count")
    return m


def benchmark(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
              reference: str | None = None) -> dict:
    """Run one workload; returns the result object and records it on disk."""
    import_program()
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, scale, work)
        run = Run(wl, seconds, reference)
        setup_s = run.setup()
        if trace:
            tracer = Tracer()
            metrics = per_layer(run, tracer)
        else:
            metrics = end_to_end(run, setup_s)
        attempted, failed = run.counts()
        result = {
            "correct": failed == 0 and not run.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        env = environment(seed)
        record = {"workload": name, "scale": scale, "seconds": seconds, "trace": trace,
                  "env": env, "passes": run.passes, "problems": run.problems, "result": result}
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        tag = f"{name}-seed{seed}-trace{int(trace)}"
        (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
        if trace:
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            (OUT / "traces" / f"{tag}.json").write_text(json.dumps({"env": env, **tracer.dump()}))
        print(json.dumps({"env": env, "workload": name, "passes": len(run.passes)}))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs the self-test size")
    args = p.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
