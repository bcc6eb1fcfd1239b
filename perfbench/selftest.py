"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload with tracing off and on, and checks that:
  * the last output line has exactly the result keys, passes every check,
    and carries every metric named in BENCHMARK.json with its unit;
  * each per-layer count repeats exactly for a given seed;
  * a reference digest that does not match the outputs fails every pass;
  * without the program's sources the benchmark exits non-zero and prints
    no result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"seed", "nproc", "cpu_model", "python", "numpy", "git_commit", "source_sha256"}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors: list[str] = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench(w, 1, trace)
            if proc.returncode != 0:
                errors.append(f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            env, res = result_of(proc)
            tag = f"{w} trace {trace}"
            if set(res) != RESULT_KEYS:
                errors.append(f"{tag}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                errors.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if set(env) != ENV_KEYS:
                errors.append(f"{tag}: environment keys {sorted(env)}")
            if trace:
                _, again = result_of(bench(w, 1, 1))
                for k, v in res["metrics"].items():
                    if v["unit"] == "count" and again["metrics"][k]["value"] != v["value"]:
                        errors.append(f"{w}: count {k} differs between two runs of seed 1")

    sys.path.insert(0, str(HERE))
    import run

    res = run.benchmark("grid_foliate", 1, 0.5, False, "tiny", reference="0" * 64)
    if res["correct"] or res["failed"] != res["attempted"]:
        errors.append(f"an altered reference digest was not counted as failures: {res}")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("mnn_torus_run", 1, 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("without sources the benchmark still printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
