"""Benchmark launcher: runs each workload in its own process with fixed BLAS threads.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The thread count is written into the child's environment before its Python
starts, since numpy reads it once at import. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1). The full detail of
every run, with core count, thread setting, Python, numpy and BLAS build,
is kept under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_desk", "train_paper", "eval_val", "match_n100")
THREADS = 1  # at or below the core count; one thread keeps runs on shared cores steady
CHILD_TIMEOUT_S = 170
# the throughput each workload reports as items_per_s
ITEM_METRIC = {
    "train_desk": "train_samples_per_s",
    "train_paper": "train_samples_per_s",
    "eval_val": "eval_images_per_s",
    "match_n100": "match_records_per_s",
}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process and return its full detail."""
    if not (ROOT / "src" / "poet" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'poet'} is missing")
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    work = HERE / "work" / f"{workload}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--work", str(work),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: exited with {proc.returncode} and no result\n{proc.stderr[-4000:]}") from None
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return detail


def contract_line(detail: dict, spec: dict, trace: int) -> dict:
    """Reduce a run's detail to the result object: every listed metric with its unit."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": bool(detail["correct"]),
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": {m["name"]: {"value": detail["metrics"][m["name"]], "unit": m["unit"]} for m in listed},
    }


def describe(workload: str, line: dict, detail: dict) -> list[str]:
    out = [f"{workload}: attempted {line['attempted']} {detail['item']}, failed {line['failed']}, correct {line['correct']}"]
    for name, m in line["metrics"].items():
        alias = f" ({ITEM_METRIC[workload]})" if name == "items_per_s" else ""
        out.append(f"  {name}{alias} = {m['value']:.6g} {m['unit']}")
    out.append(f"  wall-clock {detail['item']}/s = {detail['wall_items_per_s']:.6g} (items_per_s is scaled to the reference speed)")
    env = detail["env"]
    out.append(f"  on {env['cores_usable']} cores, BLAS threads {env['threads']['OPENBLAS_NUM_THREADS']}, "
               f"Python {env['python']}, numpy {env['numpy']}, {env['blas']}")
    out += [f"  FAILED CHECK: {f}" for f in detail.get("failures", [])]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="poet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = {}
        for name in names:
            detail = run_workload(name, args.seed, seconds, args.trace)
            lines[name] = contract_line(detail, spec, args.trace)
            print("\n".join(describe(name, lines[name], detail)), flush=True)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
