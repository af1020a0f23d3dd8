"""Baseline report: every workload untraced, then traced, as markdown tables.

    python3 perfbench/report.py --seed 1 --seconds 10

Rebuilds the baseline table of ROADMAP.md from the traces: the phase shares
of a training step at desk and paper scale, matching time per solve at
n = 8, 25 and 100, and the time of training.evaluate. It ends with the
tracing overhead, traced throughput against untraced, on each workload.
"""

from __future__ import annotations

import argparse
import sys

from run import ITEM_METRIC, WORKLOADS, BenchError, run_workload

PHASES = (
    ("data", ("data.batch",)),
    ("forward", ("model.forward",)),
    ("slots", ("model.slots",)),
    ("matching", ("matching.cost", "matching.solve")),
    ("loss", ("loss.graph",)),
    ("backward", ("autodiff.backward",)),
    ("clip + AdamW", ("training.clip", "training.adamw")),
)
SOLVE_SOURCES = (("8", "train_desk"), ("25", "train_paper"), ("100", "match_n100"))


def phase_table(traced: dict) -> list[str]:
    cols = [w for w in ("train_desk", "train_paper")]
    out = ["| phase | " + " | ".join(f"{w} ms/step | share" for w in cols) + " |", "|---" * (1 + 2 * len(cols)) + "|"]
    per_step = {}
    for w in cols:
        d = traced[w]["detail"]
        steps = d["steps_per_round"]
        incl = d["step_inclusive_s"]
        step_s = incl["training.epoch"] / steps
        rows = {name: sum(incl.get(s, 0.0) for s in names) / steps for name, names in PHASES}
        rows["other"] = step_s - sum(rows.values())
        per_step[w] = (rows, step_s)
    for name in [p for p, _ in PHASES] + ["other"]:
        cells = []
        for w in cols:
            rows, step_s = per_step[w]
            cells.append(f"{1e3 * rows[name]:.1f} | {100 * rows[name] / step_s:.0f} %")
        out.append(f"| {name} | " + " | ".join(cells) + " |")
    out.append("| step | " + " | ".join(f"{1e3 * per_step[w][1]:.1f} | 100 %" for w in cols) + " |")
    out.append("| tape nodes per step | " + " | ".join(f"{traced[w]['metrics']['autodiff.tape_nodes']:.0f} |" for w in cols) + " |")
    return out


def solve_table(traced: dict) -> list[str]:
    out = ["| n | cost build ms/image | solve ms/image (p50) | measured on |", "|---|---|---|---|"]
    for n, w in SOLVE_SOURCES:
        d = traced[w]["detail"]
        cost_ms = 1e3 * d["inclusive_s"].get("matching.cost", 0.0) / max(d["calls"].get("matching.cost", 0), 1)
        out.append(f"| {n} | {cost_ms:.2f} | {d['solve_ms_p50'][n]:.2f} | {w} |")
    return out


def eval_table(traced: dict) -> list[str]:
    d = traced["eval_val"]["detail"]
    images = traced["eval_val"]["attempted"] / traced["eval_val"]["rounds"]
    evaluate_s = d["inclusive_s"]["training.evaluate"]
    oks_s = d["inclusive_s"]["metrics.oks"]
    return [
        "| images | training.evaluate s | s per 100 images | metrics.oks share | metrics.oks calls |",
        "|---|---|---|---|---|",
        f"| {images:.0f} | {evaluate_s:.2f} | {100 * evaluate_s / images:.2f} | {100 * oks_s / evaluate_s:.0f} % | {d['calls']['metrics.oks']:.0f} |",
    ]


def overhead_table(plain: dict, traced: dict) -> list[str]:
    out = ["| workload | untraced items/s | traced items/s | overhead |", "|---|---|---|---|"]
    for w in WORKLOADS:
        a = plain[w]["metrics"]["items_per_s"]
        b = traced[w]["metrics"]["trace.items_per_s"]
        out.append(f"| {w} ({ITEM_METRIC[w]}) | {a:.3g} | {b:.3g} | {100 * (a - b) / a:+.1f} % |")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="poet baseline report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    args = parser.parse_args(argv)
    plain, traced = {}, {}
    try:
        for w in WORKLOADS:
            plain[w] = run_workload(w, args.seed, args.seconds, 0)
            traced[w] = run_workload(w, args.seed, args.seconds, 1)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    bad = [w for w in WORKLOADS if not (plain[w]["correct"] and traced[w]["correct"])]
    env = plain[WORKLOADS[0]]["env"]
    print(f"seed {args.seed}, {args.seconds:g} s per run; {env['cores_usable']} usable cores, "
          f"BLAS threads {env['threads']['OPENBLAS_NUM_THREADS']}, Python {env['python']}, numpy {env['numpy']}, {env['blas']}")
    print("\nEnd to end (untraced)\n")
    print("| workload | setup_s | items/s | peak_rss_mb |\n|---|---|---|---|")
    for w in WORKLOADS:
        m = plain[w]["metrics"]
        print(f"| {w} | {m['setup_s']:.3f} | {m['items_per_s']:.3g} {plain[w]['item']}/s | {m['peak_rss_mb']:.0f} |")
    for title, lines in (
        ("Phase shares of a training step (traced)", phase_table(traced)),
        ("Matching per image (traced)", solve_table(traced)),
        ("Evaluation, score threshold 0 (traced)", eval_table(traced)),
        ("Tracing overhead", overhead_table(plain, traced)),
    ):
        print(f"\n{title}\n")
        print("\n".join(lines))
    if bad:
        print(f"\nFAILED CHECKS on {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
