"""Single executable: train, eval, match, gradcheck, synth.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error. All
randomness flows from --seed / config seeds; there is no wall-clock seeding.
Set POET_LOG=INFO (or DEBUG) for progress logging. Heavy imports happen
inside the subcommands so --threads can cap BLAS pools before numpy loads.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _set_threads(n: int | None) -> None:
    if not n:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_run_config(config_path, overrides, seed):
    from .config import RunConfig, apply_overrides, load_config

    run = load_config(config_path) if config_path else RunConfig()
    if overrides:
        run = apply_overrides(run, overrides)
    if seed is not None:
        run = replace(run, seed=seed)
    return run


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    from .config import ConfigError, dump_config

    try:
        run = _load_run_config(args.config, args.set, args.seed)
    except (ConfigError, OSError) as e:
        return _fail(str(e), USAGE_ERROR)

    from . import training
    from .checkpoint import ContainerError
    from .data import ParseError

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective.cfg").write_text(dump_config(run), encoding="utf-8")
    try:
        summary = training.train_run(run, args.out_dir, resume=args.resume)
    except (ConfigError, ParseError, FileNotFoundError, ContainerError, training.CheckpointMismatch) as e:
        return _fail(str(e), USAGE_ERROR)
    except (training.TrainBatchError, ValueError) as e:
        return _fail(str(e), VERIFY_ERROR)
    final = summary["final_eval"]
    if final is not None:
        print("final validation:")
        print(final.table_header())
        print(final.table_row())
    print(f"outputs written under {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _discover_config(checkpoint_path: str):
    sidecar = Path(checkpoint_path + ".cfg")
    if sidecar.exists():
        return str(sidecar)
    shared = Path(checkpoint_path).parent / "effective.cfg"
    if shared.exists():
        return str(shared)
    return None


def _load_eval_dataset(spec: str, run):
    from . import training
    from .data import load_coco_keypoints

    if spec.endswith(".json"):
        return load_coco_keypoints(spec)
    return training.resolve_dataset(spec, run, "val")


def cmd_eval(args) -> int:
    from .config import ConfigError

    config_path = args.config
    if config_path is None and args.checkpoint:
        config_path = _discover_config(args.checkpoint)
    if config_path is None and args.checkpoint:
        return _fail(f"no config found next to {args.checkpoint}; pass --config", USAGE_ERROR)
    flags = {"score_threshold": args.score_threshold, "top_k": args.top_k}
    try:
        run = _load_run_config(config_path, args.set, None)
        run = replace(run, train=replace(run.train, **{key: v for key, v in flags.items() if v is not None}))
    except (ConfigError, OSError) as e:
        return _fail(str(e), USAGE_ERROR)
    threshold, top_k = run.train.score_threshold, run.train.top_k

    from . import metrics, training
    from .data import MissingField, ParseError

    try:
        dataset = _load_eval_dataset(args.dataset, run)
    except (ParseError, MissingField, FileNotFoundError) as e:
        return _fail(str(e), USAGE_ERROR)
    if dataset is None:
        return _fail("eval needs a dataset (--dataset synth|cache|annotations.json)", USAGE_ERROR)

    if args.oks_k is None:
        oks_params = training.default_oks_params(dataset.num_keypoints)
    elif 0 < args.oks_k < float("inf"):  # an infinite constant scores every pose a perfect match
        oks_params = metrics.OksParams.uniform(dataset.num_keypoints, args.oks_k)
    else:
        return _fail(f"--oks-k must be > 0 and finite, got {args.oks_k}", USAGE_ERROR)

    per_layer = []
    if args.predictions:
        sizes = [s.size for s in dataset.samples]
        try:
            if args.predictions.endswith(".jsonl"):
                dets = metrics.load_detections_jsonl(args.predictions, sizes, threshold, top_k)
            else:
                ids = [s.image_id if s.image_id is not None else i + 1 for i, s in enumerate(dataset.samples)]
                dets = metrics.load_detections_coco(args.predictions, ids)
            result = metrics.evaluate_detections(dets, training.ground_truths(dataset), oks_params)
        except (ValueError, KeyError, OSError) as e:  # also image or keypoint counts that differ from the dataset's
            return _fail(str(e), USAGE_ERROR)
    else:
        if not args.checkpoint:
            return _fail("eval needs --checkpoint or --predictions", USAGE_ERROR)
        if dataset.render is None and any(s.image is None for s in dataset.samples):
            return _fail(
                f"{args.dataset} has no pixels to run a model on (COCO annotation files carry none): "
                "use a synth set or a dataset cache, or pass --predictions",
                USAGE_ERROR,
            )
        try:
            params, _, _ = training.load_checkpoint(args.checkpoint, run.optim)
            training.check_params(params, run.model)
        except Exception as e:  # container, IO or config mismatch
            return _fail(f"cannot load checkpoint {args.checkpoint}: {e}", USAGE_ERROR)
        try:
            training.check_dataset(dataset, run.model, "evaluation")
        except ConfigError as e:
            return _fail(str(e), USAGE_ERROR)
        result, per_layer = training.evaluate(params, run.model, dataset, threshold, top_k, oks_params)

    print(result.table_header())
    print(result.table_row())
    payload = result.as_dict()
    if args.per_layer and per_layer:
        payload["per_layer"] = [r.as_dict() for r in per_layer]
        for li, r in enumerate(per_layer):
            print(f"layer {li}: {r.table_row()}")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# match


def cmd_match(args) -> int:
    from .config import LossWeights
    from .matching import BRUTE_FORCE_MAX, array_cost_matrix, brute_force_assign, hungarian_assign
    from .pose import prediction_arrays, read_records, target_arrays

    try:
        weights = LossWeights(args.lambda_l1, args.lambda_l2, args.lambda_ctr)
        target_records = read_records(args.targets, "targets")
        pred_records = read_records(args.preds, "preds")
    except (ValueError, OSError) as e:
        return _fail(str(e), USAGE_ERROR)
    if len(target_records) != len(pred_records):
        return _fail(f"{len(target_records)} target records vs {len(pred_records)} prediction records", USAGE_ERROR)

    lines = ["record,target,pred,pair_cost,total_cost"]
    for rec_idx, ((t_line, t_entries), (p_line, p_entries)) in enumerate(zip(target_records, pred_records)):
        if len(t_entries) != len(p_entries):
            return _fail(
                f"record {rec_idx}: {len(t_entries)} targets (line {t_line}) vs {len(p_entries)} preds (line {p_line})",
                USAGE_ERROR,
            )
        try:
            cost = array_cost_matrix(*target_arrays(t_entries), *prediction_arrays(p_entries), weights)
            assignment = hungarian_assign(cost)
        except ValueError as e:
            return _fail(f"record {rec_idx}: {e}", USAGE_ERROR)
        for i, j in enumerate(assignment.perm):
            lines.append(f"{rec_idx},{i},{j},{float(cost.entries[i, j])!r},{float(assignment.total_cost)!r}")
        if args.oracle:
            if cost.n > BRUTE_FORCE_MAX:
                return _fail(f"record {rec_idx}: --oracle needs n <= {BRUTE_FORCE_MAX}", USAGE_ERROR)
            reference = brute_force_assign(cost)
            if abs(reference.total_cost - assignment.total_cost) > 1e-9:
                print(f"record {rec_idx}: MISMATCH solver {assignment.total_cost!r} vs brute force {reference.total_cost!r}", file=sys.stderr)
                return VERIFY_ERROR
            print(f"record {rec_idx}: OK", file=sys.stderr)
    output = "\n".join(lines) + "\n"
    sys.stdout.write(output)
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    from . import gradcheck

    for flag, value, lowest in (("--cases", args.cases, 1), ("--seed", args.seed, 0)):
        if value < lowest:
            return _fail(f"{flag} must be >= {lowest}, got {value}", USAGE_ERROR)
    ok, lines = gradcheck.run_gradcheck(args.component, seed=args.seed, cases=args.cases)
    for line in lines:
        print(line)
    return 0 if ok else VERIFY_ERROR


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    from .config import ConfigError, SynthConfig

    try:
        cfg = SynthConfig(
            num_samples=args.samples,
            image_size=args.image_size,
            num_keypoints=args.keypoints,
            min_instances=args.min_instances,
            max_instances=args.max_instances,
            occlusion=args.occlusion,
            blob_radius=args.blob_radius,
            channels=args.channels,
            seed=args.seed,
        )
    except ConfigError as e:
        return _fail(str(e), USAGE_ERROR)
    from .data import save_dataset_cache, synth_generate

    dataset = synth_generate(cfg)
    try:
        save_dataset_cache(dataset, args.out, cfg)
    except OSError as e:
        return _fail(str(e), USAGE_ERROR)

    counts: dict[int, int] = {}
    visible = total = 0
    for sample in dataset.samples:
        counts[len(sample.keypoints)] = counts.get(len(sample.keypoints), 0) + 1
        v = sample.keypoints[:, :, 2]
        total += v.size
        visible += int((v > 0).sum())
    print(f"wrote {len(dataset)} samples to {args.out} (+ manifest {args.out}.json)")
    for count in sorted(counts):
        print(f"instances/sample {count}: {counts[count]}")
    print(f"visibility rate: {visible / total:.4f}" if total else "visibility rate: n/a")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poet", description="Set-prediction multi-instance pose toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model and log loss/AP curves")
    train.add_argument("--config", help="config file (section.key = value lines)")
    train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key")
    train.add_argument("--out-dir", required=True)
    train.add_argument("--resume", help="checkpoint to continue from")
    train.add_argument("--seed", type=int, help="override run.seed")
    train.add_argument("--threads", type=int)
    train.set_defaults(handler=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint or an external prediction file")
    ev.add_argument("--checkpoint")
    ev.add_argument("--config", help="config file (defaults to the checkpoint's sidecar)")
    ev.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    ev.add_argument("--dataset", default="synth", help="'synth', a dataset cache, or a COCO annotation .json")
    ev.add_argument("--predictions", help="score a .jsonl (package format) or .json (COCO results) file instead of a model")
    ev.add_argument("--per-layer", action="store_true", help="also report one row per decoder layer")
    ev.add_argument("--score-threshold", type=float)
    ev.add_argument("--top-k", type=int)
    ev.add_argument("--oks-k", type=float, help="uniform OKS constant override")
    ev.add_argument("--out", help="write results as JSON")
    ev.add_argument("--threads", type=int)
    ev.set_defaults(handler=cmd_eval)

    match = sub.add_parser("match", help="assign predictions to targets from two JSON-lines files")
    match.add_argument("targets")
    match.add_argument("preds")
    match.add_argument("--lambda-l1", type=float, default=4.0)
    match.add_argument("--lambda-l2", type=float, default=0.2)
    match.add_argument("--lambda-ctr", type=float, default=0.5)
    match.add_argument("--oracle", action="store_true", help="cross-check against brute force (n <= 8)")
    match.add_argument("--out", help="also write the CSV here")
    match.set_defaults(handler=cmd_match)

    grad = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    grad.add_argument("--component", choices=("all", "ops", "loss", "model"), default="all")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--cases", type=int, default=100, help="random instances for the loss suite")
    grad.set_defaults(handler=cmd_gradcheck)

    synth = sub.add_parser("synth", help="generate and cache a synthetic dataset")
    synth.add_argument("--samples", type=int, default=2000)
    synth.add_argument("--image-size", type=int, default=64)
    synth.add_argument("--keypoints", type=int, default=5)
    synth.add_argument("--min-instances", type=int, default=1)
    synth.add_argument("--max-instances", type=int, default=3)
    synth.add_argument("--occlusion", type=float, default=0.2)
    synth.add_argument("--blob-radius", type=float, default=3.0)
    synth.add_argument("--channels", type=int, default=3)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(handler=cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("POET_LOG", "WARNING").upper(), format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    _set_threads(getattr(args, "threads", None))
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
