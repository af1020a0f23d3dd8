"""One benchmark workload in one process: set up, time whole rounds, check outputs.

Run by ``run.py``, which fixes the BLAS/OpenMP thread count in this
process's environment before Python starts. Prints one JSON object with the
full detail of the run as its last line of standard output.

    python3 perfbench/workloads.py --workload train_desk --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts the imports below

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from poet import autodiff as ad
from poet import cli, config, data, loss, matching, metrics, model, training

IMPORT_S = time.perf_counter() - T_START

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5  # set-ups per run, each in a fresh interpreter but the first
MIN_ROUNDS = 4  # every run times at least this many rounds; peak_rss_mb is read after the last of them
GRAD_PARAMS = ("backbone.stage0.weight", "encoder.layer0.attn.wq", "decoder.layer{last}.cross_attn.wv", "head.pose.w3", "head.class.weight")


def _seeds(seed: int) -> tuple[int, int]:
    """(model/run seed, data seed) for a benchmark seed."""
    return 1000 * seed + 3, 1000 * seed + 11


# ---------------------------------------------------------------------------
# shared check helpers


def _target_arrays(target_set) -> dict:
    return {
        "center": np.array([p.center for p in target_set], dtype=np.float64),
        "offsets": np.array([p.offsets for p in target_set], dtype=np.float64),
        "vis": np.array([p.visibilities for p in target_set], dtype=np.float64),
        "human": np.array([p.is_human for p in target_set], dtype=bool),
    }


def _output_arrays(outputs) -> dict:
    return {key: t.data for key, t in outputs.items()}


def _reference_costs(t: dict, out: dict, b: int, weights) -> np.ndarray:
    return checks.pair_costs(
        t["center"], t["offsets"], t["vis"], t["human"],
        out["class_probs"][b, :, 0], out["center"][b], out["offsets"][b], out["visibility"][b],
        (weights.lambda_l1, weights.lambda_l2, weights.lambda_ctr),
    )


def check_training_batch(params: dict, cfg, weights, batch) -> list[str]:
    """Matching optimality and backward gradients on one batch at the given parameters."""
    fails: list[str] = []
    outputs, _ = model.model_forward(ad.Tensor(batch.images), model.constant_params(params), cfg, train=False)
    out = _output_arrays(outputs)
    targets = [_target_arrays(t) for t in batch.targets]
    perms = []
    for b, (tset, preds) in enumerate(zip(batch.targets, model.slots_from_outputs(outputs, cfg))):
        cost = matching.build_cost_matrix(tset, preds, weights)
        assignment = matching.hungarian_assign(cost)
        reference = _reference_costs(targets[b], out, b, weights)
        fails += checks.check_pair_costs(cost.entries, reference, f"batch image {b}")
        fails += checks.check_assignment(reference, assignment.perm, assignment.total_cost, tset.num_humans, f"batch image {b}")
        perms.append(assignment.perm)

    lw = (weights.lambda_l1, weights.lambda_l2, weights.lambda_ctr, weights.nonobject_class_weight)
    tape = ad.Tape()
    watched = model.watch_params(tape, params)
    taped, _ = model.model_forward(ad.Tensor(batch.images), watched, cfg, train=False)
    total, _ = loss.hungarian_loss_graph(batch.targets, taped, perms, weights, batch.num_humans)
    expected = checks.hungarian_loss(out, targets, perms, lw)
    if abs(float(total.data) - expected) > 1e-10 * max(1.0, abs(expected)):
        fails.append(f"batch loss {float(total.data)!r}, closed form {expected!r}")
    grads = ad.backward(total)
    analytic = {}
    for name in GRAD_PARAMS:
        name = name.format(last=cfg.dec_layers - 1)
        g = grads.wrt(watched[name])
        idx = np.unravel_index(int(np.argmax(np.abs(g))), g.shape)
        analytic[(name, idx)] = float(g[idx])

    def loss_at(coord, delta):
        name, idx = coord
        shifted = dict(params)
        shifted[name] = params[name].copy()
        shifted[name][idx] += delta
        o, _ = model.model_forward(ad.Tensor(batch.images), model.constant_params(shifted), cfg, train=False)
        return checks.hungarian_loss(_output_arrays(o), targets, perms, lw)

    fails += checks.check_gradients(analytic, loss_at)
    return fails


def check_checkpoint(path: str, params: dict, optim, epoch: int) -> list[str]:
    """The checkpoint must load back bit for bit: parameters, optimizer moments, step and epoch."""
    got_params, got_optim, got_epoch = training.load_checkpoint(path, optim.config)
    fails = []
    if got_epoch != epoch or got_optim.step != optim.step:
        fails.append(f"{path}: epoch/step {got_epoch}/{got_optim.step}, expected {epoch}/{optim.step}")
    for label, want, got in (("param", params, got_params), ("m", optim.m, got_optim.m), ("v", optim.v, got_optim.v)):
        if list(want) != list(got):
            fails.append(f"{path}: {label} names differ")
            continue
        for name, arr in want.items():
            if arr.shape != got[name].shape or arr.tobytes() != got[name].tobytes():
                fails.append(f"{path}: {label} {name} does not load back bit for bit")
    return fails


def check_losses(totals: list[float], where: str) -> list[str]:
    if not totals or not all(np.isfinite(totals)):
        return [f"{where}: non-finite or missing losses {totals}"]
    if not totals[-1] < totals[0]:
        return [f"{where}: last train loss {totals[-1]!r} is not below the first {totals[0]!r}"]
    return []


# ---------------------------------------------------------------------------
# workloads


class TrainDesk:
    """training.train_run on configs/synth_tiny.cfg, shortened; one round is one whole run."""

    item = "samples"
    warmup_rounds = 1
    train_samples = 64
    val_samples = 16
    epochs = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.rounds = 0

    def setup(self) -> None:
        run_seed, data_seed = _seeds(self.seed)
        run = config.load_config(str(ROOT / "configs" / "synth_tiny.cfg"))
        run = replace(
            run,
            seed=run_seed,
            synth=replace(run.synth, num_samples=self.train_samples, seed=data_seed),
            # one lr drop and checkpoint at epoch 2, validation and the final checkpoint at epoch 3
            schedule=replace(run.schedule, epochs=self.epochs, drop_epochs=(2,)),
            # score threshold 0 scores every slot, so the OKS work does not depend on how far a seed trained
            train=replace(run.train, val_samples=self.val_samples, eval_every=self.epochs, checkpoint_every=2, score_threshold=0.0),
        )
        train_path, val_path = str(self.work / "train.bin"), str(self.work / "val.bin")
        data.save_dataset_cache(data.synth_generate(run.synth), train_path, run.synth)
        val_synth = replace(run.synth, num_samples=self.val_samples, seed=run.synth.seed + 1)
        data.save_dataset_cache(data.synth_generate(val_synth), val_path, val_synth)
        self.run = replace(run, train=replace(run.train, dataset=train_path, val_dataset=val_path))

    def round(self) -> int:
        self.rounds += 1
        out = self.work / f"round{self.rounds}"
        self.summary = training.train_run(self.run, str(out))
        shutil.rmtree(self.work / f"round{self.rounds - 1}", ignore_errors=True)
        self.out = out
        kept = self.train_samples - self.summary["dropped_empty"] - self.summary["dropped_overfull"]
        return kept * self.epochs

    def check(self) -> list[str]:
        with open(self.out / "losses.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        fails = []
        if not all(np.isfinite(float(r[k])) for r in rows for k in ("class", "keypoint", "visibility", "center", "total")):
            fails.append("losses.csv holds a non-finite loss")
        fails += check_losses([float(r["total"]) for r in rows if r["split"] == "train"], "losses.csv")
        if not any(r["split"] == "val" for r in rows):
            fails.append("losses.csv has no validation row")
        params, optim = self.summary["params"], self.summary["optim"]
        fails += check_checkpoint(str(self.out / "checkpoint_final.bin"), params, optim, self.epochs)
        ds, _, _ = data.filter_for_training(data.load_dataset_cache(self.run.train.dataset), self.run.model.num_queries)
        batch = next(data.batch_iter(ds, self.run.train.batch_size, None, self.run.model.num_queries))
        return fails + check_training_batch(params, self.run.model, self.run.loss, batch)


class TrainPaper:
    """train_epoch at ModelConfig.paper_scale(); one round is one epoch on freshly rendered images."""

    item = "samples"
    warmup_rounds = 1
    samples = 16

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        run_seed, data_seed = _seeds(self.seed)
        # the same number of people in every image keeps the allocation pattern, and with it the
        # cyclic collector's timing and the peak RSS, the same for every seed
        synth = data.SynthConfig(
            num_samples=self.samples, image_size=128, num_keypoints=17, min_instances=4, max_instances=4,
            occlusion=0.2, blob_radius=3.5, channels=3, seed=data_seed,
        )
        self.run = config.RunConfig(
            seed=run_seed, model=model.ModelConfig.paper_scale(), synth=synth,
            train=replace(config.TrainConfig(), batch_size=4),
        )
        self.dataset, _, _ = data.filter_for_training(data.synth_generate(synth), self.run.model.num_queries)
        self.params = model.init_params(self.run.model, run_seed)
        self.optim = training.init_optim_state(self.params, self.run.optim)
        self.epoch = 0
        self.losses: list[float] = []

    def round(self) -> int:
        for sample in self.dataset.samples:
            sample.image = None  # every round renders, as the first epoch of a run does
        self.epoch += 1
        self.losses.append(training.train_epoch(self.params, self.optim, self.dataset, self.run, self.epoch).total)
        return len(self.dataset)

    def check(self) -> list[str]:
        fails = check_losses(self.losses, "epoch losses")
        path = str(self.work / "checkpoint_final.bin")
        training.save_checkpoint(path, self.params, self.optim, self.epoch)
        fails += check_checkpoint(path, self.params, self.optim, self.epoch)
        os.remove(path)
        batch = next(data.batch_iter(self.dataset, self.run.train.batch_size, None, self.run.model.num_queries))
        return fails + check_training_batch(self.params, self.run.model, self.run.loss, batch)


class EvalVal:
    """The `poet eval --per-layer` path at score threshold 0 on a 96 px synthetic validation set."""

    item = "images"
    warmup_rounds = 1
    images = 96

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        run_seed, data_seed = _seeds(self.seed)
        run = config.load_config(str(ROOT / "configs" / "synth_tiny.cfg"))
        # 96 px puts every synthetic instance in the medium area bucket; two people in every
        # image keep the number of OKS pairs, and so the scoring work, the same for every seed
        run = replace(
            run, seed=run_seed,
            synth=replace(run.synth, image_size=96, min_instances=2, max_instances=2, seed=data_seed),
            train=replace(run.train, val_samples=self.images),
        )
        ckpt = str(self.work / "checkpoint.bin")
        params = model.init_params(run.model, run_seed)
        training.save_checkpoint(ckpt, params, training.init_optim_state(params, run.optim), 0)
        Path(ckpt + ".cfg").write_text(config.dump_config(run), encoding="utf-8")
        # what `poet eval --checkpoint ckpt --dataset synth` loads
        self.run = config.load_config(ckpt + ".cfg")
        self.dataset = training.resolve_dataset("synth", self.run, "val")
        self.params, _, _ = training.load_checkpoint(ckpt, self.run.optim)
        self.oks_params = training.default_oks_params(self.dataset.num_keypoints)

    def round(self) -> int:
        for sample in self.dataset.samples:
            sample.image = None  # each `poet eval` renders its images once
        final, per_layer = training.evaluate(self.params, self.run.model, self.dataset, 0.0, 0, self.oks_params)
        payload = final.as_dict()
        payload["per_layer"] = [r.as_dict() for r in per_layer]
        self.payload = json.dumps(payload)
        return len(self.dataset)

    def check(self) -> list[str]:
        fails = []
        result = json.loads(self.payload)
        if len(result["per_layer"]) != self.run.model.dec_layers or result["ap_m"] is None:
            fails.append(f"eval payload lacks per-layer rows or the medium bucket: {result}")

        # metrics.oks on the first batch, recorded call by call
        samples = []
        program_oks = metrics.oks

        def recording(pred, gt, vis, scale, params):
            value = program_oks(pred, gt, vis, scale, params)
            if len(samples) < 500:
                samples.append((np.array(pred), np.array(gt), np.array(vis), scale, value))
            return value

        head = data.Dataset(self.dataset.samples[:32], self.dataset.image_size, self.dataset.num_keypoints, self.dataset.render)
        metrics.oks = recording
        try:
            training.evaluate(self.params, self.run.model, head, 0.0, 0, self.oks_params)
        finally:
            metrics.oks = program_oks
        fails += checks.check_oks(samples, self.oks_params.k)

        gts = training.ground_truths(self.dataset)
        dets = [[metrics.Detection(g.keypoints, 1.0) for g in img if g.num_visible > 0] for img in gts]
        perfect = metrics.evaluate_detections(dets, gts, self.oks_params).as_dict()
        if any(v is not None and abs(v - 1.0) > 1e-12 for v in perfect.values()) or perfect["ap"] is None:
            fails.append(f"ground truth scored as detections: {perfect}")

        cparams = model.constant_params(self.params)
        images = np.stack([self.dataset.image(i) for i in range(32)])

        def outputs_of(batch_images):
            _, states = model.model_forward(ad.Tensor(batch_images), cparams, self.run.model, train=False)
            return [_output_arrays(model.head_forward(s, cparams, self.run.model)) for s in states]

        in_batch = outputs_of(images)
        for i in (0, 17, 31):
            alone = outputs_of(images[i : i + 1])
            for layer, (a, b) in enumerate(zip(alone, in_batch)):
                for key in a:
                    if not np.allclose(a[key][0], b[key][i], rtol=0.0, atol=1e-10):
                        fails.append(f"image {i} layer {layer} {key}: output depends on its batch")
        return fails


class MatchN100:
    """The `poet match` path on JSON-lines files of 100-slot, 17-keypoint records."""

    item = "records"
    warmup_rounds = 0
    slots = 100
    keypoints = 17
    files = 10
    records_per_file = 2
    weights = (4.0, 0.2, 0.5)  # lambda_l1, lambda_l2, lambda_ctr: the `poet match` defaults

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.rounds = 0
        self.outputs: list[tuple[int, Path]] = []

    def _humans(self, f: int, r: int) -> int:
        # 1..20 humans, each count once across the files, the same in every run whatever the seed
        return 1 + self.records_per_file * f + r

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 100])
        n, k = self.slots, self.keypoints
        self.inputs = []
        for f in range(self.files):
            tlines, plines, records = [], [], []
            for r in range(self.records_per_file):
                h = self._humans(f, r)
                t_vis = np.zeros((n, k))
                t_vis[:h] = rng.random((h, k)) < 0.8
                t_center = np.zeros((n, 2))
                t_center[:h] = rng.uniform(0.1, 0.9, (h, 2))
                t_off = np.zeros((n, 2 * k))
                t_off[:h] = rng.normal(0.0, 0.08, (h, 2 * k)) * np.repeat(t_vis[:h], 2, axis=1)
                p_center = rng.uniform(0.0, 1.0, (n, 2))
                p_off = rng.normal(0.0, 0.08, (n, 2 * k))
                p_vis = rng.random((n, k))
                p_h = rng.uniform(0.01, 0.99, n)
                targets = [
                    {"pose": _flat(t_center[i], t_off[i], t_vis[i]), "class": int(i < h)} for i in range(n)
                ]
                preds = [
                    {"pose": _flat(p_center[j], p_off[j], p_vis[j]), "class_probs": [float(p_h[j]), float(1.0 - p_h[j])]}
                    for j in range(n)
                ]
                tlines.append(json.dumps({"targets": targets}))
                plines.append(json.dumps({"preds": preds}))
                records.append((h, (t_center, t_off, np.repeat(t_vis, 2, axis=1), np.arange(n) < h,
                                 p_h, p_center, p_off, np.repeat(p_vis, 2, axis=1))))
            (self.work / f"targets{f}.jsonl").write_text("\n".join(tlines) + "\n", encoding="utf-8")
            (self.work / f"preds{f}.jsonl").write_text("\n".join(plines) + "\n", encoding="utf-8")
            self.inputs.append(records)

    def round(self) -> int:
        f = self.rounds % self.files
        self.rounds += 1
        out = self.work / f"match{self.rounds}.csv"
        argv = ["match", str(self.work / f"targets{f}.jsonl"), str(self.work / f"preds{f}.jsonl"), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"poet match exited with {code}")
        self.outputs.append((f, out))
        return self.records_per_file

    def check(self) -> list[str]:
        fails = []
        for f, out in self.outputs:
            with open(out, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            for r, (h, arrays) in enumerate(self.inputs[f]):
                reference = checks.pair_costs(*arrays, self.weights)
                mine = [row for row in rows if int(row["record"]) == r]
                where = f"{out.name} record {r}"
                if [int(row["target"]) for row in mine] != list(range(self.slots)):
                    fails.append(f"{where}: targets missing or out of order")
                    continue
                perm = [int(row["pred"]) for row in mine]
                if sorted(perm) != list(range(self.slots)):
                    fails.append(f"{where}: assignment is not a permutation")
                    continue
                emitted = np.zeros_like(reference)
                expected = np.zeros_like(reference)
                for i, j in enumerate(perm):
                    emitted[i, j] = float(mine[i]["pair_cost"])
                    expected[i, j] = reference[i, j]
                fails += checks.check_pair_costs(emitted, expected, where)
                fails += checks.check_assignment(reference, perm, float(mine[0]["total_cost"]), h, where)
        return fails


def _flat(center, offsets, vis) -> list[float]:
    out = [float(center[0]), float(center[1])]
    for i, v in enumerate(vis):
        out += [float(offsets[2 * i]), float(offsets[2 * i + 1]), float(v)]
    return out


WORKLOADS = {"train_desk": TrainDesk, "train_paper": TrainPaper, "eval_val": EvalVal, "match_n100": MatchN100}


# ---------------------------------------------------------------------------
# runner


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


# Seconds the reference pass takes on the machine the README's figures come from, in its usual state.
# That machine's speed drifts by up to 2x over seconds to minutes, for every process alike;
# timed work is scaled by how long the reference pass took around it, which cancels most of the drift.
REF_PASS_S = 0.08
_REF_SMALL = np.random.default_rng(0).random((32, 32))
_REF_LARGE = np.random.default_rng(1).random((192, 192))


def reference_pass_s() -> float:
    """Seconds for a fixed mix of interpreter work, small numpy ops and BLAS products, none of it poet's."""
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(24000):
        x = _REF_SMALL * 1.5 + 0.5
        acc += float(x[i & 31, 3])
        seen[i & 255] = (acc, i)
    for _ in range(40):
        _REF_LARGE @ _REF_LARGE
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """A wall time scaled to the reference speed, given that the reference pass took ref_s around it."""
    return seconds * REF_PASS_S / ref_s


def timed_setup(wl) -> dict:
    """Imports plus one set-up, in wall seconds, with the reference pass that follows it."""
    t0 = time.perf_counter()
    wl.setup()
    return {"wall_s": IMPORT_S + time.perf_counter() - t0, "ref_s": reference_pass_s()}


def fresh_setup(args) -> dict:
    """timed_setup in a fresh interpreter, which pays the imports as this process did at its start."""
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--work", args.work + "-setup", "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def per_layer(setup: dict, rounds: dict, n_rounds: int, items_per_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (one set-up plus one round) and the step/solve detail for report.py."""

    def per(key: str, name: str) -> float:
        return setup[key].get(name, 0) + rounds[key].get(name, 0) / n_rounds

    layer = {
        f"{name}_s": per("self_s", name)
        for name in spans.SPANS
        if name not in ("model.forward", "training.epoch")  # only their children are layers
    }
    layer["data.render_calls"] = per("calls", "data.render_calls")
    layer["pose.from_flat_calls"] = per("calls", "pose.from_flat")
    layer["matching.solves"] = per("calls", "matching.solve")
    layer["metrics.oks_calls"] = per("calls", "metrics.oks")
    layer["checkpoint.bytes"] = setup["bytes_written"] + rounds["bytes_written"] / n_rounds
    layer["autodiff.tape_nodes"] = statistics.fmean(rounds["tape_nodes"]) if rounds["tape_nodes"] else 0.0
    solves = [ms for v in rounds["solve_ms"].values() for ms in v]
    layer["matching.solve_ms_p50"] = statistics.median(solves) if solves else 0.0
    layer["trace.items_per_s"] = items_per_s
    detail = {
        "steps_per_round": rounds["calls"].get("autodiff.backward", 0) / n_rounds,
        "step_inclusive_s": {k: v / n_rounds for k, v in rounds["step_inclusive_s"].items()},
        "inclusive_s": {k: v / n_rounds for k, v in rounds["inclusive_s"].items()},
        "calls": {k: v / n_rounds for k, v in rounds["calls"].items()},
        "solve_ms_p50": {n: statistics.median(v) for n, v in rounds["solve_ms"].items()},
    }
    return layer, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory, removed at the end")
    parser.add_argument("--setup-only", action="store_true", help="print the seconds of imports plus set-up and stop")
    args = parser.parse_args(argv)

    if not Path(model.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"poet imported from {model.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        setups = [timed_setup(wl)]
        if args.setup_only:
            print(json.dumps(setups[0]))
            return 0
        setups += [fresh_setup(args) for _ in range(SETUP_REPS - 1)]
        if tracer:
            setup_snap = tracer.snapshot()
        for _ in range(wl.warmup_rounds):
            wl.round()
        if tracer:
            tracer.reset()
        items = n_rounds = 0
        round_s, rss_mb, ref_s = [], [], [reference_pass_s()]
        t0 = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            items += wl.round()
            round_s.append(time.perf_counter() - t_round)
            ref_s.append(reference_pass_s())
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            n_rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= args.seconds and n_rounds >= MIN_ROUNDS:
                break
        if tracer:
            tracer.uninstall()
        fails = wl.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not fails,
        "failures": fails[:20],
        "attempted": items,
        "failed": 0,
        "item": wl.item,
        "rounds": n_rounds,
        "round_s": round_s,
        "ref_s": ref_s,
        "elapsed_s": elapsed,
        "setups": setups,
        "peak_rss_mb_by_round": rss_mb,
        "env": environment(),
    }
    # every round does the same work; each is scaled by the mean of the reference passes just
    # before and just after it
    per_round = items / n_rounds
    items_per_s = statistics.median(
        per_round / at_reference_speed(r, (ref_s[i] + ref_s[i + 1]) / 2) for i, r in enumerate(round_s)
    )
    result["wall_items_per_s"] = items / sum(round_s)
    if tracer:
        result["metrics"], result["detail"] = per_layer(setup_snap, tracer.snapshot(), n_rounds, items_per_s)
    else:
        result["metrics"] = {
            "setup_s": statistics.median(at_reference_speed(x["wall_s"], x["ref_s"]) for x in setups),
            "items_per_s": items_per_s,
            # the peak at a fixed round: it still grows after that, and how many rounds a run
            # fits in depends on the machine's speed
            "peak_rss_mb": rss_mb[MIN_ROUNDS - 1],
        }
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
