"""One benchmark process: set a workload up, or measure it.

``--role setup`` builds what the workload's timed loop needs in a fresh
work directory and reports how long that took, counted from the first
line of this file, so imports are included. ``--role measure`` runs the
timed loop over a directory a setup process prepared, checks every output
and reports throughput, peak memory and the quality guards. With
``--trace`` every second timed call runs with the public tsgseg functions
wrapped (see ``tracing.py``), and the per-layer metrics and the traced
calls' throughput are added.

The process prints one JSON object as the last line of its output. It is
started by ``run.py``, which pins the BLAS thread count before numpy loads.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tsgseg  # noqa: E402
import tsgseg.checkpoint as checkpoint  # noqa: E402
import tsgseg.segbench as segbench  # noqa: E402
import tsgseg.train as train  # noqa: E402
from tsgseg.checkpoint import load_model  # noqa: E402
from tsgseg.config import (dataset_config, load_config_file, model_config,  # noqa: E402
                           resolve_config)
from tsgseg.model import build_model  # noqa: E402
from tsgseg.segbench import generate, load_sample, sample_seed, save_sample  # noqa: E402
from tracing import Tracer  # noqa: E402

# Every workload uses the desk architecture in single precision at batch 4
# (the preset's batch size). Train calls evaluate only at their last step,
# as ablate runs do. Calls are short so that a run holds many of them.
WORKLOADS = {
    "train_desk": {"kind": "train", "size": 64, "steps": 10,
                   "train_samples": 20, "val_samples": 4, "holdout": 64},
    "train_hires": {"kind": "train", "size": 128, "steps": 2,
                    "train_samples": 8, "val_samples": 2, "holdout": 32},
    "eval_holdout": {"kind": "eval", "size": 64, "images": 64, "steps": 12,
                     "train_samples": 16, "val_samples": 4},
}
# Training runs behind the quality guards (train_loss_final, val_miou_final)
# use this seed, not --seed: the loss after a few steps differs by a fifth
# or more from seed to seed, and a guard must repeat from run to run.
REFERENCE_SEED = 0
HOLDOUT_SEED_OFFSET = 1_000_003  # keeps held-out scenes apart from training scenes

# On a shared host the CPU speed drifts by up to 1.8x over tens of seconds,
# longer than a run. Every reported time is therefore scaled to a host on
# which reference_seconds() reads REF_SECONDS, measured next to the timed
# work: time * REF_SECONDS / reference, rate * reference / REF_SECONDS.
# REF_SECONDS is about the reference's time on a shared 2-vCPU Xeon host;
# any fixed value would do.
REF_SECONDS = 0.040
_REF_X = np.random.default_rng(0).standard_normal((256, 64)).astype(np.float32)
_REF_W = 0.1 * np.random.default_rng(1).standard_normal((64, 64)).astype(np.float32)


def run_config(w: dict, seed: int):
    return resolve_config("desk", {
        "precision": "single", "height": w["size"], "width": w["size"],
        "steps": w["steps"], "eval_interval": w["steps"], "seed": seed,
        "data_seed": seed, "train_samples": w["train_samples"],
        "val_samples": w["val_samples"],
    })


def write_dataset(cfg, seed: int, count: int, out_dir: str) -> None:
    """What ``tsgseg gen-data`` writes, at the workload's image size."""
    os.makedirs(out_dir, exist_ok=True)
    dcfg = dataset_config(cfg)
    for i in range(count):
        save_sample(out_dir, i, generate(sample_seed(seed, i), dcfg))


def reference_seconds() -> float:
    """Seconds the host takes for a fixed job that does not use tsgseg.

    The job mixes what the package spends its time on: small float32
    matmuls, softmax and layer-norm arithmetic and an interpreter loop.
    """
    t0 = time.perf_counter()
    for _ in range(200):
        h = _REF_X @ _REF_W
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        m = e.mean(axis=1, keepdims=True)
        v = ((e - m) ** 2).mean(axis=1, keepdims=True)
        y = (e - m) / np.sqrt(v + 1e-5)
        sum(float(y[j, 0]) for j in range(0, 256, 4))
    return time.perf_counter() - t0


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def setup(w: dict, seed: int, workdir: str) -> dict:
    """Held-out images from --seed; a model (train) or checkpoint (eval)."""
    cfg = run_config(w, seed)
    if w["kind"] == "train":
        model = build_model(model_config(cfg), seed=cfg.seed, dtype=np.float32)
        write_dataset(cfg, seed + HOLDOUT_SEED_OFFSET, w["holdout"],
                      os.path.join(workdir, "holdout"))
        n_params = sum(p.data.size for p in model.parameters())
        return {"setup_s": time.perf_counter() - T0, "parameters": n_params}
    write_dataset(cfg, seed + HOLDOUT_SEED_OFFSET, w["images"],
                  os.path.join(workdir, "data"))
    model, summary = train.train_run(run_config(w, REFERENCE_SEED),
                                     os.path.join(workdir, "ckpt"))
    return {
        "setup_s": time.perf_counter() - T0,
        "parameters": sum(p.data.size for p in model.parameters()),
        "train_loss_final": summary["final_loss"],
        "val_miou_final": summary["report"]["mIoU"],
        "ckpt_sha256": file_digest(summary["ckpt"]),
    }


def evaluate_saved(ckpt: str, data_dir: str) -> tuple[dict, int]:
    """``evaluate_checkpoint`` up to, not including, its CSV report.

    Restores the run's model from ``config.resolved`` and ``model.ckpt``,
    reads every saved sample and scores them with ``evaluate_model``. The
    package is reached through its modules at call time, so a traced call
    reaches the wrappers. Returns the report and the model's class count.
    """
    raw = load_config_file(os.path.join(os.path.dirname(ckpt), "config.resolved"))
    cfg = resolve_config(raw.pop("preset", "desk"), raw)
    dtype = np.float64 if cfg.precision == "double" else np.float32
    model = build_model(model_config(cfg), seed=cfg.seed, dtype=dtype)
    checkpoint.load_model(ckpt, model)
    n = segbench.count_samples(data_dir)
    samples = [segbench.load_sample(data_dir, i) for i in range(n)]
    return train.evaluate_model(model, samples, dtype), cfg.num_classes


def check_report(report: dict, num_classes: int) -> list[str]:
    """Problems with an ``evaluate_model`` report."""
    if set(report) != {"mIoU", "per_class", "small", "medium", "large"}:
        return [f"report keys are {sorted(report)}"]
    per_class = report["per_class"]
    if len(per_class) != num_classes:
        return [f"report has {len(per_class)} classes, expected {num_classes}"]
    problems = []
    values = {f"iou_class_{c}": v for c, v in enumerate(per_class)}
    values.update({f"iou_{b}": report[b] for b in ("small", "medium", "large")})
    values["mIoU"] = report["mIoU"]
    for key, v in values.items():
        if v is None and key != "mIoU":
            continue  # a class or size bucket absent from the dataset
        if not 0.0 <= float(v) <= 1.0:
            problems.append(f"report value of {key} is {v!r}, outside [0, 1]")
    defined = [v for v in per_class if v is not None]
    if not defined or float(np.mean(defined)) != report["mIoU"]:
        problems.append("report mIoU is not the mean of the defined class IoUs")
    return problems


def check_train(cfg, run_dir: str, model, summary) -> list[str]:
    """Problems with what one train_run returned and wrote."""
    problems = []
    losses = summary["loss_history"]
    if len(losses) != cfg.steps or not all(math.isfinite(x) for x in losses):
        problems.append(f"loss history not {cfg.steps} finite values: {losses}")
    with open(os.path.join(run_dir, "metrics.csv")) as fh:
        rows = fh.read().splitlines()
    if rows[:1] != [train.METRICS_HEADER] or len(rows) != 2 or \
            not rows[1].startswith(f"{cfg.steps},"):
        problems.append(f"metrics.csv reads {rows!r}")
    reloaded = build_model(model_config(cfg), seed=cfg.seed + 1, dtype=np.float32)
    load_model(summary["ckpt"], reloaded)
    trained = dict(model.named_parameters())
    for name, p in reloaded.named_parameters():
        if not np.array_equal(p.data, trained[name].data):
            problems.append(f"model.ckpt reloads {name} with other values")
            break
    return problems


def measure(w: dict, seed: int, seconds: float, workdir: str, trace: bool) -> dict:
    """Closed loop of calls for ``seconds``; call 0 is a warm-up.

    The warm-up's rate is not used. On train workloads it trains at the
    reference seed and its outputs are the quality guards; every later call
    trains at --seed. Each call's rate is scaled by the mean of the host
    references measured just before and just after it. When tracing, traced and untraced calls alternate, so
    both sample the same drift in CPU speed and their ratio is the tracing
    overhead.
    """
    tracer = Tracer() if trace else None
    rates: list[float] = []
    traced_rates: list[float] = []
    raw_rates: list[float] = []  # unscaled, traced calls included
    refs: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    out: dict = {}
    keys = []  # outputs of calls 1.., which must all repeat exactly
    cfg = run_config(w, seed)

    # run_once(i) is the timed (and traced) call into the package. It looks
    # the entry point up at call time, so a traced call reaches the wrapper.
    # check turns its result into a key that must repeat exactly, plus the
    # problems its outputs show.
    if w["kind"] == "train":
        cfgs = (run_config(w, REFERENCE_SEED), cfg)
        run_dir = os.path.join(workdir, "run")
        items = cfg.steps * cfg.batch_size

        def run_once(i):
            return train.train_run(cfgs[min(i, 1)], run_dir)

        def check(i, result):
            model, summary = result
            if i == 0:
                out["train_loss_final"] = summary["final_loss"]
                out["val_miou_final"] = summary["report"]["mIoU"]
                out["reference_model"] = model
            key = (summary["final_loss"], summary["report"]["mIoU"],
                   file_digest(summary["ckpt"]))
            return key, check_train(cfgs[min(i, 1)], run_dir, model, summary)
    else:
        ckpt = os.path.join(workdir, "ckpt", "model.ckpt")
        data_dir = os.path.join(workdir, "data")
        items = w["images"]

        def run_once(i):
            return evaluate_saved(ckpt, data_dir)

        def check(i, result):
            report, num_classes = result
            out["eval_miou"] = report["mIoU"]
            key = (report["mIoU"], tuple(report["per_class"]),
                   report["small"], report["medium"], report["large"])
            problems = check_report(report, num_classes)
            if num_classes != cfg.num_classes:
                problems.append(f"checkpoint has {num_classes} classes, "
                                f"expected {cfg.num_classes}")
            if segbench.count_samples(data_dir) != items:
                problems.append(f"data directory does not hold {items} samples")
            return key, problems

    loop_start = time.perf_counter()
    ref_before = reference_seconds()
    for i in itertools.count():
        attempted += items
        key = None
        traced = tracer is not None and i > 0 and i % 2 == 0
        try:
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = run_once(i)
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.restore()
                ref_after = reference_seconds()
            key, errs = check(i, result)
        except Exception:  # a TrainAbort or any other error fails this call
            errs = [traceback.format_exc()]
        if key is not None and i > 0:
            ref = (ref_before + ref_after) / 2
            (traced_rates if traced else rates).append(items / elapsed * ref / REF_SECONDS)
            raw_rates.append(items / elapsed)
            refs.append(ref)
            keys.append(key)
            if key != keys[0]:
                errs.append("outputs differ from an earlier call at the same seed")
        if errs:
            failed += items
            problems.extend(errs)
        ref_before = ref_after
        if time.perf_counter() - loop_start >= seconds and i >= (2 if trace else 1):
            break
    if tracer is not None:
        out["per_layer"] = tracer.metrics(calls=len(traced_rates))

    model = out.pop("reference_model", None)
    if model is not None:
        holdout = os.path.join(workdir, "holdout")
        samples = [load_sample(holdout, i) for i in range(w["holdout"])]
        out["eval_miou"] = train.evaluate_model(model, samples, np.float32)["mIoU"]

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out.update({
        "throughput_per_s": statistics.median(rates) if rates else 0.0,
        "traced_throughput_per_s": (statistics.median(traced_rates)
                                    if traced_rates else 0.0),
        "rates": rates, "traced_rates": traced_rates,
        "raw_rates": raw_rates, "ref_seconds": refs,
        "attempted": attempted, "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
        "precision": cfg.precision, "image_size": cfg.height,
        "batch_size": cfg.batch_size,
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    if not os.path.abspath(tsgseg.__file__).startswith(SRC + os.sep):
        print(f"tsgseg imported from {tsgseg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.role == "setup":
        result = setup(w, args.seed, args.workdir)
        ref = statistics.median([reference_seconds() for _ in range(3)])
        result["raw_setup_s"] = result["setup_s"]
        result["setup_s"] *= REF_SECONDS / ref
    else:
        result = measure(w, args.seed, args.seconds, args.workdir, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
