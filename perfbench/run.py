"""tsgseg benchmark: closed-loop train and eval workloads, one client each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_desk --seed 3 --seconds 30 --trace 0

Each workload runs in fresh worker processes (``worker.py``) with the BLAS
and OpenMP thread counts pinned. With ``--trace 0`` the benchmark sets the
workload up several times, each in its own process, reports the median
set-up time, then measures the workload in one more process and reports
the end-to-end metrics. With ``--trace 1`` the measuring process alternates
untraced and traced calls and reports the per-layer metrics plus the
tracing overhead. The last line of standard output is the result object; the line
before it records the software and machine the numbers come from.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("train_desk", "train_hires", "eval_holdout")

# One BLAS thread: never more than nproc, and the steadiest setting on a
# machine that other processes share.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s

# Setup determinism: every setup at one seed must produce the same outputs.
SETUP_KEYS = ("parameters", "train_loss_final", "val_miou_final", "ckpt_sha256")


class BenchError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **{v: str(THREADS) for v in THREAD_VARS})

    def worker(self, role: str, workdir: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a worker could start")
        cmd = [sys.executable, WORKER, "--role", role, "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", workdir, *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} worker did not finish in time")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{role} worker exited with {proc.returncode}")
        return json.loads(lines[-1])

    def setup(self, index: int) -> tuple[str, dict]:
        path = os.path.join(self.workdir, f"setup{index}")
        os.makedirs(path)
        return path, self.worker("setup", path)

    def measure(self, prepared: str, seconds: float, trace: bool) -> dict:
        extra = ["--seconds", repr(seconds)] + (["--trace"] if trace else [])
        return self.worker("measure", prepared, *extra)


def run(args) -> tuple[dict, dict]:
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        setups = [runner.setup(i) for i in range(1 if args.trace else SETUP_REPEATS)]
        prepared, setup_out = setups[-1]
        problems = []
        for _, s in setups[1:]:
            if any(s.get(k) != setups[0][1].get(k) for k in SETUP_KEYS):
                problems.append("setups at one seed disagree")
        m = runner.measure(prepared, args.seconds, trace=bool(args.trace))
        if args.trace:
            plain, traced = m["throughput_per_s"], m["traced_throughput_per_s"]
            metrics = dict(m["per_layer"])
            metrics["bench.untraced_throughput_per_s"] = plain
            metrics["bench.traced_throughput_per_s"] = traced
            metrics["bench.tracing_overhead_pct"] = (
                100.0 * (plain / traced - 1.0) if traced else 0.0)
        else:
            metrics = {
                "setup_s": statistics.median(s["setup_s"] for _, s in setups),
                "throughput_per_s": m["throughput_per_s"],
                "peak_rss_mb": m["peak_rss_mb"],
                # eval_holdout trains its checkpoint during set-up.
                "train_loss_final": m.get("train_loss_final",
                                          setup_out.get("train_loss_final", 0.0)),
                "val_miou_final": m.get("val_miou_final",
                                        setup_out.get("val_miou_final", 0.0)),
                "eval_miou": m.get("eval_miou", 0.0),
            }
        problems.extend(m["problems"])
        info = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": m["python"], "numpy": m["numpy"],
            "scipy": m["scipy"], "blas": m["blas"],
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": THREADS,
            "cpu": cpu_model(), "precision": m["precision"],
            "image_size": m["image_size"], "batch_size": m["batch_size"],
            "parameters": setup_out["parameters"],
            "setup_s_each": [s["setup_s"] for _, s in setups],
            "raw_setup_s_each": [s["raw_setup_s"] for _, s in setups],
            "rates_per_call": m["rates"], "traced_rates_per_call": m["traced_rates"],
            "raw_rates_per_call": m["raw_rates"], "ref_seconds_per_call": m["ref_seconds"],
            "problems": dict(collections.Counter(problems)),
        }
        result = {
            "correct": not problems and bool(m["rates"]),
            "attempted": m["attempted"], "failed": m["failed"],
            "metrics": metrics,
        }
        return info, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "tsgseg", "__init__.py")):
        print(f"no tsgseg sources under {ROOT}/src; run from a tsgseg checkout",
              file=sys.stderr)
        return 2
    try:
        info, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(result["metrics"]):
        print(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": units[name]}
                         for name in units}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
