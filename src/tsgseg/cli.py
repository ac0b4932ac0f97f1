"""Command-line entry point.

Subcommands: ``gen-data`` renders a dataset directory, ``train`` runs a
configured training job, ``eval`` scores a checkpoint on a saved dataset,
``gates`` exports gate visualizations for one sample, and ``ablate`` runs
a model-variant grid and writes a summary CSV. A bad config, checkpoint,
dataset, image or file is reported as a usage error (exit status 2),
without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import CheckpointError
from .config import ConfigError, load_config_file, resolve_config
from .netpbm import NetpbmError
from .segbench import generate, sample_seed, save_sample
from .train import SUITES, ablate, dump_gates, evaluate_checkpoint, train_run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsgseg",
        description="Multi-scale segmentation with gated cross-scale fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a synthetic dataset directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="flat config file for dataset fields")

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("gates", help="dump gate maps for one sample image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--sample", required=True, help="path to a sample PPM")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="run an ablation suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    p.add_argument("--steps", type=int, help="override per-run step count")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(parser, args)
    except (ConfigError, CheckpointError, NetpbmError, OSError) as exc:
        parser.error(str(exc))


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "gen-data":
        if args.seed < 0:
            parser.error(f"gen-data: --seed must be >= 0, got {args.seed}")
        if args.count < 1:
            parser.error(f"gen-data: --count must be >= 1, got {args.count}")
        overrides = load_config_file(args.config) if args.config else {}
        cfg = resolve_config(overrides=overrides)
        if cfg.num_classes > 256:
            parser.error(f"gen-data: labels are stored as 8-bit PGM, so num_classes "
                         f"must be <= 256, got {cfg.num_classes}")
        os.makedirs(args.out, exist_ok=True)
        for i in range(args.count):
            save_sample(args.out, i, generate(sample_seed(args.seed, i), cfg))
        print(f"wrote {args.count} samples to {args.out}")
        return 0

    if args.command == "train":
        overrides = load_config_file(args.config) if args.config else {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = resolve_config(overrides=overrides)
        _, summary = train_run(cfg, args.out)
        report = summary["report"]
        print(f"final loss {summary['final_loss']:.4f}  "
              f"val mIoU {report['mIoU']:.4f}  checkpoint {summary['ckpt']}")
        return 0

    if args.command == "eval":
        report = evaluate_checkpoint(args.ckpt, args.data, args.report)
        print(f"mIoU {report['mIoU']:.4f}  report written to {args.report}")
        return 0

    if args.command == "gates":
        written = dump_gates(args.ckpt, args.sample, args.out)
        print(f"wrote {len(written)} files to {args.out}")
        return 0

    if args.command == "ablate":
        items = [s.strip() for s in args.seeds.split(",") if s.strip()]
        if not items or not all(s.isdecimal() for s in items):
            parser.error(f"ablate: --seeds must be comma-separated integers >= 0, "
                         f"got {args.seeds!r}")
        seeds = tuple(int(s) for s in items)
        if len(set(seeds)) != len(seeds):
            parser.error(f"ablate: --seeds must not repeat a seed, got {args.seeds!r}")
        ablate(args.suite, args.out, seeds=seeds, steps=args.steps)
        print(f"suite {args.suite} complete; results in "
              f"{os.path.join(args.out, 'results.csv')}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
