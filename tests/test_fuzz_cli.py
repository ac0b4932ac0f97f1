"""Mutated input files through the command line.

Each file that ``eval``, ``gates`` and ``gen-data --config`` read is
mutated with a seeded ``random.Random``: bit flips (mostly in the first 64
bytes, where the headers are), truncation, replaced or inserted bytes, and,
in text files, a number swapped for a token such as ``nan`` or ``null``.
The contract is the CLI's: a mutant either runs (exit status 0) or ends in
a usage error (exit status 2, no traceback) whose message names the file;
a sample may be named by its index, as ``evaluate_checkpoint`` reports it.
A failure lists the mutation seed of every mutant that broke the contract,
so ``mutate(data, random.Random(seed), text)`` rebuilds it.

``train --config`` is left out: one inserted digit can ask for a 640 px
training step. Its file goes through the same ``read_config`` as
``gen-data``'s.
"""

import contextlib
import io
import random
import re
import shutil
import warnings

import pytest

from tsgseg.cli import main
from tsgseg.config import format_config, resolve_config
from tsgseg.segbench import generate, sample_seed, save_sample
from tsgseg.train import train_run

TOKENS = (b"nan", b"1e999", b"-1", b"0", b"[]", b"null")
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?")
SAMPLE = 1  # the index of the sample whose files are mutated


def mutate(data: bytes, rng: random.Random, text: bool) -> bytes:
    """One mutation of ``data``, drawn from ``rng``."""
    # a text file's values are where its loader's checks are, so swap a
    # number in a third of its mutants
    kinds = ["flip", "truncate", "replace", "insert"] + ["token"] * (2 * text)
    kind = rng.choice(kinds)
    out = bytearray(data)
    if kind == "flip":
        for _ in range(rng.randint(1, 3)):
            span = min(64, len(out)) if rng.random() < 0.75 else len(out)
            out[rng.randrange(span)] ^= 1 << rng.randrange(8)
    elif kind == "truncate":
        del out[rng.randrange(len(out)):]
    elif kind in ("replace", "insert"):
        at = rng.randrange(len(out))
        new = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
        out[at:at + (len(new) if kind == "replace" else 0)] = new
    else:
        number = rng.choice(list(NUMBER.finditer(data)))
        out[number.start():number.end()] = rng.choice(TOKENS)
    return bytes(out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 1-step single-precision desk run, three 64 px samples and a
    ``gen-data`` config, each in its own directory."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = resolve_config("desk", {"precision": "single", "steps": 1, "train_samples": 2,
                                  "val_samples": 1, "batch_size": 2, "eval_interval": 1})
    with contextlib.redirect_stdout(io.StringIO()):
        train_run(cfg, root / "run")
    (root / "data").mkdir()
    for i in range(3):
        save_sample(str(root / "data"), i, generate(sample_seed(5, i), cfg))
    (root / "gen").mkdir()
    (root / "gen" / "gen.cfg").write_text(format_config(resolve_config("desk")))
    return root


def command(root, name: str) -> list[str]:
    if name == "eval":
        return ["eval", "--ckpt", str(root / "run" / "model.ckpt"), "--data",
                str(root / "data"), "--report", str(root / "report.csv")]
    if name == "gates":
        return ["gates", "--ckpt", str(root / "run" / "model.ckpt"), "--sample",
                str(root / "data" / f"sample_{SAMPLE:04d}.ppm"), "--out", str(root / "out")]
    return ["gen-data", "--seed", "3", "--count", "1", "--out", str(root / "out"),
            "--config", str(root / "gen" / "gen.cfg")]


def outcome(argv: list[str]) -> tuple[object, str]:
    """The exit status of ``main(argv)`` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        # a finite but huge weight overflows in numpy, which warns and goes on
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
    return status, err.getvalue()


# (file under the fixture's root, command, text file, mutants)
CASES = [
    ("run/config.resolved", "eval", True, 40),
    ("run/config.resolved", "gates", True, 20),
    ("run/model.ckpt", "eval", False, 30),
    ("run/model.ckpt", "gates", False, 20),
    (f"data/sample_{SAMPLE:04d}.json", "eval", True, 40),
    (f"data/sample_{SAMPLE:04d}.ppm", "eval", False, 40),
    (f"data/sample_{SAMPLE:04d}.pgm", "eval", False, 30),
    (f"data/sample_{SAMPLE:04d}.ppm", "gates", False, 40),
    ("gen/gen.cfg", "gen-data", True, 40),
]


@pytest.mark.parametrize("target, name, text, count", CASES,
                         ids=[f"{name}-{target.split('/')[-1]}" for target, name, *_ in CASES])
def test_mutants_run_or_name_the_file(inputs, target, name, text, count):
    path = inputs / target
    original = path.read_bytes()
    named = re.compile(re.escape(str(path)) + (rf"|\bsample {SAMPLE}\b"
                                               if target.startswith("data/") else ""))
    base = 1000 * CASES.index((target, name, text, count))
    failures = []
    try:
        for seed in range(base, base + count):
            path.write_bytes(mutate(original, random.Random(seed), text))
            shutil.rmtree(inputs / "out", ignore_errors=True)
            try:
                status, err = outcome(command(inputs, name))
            except Exception as exc:  # a traceback for the user
                failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
                continue
            last = err.strip().splitlines()[-1] if err.strip() else ""
            if status == 2 and "Traceback" not in err and named.search(last):
                continue
            if status not in (0, 2):
                failures.append(f"seed {seed}: exit status {status!r}")
            elif status == 2:
                failures.append(f"seed {seed}: message does not name {path}: {last}")
    finally:
        path.write_bytes(original)
    assert not failures, "\n".join(failures)
