"""Run configuration: the one settings class, a strict flat key=value format,
persistence.

Config files hold one ``key = value`` per line with ``#`` comments. Every
key must be a known RunConfig field; anything else is rejected so typos
cannot silently fall back to defaults. The resolved configuration is
written next to every run's outputs in the same format it is read from.

``RunConfig`` is read directly by the model, the dataset generator and the
training loop. It is frozen and checks itself when built, so every
RunConfig that exists describes a model, a dataset and a loop that can run.

One preset ships: ``desk``, small enough to train on a laptop CPU in
minutes. Published-scale settings are not offered: global attention over
the finest stage of a 512x512 image needs over a gigabyte per head per
attention map, and the gate integrators widen with image area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class ConfigError(ValueError):
    pass


PRESETS = ("desk",)
# Fusion rules: the encoder's top-down merge, and the decoder's memory rule
# for every block after the first.
FUSION_KINDS = ("tsg", "fpn", "none", "single")
DECODER_FUSIONS = ("tsg", "sum")
# Sample i of a dataset with base seed s is drawn from the Philox generator
# keyed by sample_seed(s, i), and a Philox key must be below 2**128.
_SAMPLE_BITS = 20


def sample_seed(base_seed: int, index: int) -> int:
    """Disjoint per-sample seed stream for a dataset keyed by a base seed."""
    return (int(base_seed) << _SAMPLE_BITS) + index


def max_base_seed(count: int) -> int:
    """The largest base seed whose samples 0 .. count - 1 all have keys."""
    return (2**128 - count) >> _SAMPLE_BITS


@dataclass(frozen=True)
class RunConfig:
    preset: str = "desk"
    seed: int = 0
    # model
    height: int = 64
    width: int = 64
    patch_size: int = 4
    stage_dims: tuple[int, ...] = (32, 64, 128)
    stage_heads: tuple[int, ...] = (2, 4, 4)
    stage_blocks: tuple[int, ...] = (1, 1, 1)
    mlp_ratio: float = 2.0
    d_f: int = 64
    d_a: int = 64
    tsg_hidden: int = 64
    decoder_blocks: int = 3
    decoder_heads: int = 4
    num_classes: int = 5  # includes background class 0
    encoder_fusion: str = "tsg"  # one of FUSION_KINDS
    decoder_fusion: str = "tsg"  # one of DECODER_FUSIONS
    single_stage: int | None = None
    shared_tsg: bool = False
    # data
    train_samples: int = 200
    val_samples: int = 50
    data_seed: int = 1234
    n_objects_min: int = 2
    n_objects_max: int = 5
    noise: float = 0.04
    size_mix: tuple[float, float, float] = (0.45, 0.2, 0.35)  # small, medium, large
    flip: bool = False
    # optimization
    steps: int = 600
    batch_size: int = 4
    lr0: float = 1e-3
    weight_decay: float = 0.01
    poly_power: float = 0.9
    precision: str = "double"  # double | single
    eval_interval: int = 100

    def __post_init__(self):
        for f in fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r} (choose from {PRESETS})")
        if self.precision not in ("double", "single"):
            raise ConfigError(
                f"precision must be double or single, got {self.precision!r}")
        for key in ("steps", "batch_size", "eval_interval", "patch_size", "d_f", "d_a",
                    "tsg_hidden", "decoder_blocks", "train_samples", "val_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("noise", "lr0", "weight_decay", "poly_power", "mlp_ratio"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        # numpy seeds and Philox keys are non-negative; so are counts, noise
        # and the optimizer settings
        for key in ("seed", "data_seed", "n_objects_min", "noise", "lr0", "weight_decay",
                    "poly_power"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")
        samples = self.train_samples + self.val_samples
        if self.data_seed > max_base_seed(samples):
            raise ConfigError(f"data_seed must be at most {max_base_seed(samples)} for "
                              f"{samples} samples, got {self.data_seed}")
        if self.mlp_ratio <= 0:
            raise ConfigError(f"mlp_ratio must be positive, got {self.mlp_ratio}")
        if not len(self.stage_dims) == len(self.stage_heads) == len(self.stage_blocks):
            raise ConfigError("stage_dims, stage_heads, stage_blocks must have equal length")
        if not self.stage_dims:
            raise ConfigError("stage_dims must list at least one stage")
        for key in ("stage_dims", "stage_blocks"):
            if min(getattr(self, key)) < 1:
                raise ConfigError(f"{key} entries must be positive, got {getattr(self, key)}")
        div = self.patch_size * 2 ** (self.num_stages - 1)
        for key in ("height", "width"):
            if getattr(self, key) < div or getattr(self, key) % div:
                raise ConfigError(
                    f"{key} {getattr(self, key)} must be a positive multiple of {div} "
                    f"(patch_size {self.patch_size} with {self.num_stages} stages)")
        for s, (dim, heads) in enumerate(zip(self.stage_dims, self.stage_heads)):
            if heads < 1 or dim % heads:
                raise ConfigError(
                    f"stage_heads: stage {s + 1} width {dim} does not divide "
                    f"into {heads} heads")
        if self.decoder_heads < 1 or self.d_f % self.decoder_heads:
            raise ConfigError(
                f"decoder_heads: d_f {self.d_f} does not divide into "
                f"{self.decoder_heads} heads")
        if self.num_classes < 2:
            raise ConfigError(
                f"num_classes must be at least 2 (background plus one object "
                f"class), got {self.num_classes}")
        if self.encoder_fusion not in FUSION_KINDS:
            raise ConfigError(
                f"encoder_fusion must be one of {FUSION_KINDS}, got {self.encoder_fusion!r}")
        if self.decoder_fusion not in DECODER_FUSIONS:
            raise ConfigError(
                f"decoder_fusion must be one of {DECODER_FUSIONS}, "
                f"got {self.decoder_fusion!r}")
        if self.encoder_fusion == "single" and self.single_stage is None:
            raise ConfigError("encoder_fusion=single requires single_stage")
        if self.encoder_fusion != "single" and self.single_stage is not None:
            raise ConfigError(
                f"single_stage {self.single_stage} requires encoder_fusion=single, "
                f"got {self.encoder_fusion!r}")
        if self.encoder_fusion == "single" and not 1 <= self.single_stage <= self.num_stages:
            raise ConfigError(
                f"single_stage must be in [1, {self.num_stages}], got {self.single_stage}")
        if self.n_objects_min > self.n_objects_max:
            raise ConfigError("n_objects_min exceeds n_objects_max")
        if (len(self.size_mix) != 3
                or not all(math.isfinite(w) and w >= 0 for w in self.size_mix)
                or abs(sum(self.size_mix) - 1.0) > 1e-9):
            raise ConfigError(
                f"size_mix must be 3 finite non-negative weights (small, medium, large) "
                f"summing to 1, got {self.size_mix}")

    def mlp_dim(self, width: int) -> int:
        """Hidden width of the MLP in a block of the given model width."""
        return max(1, int(round(width * self.mlp_ratio)))

    @property
    def num_stages(self) -> int:
        return len(self.stage_dims)

    @property
    def kept_stages(self) -> int:
        """Backbone stages the model builds: a single-scale variant keeps the
        stages up to its selected one, every other variant keeps them all."""
        return self.single_stage if self.encoder_fusion == "single" else self.num_stages

    @property
    def decoder_scales(self) -> int:
        """Refined feature maps the decoder fuses: one per kept stage, or one
        for a single-scale variant."""
        return 1 if self.encoder_fusion == "single" else self.num_stages

    def stage_grids(self) -> list[tuple[int, int]]:
        """Patch grid of every backbone stage, finest first."""
        h = self.height // self.patch_size
        w = self.width // self.patch_size
        return [(h >> s, w >> s) for s in range(self.num_stages)]

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _is_int(value) -> bool:
    # bool is an int subclass but no count; numpy integer scalars are counts
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


# Field type -> what it accepts, in words, the test and the parser of its
# config text. A float field takes integers too.
_KINDS = {
    "int": ("an integer", _is_int, int),
    "int | None": ("an integer or none", lambda v: v is None or _is_int(v),
                   lambda t: None if t.lower() in ("none", "") else int(t)),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float), float),
    "bool": ("true or false", lambda v: isinstance(v, bool), _parse_bool),
    "str": ("a string", lambda v: isinstance(v, str), str),
}


def _kind(tp: str):
    """``_KINDS``'s entry for a field type; a tuple field's entries are its
    entry type's, separated by commas in the config text."""
    if not tp.startswith("tuple["):
        return _KINDS[tp]
    entry = tp[len("tuple["):].split(",")[0]
    _, test, parse = _KINDS[entry]
    return (f"a tuple of {entry} entries",
            lambda v: isinstance(v, tuple) and all(test(e) for e in v),
            lambda t: tuple(parse(tok) for tok in t.split(",") if tok.strip()))


def _check_type(key: str, tp: str, value) -> None:
    """Reject a value ``format_config`` would write in a form that does not
    read back, such as a list, a fractional count or a bool count."""
    want, test, _ = _kind(tp)
    if not test(value):
        raise ConfigError(f"{key} must be {want}, got {type(value).__name__} {value!r}")


def _convert(key: str, text: str):
    return _kind(_FIELDS[key].type)[2](text.strip())


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key/value strings from flat config text. Unknown keys and values
    that do not convert to their field's type are rejected with the line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            _convert(key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
        out[key] = value.strip()
    return out


def resolve_config(preset: str = "desk", overrides: dict | None = None) -> RunConfig:
    """Preset defaults plus overrides, fully typed and validated.

    String overrides are converted to the field's type; other values are
    taken as they are.
    """
    values = {"preset": preset}
    for key, text in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            values[key] = _convert(key, text) if isinstance(text, str) else text
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return RunConfig(**values)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def format_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def load_config_file(path) -> dict[str, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_config_text(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_config(path) -> RunConfig:
    """The RunConfig the config file at ``path`` describes; an error in the
    file's text or values starts with ``path``."""
    values = load_config_file(path)
    try:
        return resolve_config(overrides=values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def model_config(cfg: RunConfig) -> RunConfig:
    """The settings a model is built from: the run config itself."""
    return cfg


def dataset_config(cfg: RunConfig) -> RunConfig:
    """The settings a dataset is drawn from: the run config itself."""
    return cfg
