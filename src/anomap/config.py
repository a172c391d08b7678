"""Flat ``key = value`` run configuration with bracketed section headers.

Each key is a :class:`RunConfig` field, parsed by its annotated type, in the
section where the field is declared; only ``[dataset]`` renames two, as
``kind`` (``dataset_kind``) and ``path`` (``dataset_path``).  An optional
value reads ``none`` as unset.  A ``#`` starts a comment, which runs to the
end of the line, only at the start of a line or after whitespace; anywhere
else, as in ``path = /data/brats#2021``, it is part of the value.  Unknown or
repeated keys and malformed lines are hard errors reported with their line
number.  :func:`render` writes a valid :class:`RunConfig` back in a form that
re-parses to an equal one, as ``validate`` rejects an ``out`` or ``path`` with
leading or trailing whitespace, a ``#`` at its start or after whitespace, or
a line break.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import phantom
from .denoise import TrainConfig, check_blur_sigma
from .diffusion import NOISE_KINDS, PatchSpec, linear_schedule, placements
from .iqa import FusionParams

VARIANTS = ("l1", "ssim", "fq", "fq_air")
PROFILE_NAMES = tuple(phantom.PROFILES)


@dataclass
class RunConfig:
    # [dataset]
    dataset_kind: str = "phantom"       # "phantom" | "disk"
    dataset_path: str = ""              # required for kind = disk
    profile: str = "flair_like"
    size: int = 64
    n_train: int = 200
    n_val: int = 30
    n_test: int = 60
    lesion_gap: Optional[float] = None  # overrides the profile lesion offset
    # [diffusion]
    T: int = 1000
    beta_1: float = 1e-4
    beta_T: float = 0.02
    t_test: Optional[int] = None        # None: 500 for t2_like, 750 otherwise
    noise: str = "simplex"
    patch_h: Optional[int] = None       # None: half the image dimension
    patch_w: Optional[int] = None
    stride_h: Optional[int] = None      # None: quarter of the image dimension
    stride_w: Optional[int] = None
    # [train]
    epochs: int = 300
    learning_rate: float = 0.1
    batch_size: int = 8
    # [eval]
    median_k: int = 5
    erosion_iters: int = 3
    n_thresholds: int = 200
    ssim_window: int = 5
    alpha: float = 0.84
    blur_sigma: Optional[float] = None  # use the blur baseline instead of training
    # [run]
    variant: str = "fq"
    folds: int = 5
    seed: int = 0
    out: str = "out"

    def resolved_t_test(self) -> int:
        if self.t_test is not None:
            return self.t_test
        return 500 if self.profile == "t2_like" else 750

    def resolved_alpha(self) -> float:
        if self.variant == "l1":
            return 0.0
        if self.variant == "ssim":
            return 1.0
        return self.alpha

    def uses_air(self) -> bool:
        return self.variant == "fq_air"

    def patch(self) -> PatchSpec:
        """The configured patch and stride sizes; unset ones follow each
        image (:meth:`PatchSpec.resolve`)."""
        return PatchSpec(self.patch_h, self.patch_w, self.stride_h,
                         self.stride_w)

    def validate(self) -> "RunConfig":
        """Raise ``ValueError`` naming the offending key unless every value
        is usable.  Each rule that a run-time object enforces is checked by
        building that object, so the rule and its message live there."""
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.dataset_kind not in ("phantom", "disk"):
            raise ValueError(f"unknown dataset kind {self.dataset_kind!r}")
        if self.dataset_kind == "disk" and not self.dataset_path:
            raise ValueError("dataset kind 'disk' requires a path")
        for name in ("dataset_path", "out"):
            v = getattr(self, name)
            if _line_content(v) != v or len(v.splitlines()) > 1:
                raise ValueError(f"{_RENAMED.get(name, name)} = {v!r} would "
                                 "not read back from a config line")
        if self.profile not in PROFILE_NAMES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be >= 0")
        if self.dataset_kind == "phantom":
            # a disk dataset takes its splits from the files
            for name in ("n_train", "n_val", "n_test"):
                v = getattr(self, name)
                if v < 1:
                    raise ValueError(f"{name} = {v} must be >= 1")
        if self.lesion_gap is not None and not 0.0 < self.lesion_gap < math.inf:
            raise ValueError("lesion_gap must be positive and finite")
        if self.size < 32:
            raise ValueError("size must be >= 32")
        FusionParams(self.alpha)
        linear_schedule(self.T, self.beta_1, self.beta_T)
        t_test = self.resolved_t_test()
        if not 1 <= t_test <= self.T:
            raise ValueError(f"t_test = {t_test} outside [1, T = {self.T}]")
        TrainConfig(epochs=self.epochs, learning_rate=self.learning_rate,
                    batch_size=self.batch_size)
        if self.blur_sigma is not None and not 0.0 < self.blur_sigma < math.inf:
            raise ValueError(f"blur_sigma = {self.blur_sigma} "
                             "must be positive and finite")
        if self.n_thresholds < 2:
            raise ValueError("n_thresholds must be >= 2")
        for name in ("median_k", "ssim_window"):
            v = getattr(self, name)
            if v < 1 or v % 2 != 1:
                raise ValueError(f"{name} = {v} must be odd and >= 1")
        if self.erosion_iters < 0:
            raise ValueError("erosion_iters must be >= 0")
        spec = self.patch()
        if self.dataset_kind == "phantom":
            # a disk dataset's grid and blur are checked against its rasters
            # once read
            placements(spec.resolve(self.size, self.size), self.size, self.size)
            if self.blur_sigma is not None:
                check_blur_sigma(self.blur_sigma, self.size, self.size)
        return self


# each section holds its first field and the fields declared after it
_SECTION_STARTS = {"dataset_kind": "dataset", "T": "diffusion",
                   "epochs": "train", "median_k": "eval", "variant": "run"}
_RENAMED = {"dataset_kind": "kind", "dataset_path": "path"}  # field -> key
_COMMENT = re.compile(r"(?:^|\s)#")


def _line_content(raw: str) -> str:
    """What :func:`parse` reads of a line: its text before a comment, stripped."""
    return _COMMENT.split(raw, 1)[0].strip()


def _parser(hint):
    """The parser of a field annotated ``hint``: the type itself, or for
    ``Optional[X]``, ``X`` that also reads ``none``, in any case, as
    ``None``."""
    if get_origin(hint) is not Union:
        return hint
    inner = get_args(hint)[0]
    return lambda v: None if v.lower() == "none" else inner(v)


def _schema():
    """section -> key -> (field name, parser), in declaration order."""
    hints = get_type_hints(RunConfig)
    schema = {}
    for f in fields(RunConfig):
        if f.name in _SECTION_STARTS:
            keys = schema[_SECTION_STARTS[f.name]] = {}
        keys[_RENAMED.get(f.name, f.name)] = (f.name, _parser(hints[f.name]))
    return schema


_SCHEMA = _schema()


class ConfigError(ValueError):
    pass


def parse(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    section = None
    first_line = {}  # (section, key) -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _line_content(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        entry = _SCHEMA[section].get(key)
        if entry is None:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [{section}]")
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigError(f"{source}:{lineno}: key {key!r} in [{section}] "
                              f"repeats line {first}")
        attr, caster = entry
        try:
            setattr(cfg, attr, caster(value))
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return cfg.validate()
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_file(path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse(text, source=str(path))


def render(cfg: RunConfig) -> str:
    """Serialize a config in the same section/key layout it parses from."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            value = getattr(cfg, attr)
            if value is None:
                value = "none"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
