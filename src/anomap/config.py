"""Flat ``key = value`` run configuration with bracketed section headers.

Unknown keys and malformed lines are hard errors reported with their line
number.  A parsed :class:`RunConfig` can be serialized back with
:func:`render` and re-parses to an equivalent configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

VARIANTS = ("l1", "ssim", "fq", "fq_air")
PROFILE_NAMES = ("t2_like", "flair_like", "t1ce_like")


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

    def validate(self) -> "RunConfig":
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.dataset_kind not in ("phantom", "disk"):
            raise ValueError(f"unknown dataset kind {self.dataset_kind!r}")
        if self.dataset_kind == "disk" and not self.dataset_path:
            raise ValueError("dataset kind 'disk' requires a path")
        if self.profile not in PROFILE_NAMES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.noise not in ("simplex", "gaussian"):
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")
        if self.lesion_gap is not None and not 0.0 < self.lesion_gap < math.inf:
            raise ValueError("lesion_gap must be positive and finite")
        if self.size < 32:
            raise ValueError("size must be >= 32")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.T < 1:
            raise ValueError(f"T = {self.T} must be >= 1")
        if not 0.0 < self.beta_1 <= self.beta_T < 1.0:
            raise ValueError(f"beta_1 = {self.beta_1}, beta_T = {self.beta_T}: "
                             "require 0 < beta_1 <= beta_T < 1")
        t_test = self.resolved_t_test()
        if not 1 <= t_test <= self.T:
            raise ValueError(f"t_test = {t_test} outside [1, T = {self.T}]")
        if self.batch_size < 1:
            raise ValueError(f"batch_size = {self.batch_size} must be >= 1")
        if self.epochs < 0:
            raise ValueError(f"epochs = {self.epochs} must be >= 0")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate = {self.learning_rate} "
                             "must be finite and >= 0")
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
        for name in ("patch_h", "patch_w"):
            v = getattr(self, name)
            if v is not None and not 1 <= v <= self.size:
                raise ValueError(f"{name} = {v} outside [1, size = {self.size}]")
        for name in ("stride_h", "stride_w"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")
        return self


# section -> key -> (field name, parser)
def _opt(parser):
    return lambda v: None if v.lower() == "none" else parser(v)


_SCHEMA = {
    "dataset": {
        "kind": ("dataset_kind", str),
        "path": ("dataset_path", str),
        "profile": ("profile", str),
        "size": ("size", int),
        "n_train": ("n_train", int),
        "n_val": ("n_val", int),
        "n_test": ("n_test", int),
        "lesion_gap": ("lesion_gap", _opt(float)),
    },
    "diffusion": {
        "T": ("T", int),
        "beta_1": ("beta_1", float),
        "beta_T": ("beta_T", float),
        "t_test": ("t_test", _opt(int)),
        "noise": ("noise", str),
        "patch_h": ("patch_h", _opt(int)),
        "patch_w": ("patch_w", _opt(int)),
        "stride_h": ("stride_h", _opt(int)),
        "stride_w": ("stride_w", _opt(int)),
    },
    "train": {
        "epochs": ("epochs", int),
        "learning_rate": ("learning_rate", float),
        "batch_size": ("batch_size", int),
    },
    "eval": {
        "median_k": ("median_k", int),
        "erosion_iters": ("erosion_iters", int),
        "n_thresholds": ("n_thresholds", int),
        "ssim_window": ("ssim_window", int),
        "alpha": ("alpha", float),
        "blur_sigma": ("blur_sigma", _opt(float)),
    },
    "run": {
        "variant": ("variant", str),
        "folds": ("folds", int),
        "seed": ("seed", int),
        "out": ("out", str),
    },
}


class ConfigError(ValueError):
    pass


def parse(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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
