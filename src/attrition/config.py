"""Run configuration: one dataclass covering every stage, JSON-loadable.

Every field has a default, the resolved configuration is echoed next to the
outputs, and all seeds are explicit so a run can be reproduced from its
config alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .features import DEFAULT_GATEKEEPER_DEPARTMENTS, FeatureConfig
from .io import read_json
from .models import ForestParams
from .synthetic import SynthConfig, config_kwargs, signal_kinds


def _default_knn_grid() -> tuple[int, ...]:
    return tuple(range(1, 52, 2))


@dataclass
class RunConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    imputation_mode: str = "regression"
    major_vocab_size: int = 150
    gatekeeper_range: tuple[int, int] = (100, 199)
    gatekeeper_departments: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_GATEKEEPER_DEPARTMENTS)
    )
    lr_lambda_grid: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    knn_k_grid: tuple[int, ...] = field(default_factory=_default_knn_grid)
    forest_depth_grid: tuple[int, ...] = (2, 4, 6, 8, 12, 16)
    forest_n_trees: int = 200
    forest_min_samples_split: int = 2
    forest_min_samples_leaf: int = 1
    test_fraction: float = 0.30
    cv_folds: int = 10
    timing_lambda_grid: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    split_seed: int = 7301
    cv_seed: int = 7302
    sampling_seed: int = 7303
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self) -> None:
        if not (isinstance(self.cv_folds, int) and self.cv_folds >= 2):
            raise ValueError(f"cv_folds must be an integer >= 2, got {self.cv_folds!r}")
        if not (isinstance(self.test_fraction, (int, float)) and 0 < self.test_fraction < 1):
            raise ValueError(f"test_fraction must be inside (0, 1), got {self.test_fraction!r}")
        # grid checks: (field, what its values must be, the test each value must pass)
        for name, rule, ok in (
            ("lr_lambda_grid", "non-negative", lambda v: v >= 0),
            ("knn_k_grid", "positive odd integers", lambda v: v >= 1 and v % 2 == 1),
            ("forest_depth_grid", "at least 1", lambda v: v >= 1),
            ("timing_lambda_grid", "non-negative", lambda v: v >= 0),
        ):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must not be empty")
            if not all(isinstance(v, (int, float)) and ok(v) for v in grid):
                raise ValueError(f"{name} values must be {rule}, got {list(grid)}")
        self.feature_config()  # FeatureConfig owns the feature fields' rules
        self.forest_params(max(self.forest_depth_grid))  # ForestParams the forest fields'
        signal_kinds(self.synth)  # and the generator the signal weight keys

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_json(path))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        kwargs = config_kwargs(cls, raw, "config", ("gatekeeper_range", "lr_lambda_grid", "knn_k_grid",
                                                    "forest_depth_grid", "timing_lambda_grid"),
                               own_type_checks=("cv_folds", "test_fraction"))
        if "synth" in kwargs:
            kwargs["synth"] = SynthConfig.from_dict(kwargs["synth"])
        return cls(**kwargs)

    def override_seed(self, seed: int) -> "RunConfig":
        """One seed to rule them all: split, CV, sampling, and generation."""
        return replace(
            self,
            split_seed=seed,
            cv_seed=seed + 1,
            sampling_seed=seed + 2,
            synth=replace(self.synth, seed=seed + 3),
        )

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            major_vocab_size=self.major_vocab_size,
            gatekeeper_range=self.gatekeeper_range,
            gatekeeper_departments=self.gatekeeper_departments,
            imputation_mode=self.imputation_mode,
        )

    def forest_params(self, max_depth: int) -> ForestParams:
        return ForestParams(
            n_trees=self.forest_n_trees,
            max_depth=max_depth,
            min_samples_split=self.forest_min_samples_split,
            min_samples_leaf=self.forest_min_samples_leaf,
        )
