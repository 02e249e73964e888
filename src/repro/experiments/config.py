"""Experiment configurations (paper Section VI-C defaults).

:class:`ExperimentConfig` bundles everything one experiment cell needs:
which topology to generate, which system parameters to run with, how long
to simulate, and how many random replications to average (the paper runs
"multiple randomly generated topologies ... averaged over the multiple
runs").
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field, replace

from repro.graph.topology import (
    TopologySpec,
    paper_calibration_spec,
    paper_main_spec,
)
from repro.systems.simulated import SystemConfig


@dataclass
class ExperimentConfig:
    """One experiment cell's full parameterization."""

    name: str
    spec: TopologySpec
    system: SystemConfig = field(default_factory=SystemConfig)
    duration: float = 20.0
    replications: int = 3

    def with_system(self, **changes: object) -> "ExperimentConfig":
        """Copy with SystemConfig fields replaced."""
        return replace(self, system=replace(self.system, **changes))  # type: ignore[arg-type]

    def with_spec(self, **changes: object) -> "ExperimentConfig":
        """Copy with TopologySpec fields replaced."""
        return replace(self, spec=replace(self.spec, **changes))  # type: ignore[arg-type]


def calibration_experiment(**overrides: object) -> ExperimentConfig:
    """60 PE / 10 node cell (the paper's SPC-calibration scale)."""
    params: _t.Dict[str, object] = dict(
        name="calibration-60pe-10node",
        spec=paper_calibration_spec(),
    )
    params.update(overrides)
    return ExperimentConfig(**params)  # type: ignore[arg-type]


def main_experiment(**overrides: object) -> ExperimentConfig:
    """200 PE / 80 node cell (the paper's main simulation scale)."""
    params: _t.Dict[str, object] = dict(
        name="main-200pe-80node",
        spec=paper_main_spec(),
    )
    params.update(overrides)
    return ExperimentConfig(**params)  # type: ignore[arg-type]


def smoke_experiment(**overrides: object) -> ExperimentConfig:
    """A small, fast cell for tests and quick benchmarks."""
    params: _t.Dict[str, object] = dict(
        name="smoke-20pe-5node",
        spec=TopologySpec(
            num_nodes=5,
            num_ingress=4,
            num_egress=4,
            num_intermediate=12,
        ),
        duration=8.0,
        replications=2,
        system=SystemConfig(warmup=2.0),
    )
    params.update(overrides)
    return ExperimentConfig(**params)  # type: ignore[arg-type]
