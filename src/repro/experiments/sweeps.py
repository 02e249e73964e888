"""Parameter sweeps over experiment cells.

:func:`sweep` maps a parameter path (e.g. ``system.buffer_size`` or
``spec.lambda_s``) over a list of values, running the full cell at each
point.  This is the engine behind every figure's x-axis.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, replace

from repro.core.policies import Policy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import CellResult, run_cell


@dataclass
class SweepPoint:
    """One x-axis point of a sweep."""

    parameter: str
    value: object
    result: CellResult


@dataclass
class SweepResult:
    """All points of one sweep."""

    parameter: str
    points: _t.List[SweepPoint]


def _apply_parameter(
    config: ExperimentConfig, parameter: str, value: object
) -> ExperimentConfig:
    """Set ``parameter`` ("system.x", "spec.x", or a top-level field)."""
    if "." in parameter:
        section, name = parameter.split(".", 1)
        if section == "system":
            return config.with_system(**{name: value})
        if section == "spec":
            return config.with_spec(**{name: value})
        raise ValueError(f"unknown config section {section!r}")
    return replace(config, **{parameter: value})  # type: ignore[arg-type]


def sweep(
    config: ExperimentConfig,
    policies: _t.Sequence[Policy],
    parameter: str,
    values: _t.Sequence[object],
    targets_transform: _t.Optional[_t.Callable] = None,
    jobs: _t.Optional[int] = None,
) -> SweepResult:
    """Run the cell once per parameter value.

    Parameters
    ----------
    parameter:
        Dotted path into the config: ``"system.buffer_size"``,
        ``"spec.lambda_s"``, ``"duration"``, ...
    values:
        The x-axis values, in order.
    jobs:
        Worker processes per cell (passed to
        :func:`~repro.experiments.runner.run_cell`, which reads None as
        its ``DEFAULT_JOBS``).
        Points stay sequential — the per-cell fan-out already saturates
        the pool, and results must not depend on point ordering.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    points = []
    for value in values:
        cell_config = _apply_parameter(config, parameter, value)
        result = run_cell(
            cell_config,
            policies,
            targets_transform=targets_transform,
            jobs=jobs,
        )
        points.append(
            SweepPoint(parameter=parameter, value=value, result=result)
        )
    return SweepResult(parameter=parameter, points=points)
