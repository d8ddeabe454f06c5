"""Declarative sweep grid specs.

A spec is a small JSON-able mapping::

    {
        "kind": "campaign",                     # one of repro.sweep.tasks.TASK_KINDS
        "seeds": "0-15",                        # list, or "a-b" range, or "7,21,1337"
        "params": {"workers": 3, "calls": 40},  # applied to every task
        "grid": {"loss_probability": [0.0, 0.02, 0.05]}
    }

Expansion is fully deterministic: the cartesian product iterates grid axes
in sorted-name order (values in the order given), with the seed as the
innermost axis, and numbers each task with its grid ``index`` — the
canonical merge order for the engine, whatever the worker count.
"""

from __future__ import annotations

import itertools
from typing import Any, Union

from repro.sweep.tasks import SweepTask, check_kind


class GridError(ValueError):
    """A sweep spec that cannot be expanded."""


def parse_seeds(spec: Union[str, int, list, tuple]) -> list[int]:
    """Seeds from a list, a single int, ``"a-b"`` (inclusive) or ``"a,b,c"``."""
    if isinstance(spec, int):
        return [spec]
    try:
        if isinstance(spec, (list, tuple)):
            return [int(s) for s in spec]
        text = str(spec).strip()
        if "," in text:
            return [int(part) for part in text.split(",") if part.strip()]
        dash = text.find("-", 1)  # position 0 would be a negative single seed
        if dash == -1:
            return [int(text)]
        lo, hi = int(text[:dash]), int(text[dash + 1 :])
    except ValueError:
        raise GridError(
            f"bad seed list {spec!r}: want '0-15', '0,3,7' or a single seed"
        ) from None
    if hi < lo:
        raise GridError(f"empty seed range {spec!r}")
    return list(range(lo, hi + 1))


def expand_grid(spec: dict) -> list[SweepTask]:
    """Expand one spec into its deterministic, numbered task list."""
    if "kind" not in spec:
        raise GridError("sweep spec needs a 'kind'")
    kind = str(spec["kind"])
    check_kind(kind)
    seeds = parse_seeds(spec.get("seeds", [0]))
    base: dict[str, Any] = dict(spec.get("params", {}))
    grid: dict[str, list] = dict(spec.get("grid", {}))
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise GridError(f"grid axis {name!r} needs a non-empty list of values")
    axes = sorted(grid)
    tasks: list[SweepTask] = []
    for combo in itertools.product(*(grid[name] for name in axes)):
        for seed in seeds:
            params = dict(base)
            params.update(zip(axes, combo))
            params["seed"] = seed
            tasks.append(
                SweepTask(
                    index=len(tasks),
                    kind=kind,
                    params=tuple(sorted(params.items())),
                )
            )
    if not tasks:
        raise GridError("spec expanded to zero tasks")
    return tasks
