"""Generic parameter-sweep driver.

A sweep runs a measurement function over the cartesian product of named
parameter lists, replicated over seeds, and collects one flat record per
run — the shape every benchmark table is built from.

Seed replication is the axis the replica-batched direct backend
collapses: a measurement that can run all its seeds in one
:func:`repro.core.udg.solve_kmds_udg_batch` pass plugs in as
``measure_batch`` and receives the whole validated seed list per grid
point, instead of being called once per seed.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence


def sweep(measure: Callable[..., Mapping[str, Any]],
          params: Mapping[str, Sequence[Any]],
          *,
          seeds: Sequence[int] = (0,),
          measure_batch: Callable[..., Sequence[Mapping[str, Any]]]
          | None = None,
          on_record: Callable[[Dict[str, Any]], None] | None = None
          ) -> List[Dict[str, Any]]:
    """Run ``measure(seed=..., **point)`` over a parameter grid.

    Parameters
    ----------
    measure:
        Callable returning a mapping of result fields for one run.  It
        receives every grid coordinate as a keyword argument plus ``seed``.
    params:
        Mapping from parameter name to the list of values to sweep.
    seeds:
        Replication seeds; each grid point runs once per seed.  Every
        seed is validated through :func:`repro.engine.validate_seed`
        before anything runs, so a malformed entry fails fast instead
        of half-way through an expensive grid.
    measure_batch:
        Optional replica-batched form: called as
        ``measure_batch(seeds=list(seeds), **point)`` once per grid
        point and must return one result mapping per seed, in order.
        Implementations typically forward to
        :func:`repro.core.udg.solve_kmds_udg_batch` so the whole
        replication axis runs as one kernel pass.  When given,
        ``measure`` is not called.
    on_record:
        Optional callback invoked with each completed record (e.g. for
        incremental printing).

    Returns
    -------
    list of dict
        One record per (grid point, seed), containing the coordinates, the
        seed, and every field returned by ``measure``.
    """
    from repro.engine import validate_seed

    seed_list = [validate_seed(s) for s in seeds]
    names = list(params)
    records: List[Dict[str, Any]] = []

    def emit(point: Dict[str, Any], seed, result: Mapping[str, Any]) -> None:
        record: Dict[str, Any] = dict(point)
        record["seed"] = seed
        record.update(result)
        records.append(record)
        if on_record is not None:
            on_record(record)

    for combo in itertools.product(*(params[name] for name in names)):
        point = dict(zip(names, combo))
        if measure_batch is not None:
            results = list(measure_batch(seeds=list(seed_list), **point))
            if len(results) != len(seed_list):
                raise ValueError(
                    f"measure_batch returned {len(results)} results for "
                    f"{len(seed_list)} seeds at grid point {point!r}")
            for seed, result in zip(seed_list, results):
                emit(point, seed, result)
        else:
            for seed in seed_list:
                emit(point, seed, measure(seed=seed, **point))
    return records


def group_mean(records: Iterable[Mapping[str, Any]],
               by: Sequence[str],
               value: str) -> Dict[tuple, float]:
    """Group records by the ``by`` coordinates and average ``value``."""
    sums: Dict[tuple, float] = {}
    counts: Dict[tuple, int] = {}
    for rec in records:
        key = tuple(rec[b] for b in by)
        sums[key] = sums.get(key, 0.0) + float(rec[value])
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}
