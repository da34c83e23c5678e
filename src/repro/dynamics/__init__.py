"""repro.dynamics — self-healing maintenance of k-fold dominating sets.

The construction algorithms (Algorithms 1-3) build a clustering once;
this subsystem keeps it alive.  A :class:`Scenario` composes churn
drivers — scheduled/Poisson crash-stop failures, node joins, battery
decay, mobility-driven rewiring — over a deployment; a
:class:`MaintenanceLoop` runs the scenario in epochs, detecting coverage
deficits with the :mod:`repro.core.verify` oracle and healing them
through a pluggable :class:`RepairPolicy`:

- :class:`LocalPatchRepair` — the paper's Part II adoption rule applied
  incrementally in the deficient nodes' 2-hop balls;
- :class:`RecomputeRepair` — re-run Algorithm 3 from scratch (baseline);
- :class:`LazyRepair` — ride the k-fold redundancy headroom and repair
  only when damage crosses a severity threshold.

Typical use::

    from repro.dynamics import LocalPatchRepair, crash_scenario, run_scenario

    scenario = crash_scenario(n=500, k=3, epochs=50, kill_fraction=0.2,
                              seed=0)
    result = run_scenario(scenario, LocalPatchRepair())
    print(result.summary["availability_mean"], result.always_covered)

Everything is deterministic per seed: churn streams, repair selection,
and the initial solution all draw from independent named streams.
"""

from repro.dynamics.events import (
    BatteryDecay,
    CrashEvent,
    DrainEvent,
    Event,
    EventStream,
    JoinEvent,
    MobilityRewiring,
    MoveEvent,
    PoissonCrashes,
    PoissonJoins,
    RandomCrashes,
    ScheduledCrashes,
)
from repro.dynamics.demotion import DemotionOutcome, SurplusDemotion
from repro.dynamics.loop import (
    EXECUTORS,
    DynamicsResult,
    MaintenanceLoop,
    VerifiedCoverage,
    run_scenario,
)
from repro.dynamics.metrics import DynamicsTimeline, EpochRecord
from repro.dynamics.repair import (
    REPAIR_POLICIES,
    LazyRepair,
    LocalPatchRepair,
    RecomputeRepair,
    RepairOutcome,
    RepairPolicy,
    make_policy,
)
from repro.dynamics.scenario import Scenario, crash_scenario
from repro.dynamics.sharding import DamageUnit, assign_shards, damage_units
from repro.dynamics.state import NetworkState

__all__ = [
    "BatteryDecay",
    "CrashEvent",
    "DamageUnit",
    "DemotionOutcome",
    "DrainEvent",
    "DynamicsResult",
    "DynamicsTimeline",
    "EXECUTORS",
    "EpochRecord",
    "Event",
    "EventStream",
    "JoinEvent",
    "LazyRepair",
    "LocalPatchRepair",
    "MaintenanceLoop",
    "MobilityRewiring",
    "MoveEvent",
    "NetworkState",
    "PoissonCrashes",
    "PoissonJoins",
    "RandomCrashes",
    "RecomputeRepair",
    "REPAIR_POLICIES",
    "RepairOutcome",
    "RepairPolicy",
    "Scenario",
    "ScheduledCrashes",
    "SurplusDemotion",
    "VerifiedCoverage",
    "assign_shards",
    "crash_scenario",
    "damage_units",
    "make_policy",
    "run_scenario",
]
