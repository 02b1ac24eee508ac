"""Machine performance model (alpha-beta-gamma) and cost accounting.

The Cray XC30 testbed is simulated by this model (README, "Paper-figure
benchmarks"); the solvers' numerics are unaffected by it.
"""

from repro.machine.collectives import CollectiveCost, CollectiveModel
from repro.machine.compute import ComputeModel
from repro.machine.ledger import CostLedger, CostSnapshot, critical_path
from repro.machine.spec import (
    COMMODITY_CLUSTER,
    CRAY_XC30,
    NULL_MACHINE,
    SPARK_LIKE,
    MachineSpec,
    get_machine,
)

__all__ = [
    "MachineSpec",
    "NULL_MACHINE",
    "CRAY_XC30",
    "COMMODITY_CLUSTER",
    "SPARK_LIKE",
    "get_machine",
    "CollectiveCost",
    "CollectiveModel",
    "ComputeModel",
    "CostLedger",
    "CostSnapshot",
    "critical_path",
]
