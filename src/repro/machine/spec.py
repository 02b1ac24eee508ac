"""Machine descriptions for the performance model.

The paper measures on a Cray XC30 (NERSC "Edison": Aries dragonfly
interconnect, 2x12-core Ivy Bridge per node). We cannot run there, so the
performance experiments use an explicit alpha-beta-gamma model:

* ``alpha``   — per-message latency (seconds) for one tree round,
* ``beta``    — per-*word* (8-byte double) transfer time (seconds),
* ``gamma_*`` — effective local flop rates per core, split by BLAS level,
  because the paper's Fig. 4 computation speedups hinge on the BLAS-1
  (dot products) vs BLAS-3 (Gram matrix) efficiency gap,
* ``cache_bytes``/``cache_penalty`` — once a kernel's working set spills
  the last-level cache slice, its rate is multiplied by ``cache_penalty``;
  this reproduces the "slowdowns once s becomes too large" effect.

All presets are order-of-magnitude calibrations (README, "Paper-figure
benchmarks"): the reproduction targets ratios (speedups, crossovers), not absolute
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import CostModelError

__all__ = [
    "MachineSpec",
    "NULL_MACHINE",
    "CRAY_XC30",
    "COMMODITY_CLUSTER",
    "SPARK_LIKE",
    "get_machine",
]

#: Kernel classes whose effective rates the model distinguishes.
FLOP_KINDS = ("blas1", "blas2", "blas3", "spmv", "scalar", "gather", "fixed")


@dataclass(frozen=True)
class MachineSpec:
    """Alpha-beta-gamma description of a distributed-memory machine."""

    name: str
    #: latency per tree round, seconds
    alpha: float
    #: seconds per 8-byte word moved in one tree round
    beta: float
    #: effective flop/s per core for each kernel class. The blas3/blas1
    #: ratio (~2.6x) is calibrated so SA Gram formation shows the modest
    #: computation speedups of the paper's Fig. 4e-4h rather than the
    #: theoretical BLAS-3 peak.
    gamma: dict = field(
        default_factory=lambda: {
            "blas1": 2.5e9,
            "blas2": 3.5e9,
            "blas3": 6.5e9,
            "spmv": 2.0e9,
            "scalar": 0.5e9,
            # memory-bound index scans (column/row extraction)
            "gather": 0.5e9,
            # fixed per-iteration subproblem overhead (LAPACK/BLAS call
            # latency, prox, random access into replicated vectors);
            # dataset-size independent, paid by SA and non-SA alike
            "fixed": 0.5e9,
        }
    )
    #: per-core last-level cache slice, bytes
    cache_bytes: float = 2.5e6
    #: multiplicative rate penalty once working set exceeds cache_bytes
    cache_penalty: float = 0.35
    #: cores per node (informational; collectives count ranks, not nodes)
    cores_per_node: int = 24

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise CostModelError("alpha and beta must be non-negative")
        missing = [k for k in FLOP_KINDS if k not in self.gamma]
        if missing:
            raise CostModelError(f"gamma missing kernel classes: {missing}")
        for k, v in self.gamma.items():
            if v <= 0:
                raise CostModelError(f"gamma[{k!r}] must be > 0, got {v}")
        if not (0 < self.cache_penalty <= 1):
            raise CostModelError("cache_penalty must be in (0, 1]")

    def flop_rate(self, kind: str, working_set_bytes: float | None = None) -> float:
        """Effective flop/s for a kernel of class ``kind``.

        ``working_set_bytes`` triggers the cache penalty when it exceeds
        the per-core cache slice.
        """
        try:
            rate = self.gamma[kind]
        except KeyError as exc:
            raise CostModelError(
                f"unknown flop kind {kind!r}; known: {sorted(self.gamma)}"
            ) from exc
        if working_set_bytes is not None and working_set_bytes > self.cache_bytes:
            rate *= self.cache_penalty
        return rate

    def with_overrides(self, **kwargs) -> "MachineSpec":
        """Copy with selected fields replaced (for ablation sweeps)."""
        return replace(self, **kwargs)


#: zero-cost machine: collectives/flops are *counted* but take no time.
#: Used internally when no machine spec is attached to a communicator.
NULL_MACHINE = MachineSpec(name="null", alpha=0.0, beta=0.0)

#: NERSC Edison calibration: Aries ~1.4 us MPI latency per tree round;
#: beta reflects the *effective* per-word cost inside small/medium
#: allreduce rounds (~1 GB/s), not the link's streaming bandwidth — this
#: is what makes the speedup-vs-s curve peak near the paper's s=16..64
#: and caps communication speedups near the reported 4.2x-10.9x.
CRAY_XC30 = MachineSpec(name="cray-xc30", alpha=1.4e-6, beta=8.0e-9)

#: Ethernet commodity cluster: 25 us latency, ~1.2 GB/s.
COMMODITY_CLUSTER = MachineSpec(name="commodity", alpha=2.5e-5, beta=6.7e-9)

#: Spark-like data-analytics stack: scheduling/serialisation inflates the
#: per-round latency by orders of magnitude (paper SVII and [36] observe
#: large latency costs on Spark); bandwidth similar to commodity.
SPARK_LIKE = MachineSpec(name="spark-like", alpha=5.0e-3, beta=8.0e-9)

_REGISTRY = {m.name: m for m in (CRAY_XC30, COMMODITY_CLUSTER, SPARK_LIKE)}


def get_machine(name: str) -> MachineSpec:
    """Look up a preset by name (``cray-xc30``, ``commodity``, ``spark-like``)."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise CostModelError(
            f"unknown machine {name!r}; presets: {sorted(_REGISTRY)}"
        ) from exc
