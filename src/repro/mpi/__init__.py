"""Simulated MPI: mpi4py-style communicators with cost accounting.

Backends
--------
:class:`ThreadComm` (via :func:`spmd_run`)
    Real SPMD execution with P thread ranks — validates the distributed
    algorithm logic (partitioned data, partial dot products, Allreduce).
:class:`ProcessComm` (via :func:`process_spmd_run`)
    P forked OS processes over shared-memory slabs — true GIL-free
    parallelism for honest wall-clock overlap measurements.
:class:`VirtualComm`
    Single process standing in for a virtual P (up to the paper's 12,288
    cores) with alpha-beta-gamma cost modelling.

All three implement the blocking collectives *and* the nonblocking
:meth:`Comm.Iallreduce` (returning a :class:`CommRequest`), with honest
overlap accounting: only unoverlapped collective latency is charged.

README's "Paper-figure benchmarks" says why this substitution preserves
the paper's behaviour.
"""

from repro.mpi.comm import Comm, CommRequest
from repro.mpi.ops import LAND, LOR, MAX, MIN, PROD, SUM, Op
from repro.mpi.process_backend import ProcessComm, ProcessWorld, process_spmd_run
from repro.mpi.thread_backend import SpmdResult, ThreadComm, ThreadContext, spmd_run
from repro.mpi.tracing import CommStats, comm_stats
from repro.mpi.virtual_backend import VirtualComm

__all__ = [
    "Op",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "LAND",
    "LOR",
    "Comm",
    "CommRequest",
    "ThreadComm",
    "ThreadContext",
    "spmd_run",
    "SpmdResult",
    "ProcessComm",
    "ProcessWorld",
    "process_spmd_run",
    "VirtualComm",
    "CommStats",
    "comm_stats",
]
