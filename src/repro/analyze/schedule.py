"""Static collective-schedule model + extraction for the SA solvers.

Two halves, cross-validated against each other and against runtime:

1. **Schedule model** — :func:`expected_schedule` generates, from solver
   parameters alone, the exact per-rank collective sequence (op +
   payload shape class, as ``"op:shape"`` keys matching
   :class:`repro.mpi.tracing.TraceEvent.key`) each solver family
   executes in each mode ``{blocking, pipeline, async tau}``. This is
   the SPMD contract written down: every rank must produce exactly this
   sequence, or the world deadlocks.
2. **Static extraction** — :func:`static_alphabet` partial-evaluates the
   AST of :func:`repro.solvers.outer.run_sa` (every SA solve runs it)
   against the mode flags (``async_``/``pipeline``) and closes over a
   name-based call graph of the solver/linalg layers, resolving method
   names on the family's state class first, yielding the set of
   collective ops reachable in that mode. Branches
   whose tests cannot be decided statically contribute both sides, so
   extraction **over-approximates**: every op the runtime can execute is
   in the alphabet (``runtime ⊆ static``), and mode flags that are
   decidable (``async_=False`` kills the async arm) tighten it enough to
   prove e.g. that the blocking path can never post an ``Iallreduce``.

``tests/test_analyze_schedule.py`` closes the loop: the model sequence
must equal the recorded runtime trace event-for-event (virtual and
thread backends), and the runtime ops must be contained in the static
alphabet. A collective added, dropped, or reordered in the source shows
up as a test diff instead of a hang.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "MODES",
    "FAMILIES",
    "ScheduleParams",
    "outer_chunks",
    "expected_schedule",
    "static_alphabet",
]

MODES = ("blocking", "pipeline", "async")
FAMILIES = ("lasso-plain", "lasso-acc", "svm")

#: trace keys (``op:shape``) of the primitive schedule events
AR_SCALAR = "allreduce:scalar"  # LassoState.exchange, one record
AR_WORDS = "allreduce:vec"  # LassoState.exchange, several records
AR_VEC = "Allreduce:vec"  # packed Gram+projection
NB_VEC = "Iallreduce:vec"  # GramPipeline.post
AG_VEC = "Allgather:vec"  # sum_and_gather

#: the records no Gram reduction carries ride one closing exchange
#: (``fam.exchange``), keyed here for one record and for several: the
#: Lasso objectives' words in one allreduce (a scalar one for a single
#: record), the SVM duality gaps' stacked partials in one Allgather
#: (sum_and_gather), which also gathers the primal the result returns
_UNCARRIED = {"lasso-plain": (AR_SCALAR, AR_WORDS),
              "lasso-acc": (AR_SCALAR, AR_WORDS), "svm": (AG_VEC, AG_VEC)}

#: static extraction roots: the SA loop every family runs, and each
#: family's state class, on which its hook calls resolve
_ENTRY = ("solvers/outer.py", "run_sa")
_ROOTS = {"lasso-plain": "PlainState", "lasso-acc": "AccState", "svm": "SvmState"}

#: packages (relative to the ``repro`` package root) whose function defs
#: feed the call-graph index. The mpi backends are deliberately
#: excluded: generic method names there (``wait``, ``record``) would
#: collide with solver-layer names and pollute the alphabets — and the
#: public collectives are exactly the call boundary the schedule is
#: defined over.
_INDEX_ROOTS = ("solvers", "linalg", "prox", "utils", "checkpoint.py")


@dataclass(frozen=True)
class ScheduleParams:
    """Solver parameters that determine the collective schedule."""

    max_iter: int
    s: int = 8
    record_every: int = 1
    tau: int = 1

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")


def outer_chunks(max_iter: int, s: int) -> list[int]:
    """Outer-step sizes: ``min(s, remaining)`` until ``max_iter``."""
    sizes: list[int] = []
    done = 0
    while done < max_iter:
        sizes.append(min(s, max_iter - done))
        done += sizes[-1]
    return sizes


def _schedule(mode: str, params: ScheduleParams, uncarried) -> list[str]:
    """One solve's sequence under :class:`repro.solvers.outer.Checks`.

    Records fall at iteration 0 and at outer-step boundaries that cross a
    multiple of ``record_every``, and ride the next Gram reduction as a
    tail (same op, same shape class; a tail that would overflow the
    communicator's slot syncs on its own, which these models leave out).
    The final iterate's record, and the records of the async schedule's
    last ``tau`` outer steps, which no later reduction follows, ride one
    closing exchange: ``uncarried[0]`` for one record, ``uncarried[1]``
    for several.
    """
    chunks = outer_chunks(params.max_iter, params.s)
    post = AR_VEC if mode == "blocking" else NB_VEC
    # reductions in flight before the first inner loop; every later one
    # is posted right after a boundary
    ahead = min((params.tau if mode == "async" else 0) + 1, len(chunks))
    every = params.record_every
    closing = 1  # the final iterate's record
    done = last = 0
    for i, s_eff in enumerate(chunks):
        done += s_eff
        if every and done < params.max_iter and done // every != last // every:
            last = done
            closing += ahead + i >= len(chunks)
    return [post] * len(chunks) + [uncarried[closing > 1]]


def expected_schedule(
    family: str, mode: str, params: ScheduleParams
) -> list[str]:
    """The exact per-rank collective sequence of one solver run.

    Assumes the run neither converges early (``tol=None``), checkpoints,
    nor resumes — the regime the cross-check tests pin down. Keys match
    :meth:`repro.mpi.tracing.CollectiveTracer.keys`.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {FAMILIES}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    return _schedule(mode, params, _UNCARRIED[family])


# -- static extraction -------------------------------------------------------

_COLLECTIVES = frozenset(
    {
        "allreduce", "bcast", "barrier", "allgather", "gather", "scatter",
        "reduce", "Allreduce", "Bcast", "Reduce", "Allgather", "Iallreduce",
    }
)
#: names too generic to treat as collectives when called bare
_AMBIGUOUS_BARE = frozenset(
    {"gather", "scatter", "reduce", "allgather", "allreduce", "bcast", "barrier"}
)


def _package_root() -> str:
    # .../src/repro/analyze/schedule.py -> .../src/repro
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _call_name(node: ast.Call) -> str | None:
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return None


def _direct_ops(node: ast.Call) -> str | None:
    name = _call_name(node)
    if name is None or name not in _COLLECTIVES:
        return None
    if isinstance(node.func, ast.Name) and name in _AMBIGUOUS_BARE:
        return None
    return name


def _shallow_calls(root: ast.AST) -> tuple[set[str], set[str]]:
    """(direct collective ops, callee names) without entering nested defs.

    A bare name passed as an argument, or picked by a conditional
    expression, counts as a callee too: a function handed on (a sink, or
    ``inner = _sa_outer_fast if self.fast else _sa_outer_naive``) is
    called under another name, so treating it as called keeps the
    closure an over-approximation.
    """
    ops: set[str] = set()
    callees: set[str] = set()
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            op = _direct_ops(node)
            if op is not None:
                ops.add(op)
            else:
                name = _call_name(node)
                if name is not None:
                    callees.add(name)
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                if isinstance(arg, ast.Name):
                    callees.add(arg.id)
        elif isinstance(node, ast.IfExp):
            for side in (node.body, node.orelse):
                if isinstance(side, ast.Name):
                    callees.add(side.id)
        stack.extend(ast.iter_child_nodes(node))
    return ops, callees


@lru_cache(maxsize=1)
def _call_index() -> tuple[dict, dict]:
    """``(functions, classes)`` over the indexed packages: function name
    -> (direct collective ops, callee names), merged over all same-named
    defs; class name -> (base class names, method name -> entry)."""
    funcs: dict[str, tuple[set[str], set[str]]] = {}
    classes: dict[str, tuple[list[str], dict]] = {}
    base = _package_root()
    files: list[str] = []
    for rel in _INDEX_ROOTS:
        p = os.path.join(base, rel)
        if os.path.isfile(p):
            files.append(p)
            continue
        for root, dirs, names in os.walk(p):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            files.extend(
                os.path.join(root, n) for n in names if n.endswith(".py")
            )
    for path in sorted(files):
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ops, callees = _shallow_calls(node)
                old_ops, old_callees = funcs.get(node.name, (set(), set()))
                funcs[node.name] = (old_ops | ops, old_callees | callees)
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = (
                    [b.id for b in node.bases if isinstance(b, ast.Name)],
                    {m.name: _shallow_calls(m) for m in node.body
                     if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))},
                )
    return {
        name: (frozenset(ops), frozenset(callees))
        for name, (ops, callees) in funcs.items()
    }, classes


def _methods(cls: str, classes: dict) -> dict:
    """``cls``'s methods, inherited ones included (nearest def wins)."""
    bases, own = classes[cls]
    table: dict = {}
    for base in reversed(bases):
        if base in classes:
            table.update(_methods(base, classes))
    table.update(own)
    return table


def _tri_eval(test: ast.AST, env: dict[str, bool]):
    """Three-valued test evaluation: True / False / None (unknown)."""
    if isinstance(test, ast.Name):
        return env.get(test.id)
    if isinstance(test, ast.Constant):
        return bool(test.value)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _tri_eval(test.operand, env)
        return None if inner is None else not inner
    if isinstance(test, ast.BoolOp):
        vals = [_tri_eval(v, env) for v in test.values]
        if isinstance(test.op, ast.And):
            if any(v is False for v in vals):
                return False
            if all(v is True for v in vals):
                return True
            return None
        if any(v is True for v in vals):
            return True
        if all(v is False for v in vals):
            return False
        return None
    return None


def _visit_stmts(
    stmts: list[ast.stmt],
    env: dict[str, bool],
    ops: set[str],
    callees: set[str],
    local_defs: dict[str, tuple[set[str], set[str]]],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            val = _tri_eval(stmt.test, env)
            if val is not False:
                _visit_stmts(stmt.body, env, ops, callees, local_defs)
            if val is not True:
                _visit_stmts(stmt.orelse, env, ops, callees, local_defs)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested helper: index it locally so calls to it resolve
            # ahead of any same-named global
            local_defs[stmt.name] = _shallow_calls(stmt)
            continue
        # _shallow_calls walks the whole statement except nested defs, so
        # only If needs special casing (partial eval); mode-undecidable
        # Ifs nested inside loops/with/try contribute both sides, which
        # is the safe over-approximation.
        s_ops, s_callees = _shallow_calls(stmt)
        ops |= s_ops
        callees |= s_callees


def static_alphabet(family: str, mode: str) -> set[str]:
    """Collective ops statically reachable in one solver mode.

    Partial-evaluates ``run_sa``'s mode conditionals
    (``async_``/``pipeline``) and closes transitively over the
    solver/linalg call graph, resolving the family's hooks and methods
    on its own state class before any same-named function.
    Over-approximates (undecidable branches contribute both sides): the
    runtime trace's op set is always a subset of this alphabet.
    """
    if family not in _ROOTS:
        raise ValueError(f"unknown family {family!r}; known: {FAMILIES}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    env = {"async_": mode == "async", "pipeline": mode == "pipeline"}

    rel, func = _ENTRY
    path = os.path.join(_package_root(), rel)
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    root = None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == func:
            root = node
            break
    if root is None:
        raise ValueError(f"{rel} has no top-level function {func!r}")

    ops: set[str] = set()
    callees: set[str] = set()
    local_defs: dict[str, tuple[set[str], set[str]]] = {}
    _visit_stmts(root.body, env, ops, callees, local_defs)

    funcs, classes = _call_index()
    methods = _methods(_ROOTS[family], classes)
    seen: set[str] = set()
    work = list(callees)
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        entry = local_defs.get(name) or methods.get(name) or funcs.get(name)
        if entry is None:
            continue
        e_ops, e_callees = entry
        ops |= set(e_ops)
        work.extend(e_callees)
    return ops
