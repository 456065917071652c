"""Per-layer tracing from outside the program.

The traced run wraps the public callables of each simulator layer — the
event calendar, the batchers, the step pricer, the cost model, the
memory ledgers, the metrics collector, the scheduling policies and the
disaggregation routers — where the serving loop looks them up: methods
and properties on their classes, and functions in the namespace of the
module that imported them.  Nothing under ``src/`` changes; uninstalling
restores every original attribute.

Each call records an entry and an exit event in flat in-memory arrays;
nothing is written while the simulation runs.  When it is over, the
events pair up into spans (op, start, end, parent, flag).
A span's *self time* is its duration minus the time its child spans
cover (single-threaded, so children never overlap), which makes the
self times of all spans sum to the time spent inside any span; the
rest of the traced wall time is the serving loop's own code.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

#: Span flags, recorded in the exit event.
RAISED = 1      # the call raised
EMPTY = 2       # the call returned an empty result (batcher plans)


@dataclass(frozen=True)
class Op:
    """One wrapped callable: a qualified name and the group it counts in.

    ``group`` is the unit a per-layer metric aggregates over; a call is
    a *boundary call* of its group when its parent span belongs to
    another group (or there is none), which is how calls *into* a layer
    are counted without the layer's internal re-entries.
    """

    name: str
    group: str


def spans_from_events(codes: np.ndarray, times: np.ndarray
                      ) -> dict[str, np.ndarray]:
    """Pair the entry and exit events of properly nested calls.

    ``codes`` holds ``op`` for an entry and ``~(op * 4 + flag)`` for an
    exit.  Returns per-span columns in entry order: ``op``, ``flag``,
    ``start``, ``end`` and ``parent`` (index of the enclosing span,
    ``-1`` at top level).  Events at one nesting level alternate entry,
    exit, so a stable sort by level puts each exit right after its
    entry; a span's parent is the last entry one level up before it.
    """
    entry = codes >= 0
    depth = np.cumsum(np.where(entry, 1, -1))
    level = np.where(entry, depth - 1, depth)
    order = np.argsort(level, kind="stable")
    opens, closes = order[0::2], order[1::2]
    by_start = np.argsort(opens, kind="stable")
    opens, closes = opens[by_start], closes[by_start]
    span_level = level[opens]
    parent = np.full(len(opens), -1, dtype=np.int64)
    for lvl in range(1, int(span_level.max(initial=0)) + 1):
        outer = np.flatnonzero(span_level == lvl - 1)
        inner = np.flatnonzero(span_level == lvl)
        parent[inner] = outer[np.searchsorted(opens[outer], opens[inner]) - 1]
    exit_code = ~codes[closes]
    return {"op": codes[opens], "flag": exit_code % 4,
            "start": times[opens], "end": times[closes], "parent": parent}


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Self time of every span: duration minus its children's durations.

    ``parent[i]`` is the index of span ``i``'s enclosing span, ``-1``
    for a top-level span.  Spans of one thread nest properly, so the
    children of a span cover disjoint parts of it.
    """
    duration = end - start
    child = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


class Tracer:
    """In-memory event recorder plus the wrappers that feed it.

    Each call appends two events, entry and exit, to two flat arrays
    (about 24 bytes per call); spans are paired up only when the run is
    over (:meth:`table`).
    """

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self._op_ids: dict[str, int] = {}
        self.codes = array("q")
        self.times = array("d")
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _op_id(self, name: str, group: str) -> int:
        op_id = self._op_ids.get(name)
        if op_id is None:
            op_id = self._op_ids[name] = len(self.ops)
            self.ops.append(Op(name, group))
        return op_id

    def wrap(self, fn: Callable, name: str, group: str,
             empty: Callable[[object], bool] | None = None) -> Callable:
        """``fn`` recording one span per call under op ``name``."""
        op_id = self._op_id(name, group)
        code, times = self.codes.append, self.times.append
        clock = time.perf_counter
        done, raised, emptied = ~(op_id * 4), ~(op_id * 4 + RAISED), \
            ~(op_id * 4 + EMPTY)

        def traced(*args, **kwargs):
            code(op_id)
            times(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                times(clock())
                code(raised)
                raise
            times(clock())
            code(emptied if empty is not None and empty(result) else done)
            return result

        return traced

    # -- installation --------------------------------------------------
    def patch(self, owner: object, attr: str, name: str, group: str,
              empty: Callable[[object], bool] | None = None) -> None:
        """Replace ``owner.attr`` (function, method or property) with
        its traced form; :meth:`uninstall` puts the original back."""
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, property):
            replacement = property(self.wrap(original.fget, name, group,
                                             empty))
        else:
            replacement = self.wrap(original, name, group, empty)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_hierarchy(self, base: type, attrs: tuple[str, ...],
                        group: str,
                        empty: Callable[[object], bool] | None = None
                        ) -> None:
        """Patch ``attrs`` on ``base`` and every subclass that defines
        them itself (an override must be traced too)."""
        for cls in _class_tree(base):
            for attr in attrs:
                if attr in vars(cls):
                    self.patch(cls, attr, f"{cls.__name__}.{attr}",
                               group, empty)

    def install(self) -> None:
        """Wrap every layer of the serving stack."""
        for module, attr, group in LAYER_FUNCTIONS:
            self.patch(importlib.import_module(module), attr,
                       f"{module.removeprefix('repro.')}.{attr}", group)
        for module, cls_name, attrs, group in LAYER_CLASSES:
            base = getattr(importlib.import_module(module), cls_name)
            self.patch_hierarchy(base, attrs, group,
                                 empty=EMPTY_RESULT.get(group))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- folding -------------------------------------------------------
    def table(self) -> dict[str, dict[str, object]]:
        """Per-op ``calls``, ``boundary_calls``, ``total_s``, ``self_s``,
        and the boundary calls that ``raised`` or returned ``empty``."""
        spans = spans_from_events(np.frombuffer(self.codes, dtype=np.int64),
                                  np.frombuffer(self.times,
                                                dtype=np.float64))
        op, parent, flag = spans["op"], spans["parent"], spans["flag"]
        groups = sorted({o.group for o in self.ops})
        span_group = np.array([groups.index(o.group) for o in self.ops],
                              dtype=np.int64)[op]
        boundary = parent < 0
        boundary[~boundary] = (span_group[parent[~boundary]]
                               != span_group[~boundary])
        n = len(self.ops)

        def per_op(weights: np.ndarray) -> np.ndarray:
            return np.bincount(op, weights=weights, minlength=n)

        columns = zip(
            self.ops, np.bincount(op, minlength=n),
            per_op(boundary.astype(float)),
            per_op((boundary & (flag == RAISED)).astype(float)),
            per_op((boundary & (flag == EMPTY)).astype(float)),
            per_op(spans["end"] - spans["start"]),
            per_op(self_times(spans["start"], spans["end"], parent)))
        return {o.name: {"group": o.group, "calls": int(calls),
                         "boundary_calls": int(inward),
                         "raised": int(raised), "empty": int(empty),
                         "total_s": float(total), "self_s": float(own)}
                for o, calls, inward, raised, empty, total, own
                in columns}


def _class_tree(base: type) -> Iterator[type]:
    seen, todo = set(), [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        todo.extend(cls.__subclasses__())


#: Groups whose results are inspected: an empty batcher plan is wasted
#: planning work.
EMPTY_RESULT: dict[str, Callable[[object], bool]] = {
    "batcher.plan": lambda plan: plan.empty}   # type: ignore[attr-defined]


#: (module, name, group): functions patched in the namespace the serving
#: stack looks them up in.  The cost functions are imported by
#: ``serve.costs``; ``summarise`` by both event loops.
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    *(("repro.serve.costs", fn, "costmodel") for fn in (
        "_projection_seconds", "attention_cost", "decode_attention_cost",
        "boundary_comm_seconds", "norm_seconds", "device_makespans",
        "schedule_parallel", "segment_seconds_from_loads")),
    ("repro.serve.engine", "summarise", "metrics"),
    ("repro.serve.disagg.engine", "summarise", "metrics"),
)

_LEDGER_MUTATE = ("admit", "grow", "release")
_LEDGER_QUERY = ("reserved_bytes", "live_bytes", "pool_utilisation",
                 "kv_tokens", "used_blocks")

#: (module, base class, attributes, group): methods and properties
#: patched on the base class and every subclass that overrides them.
LAYER_CLASSES: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.serve.events", "EventQueue", ("push", "pop", "due", "peek"),
     "events.queue"),
    ("repro.serve.events", "EventManager",
     ("dispatch_due", "advance", "emit"), "events.dispatch"),
    ("repro.serve.batcher", "Batcher", ("plan_step",), "batcher.plan"),
    ("repro.serve.costs", "StepPricer", ("price",), "pricer.price"),
    ("repro.moe.layers", "MoEEngine", ("cost",), "costmodel"),
    ("repro.hw.interconnect", "LinkSpec", ("transfer_seconds",),
     "costmodel"),
    ("repro.moe.memory_model", "MemoryLedger",
     _LEDGER_MUTATE + _LEDGER_QUERY, "ledger"),
    ("repro.moe.memory_model", "DeviceLedgers",
     _LEDGER_MUTATE + _LEDGER_QUERY, "ledger"),
    ("repro.serve.metrics", "MetricsCollector",
     ("observe", "finish", "preempt", "reject"), "metrics"),
    ("repro.serve.scheduling", "AdmissionGate",
     ("admissible", "try_admit", "next_admit_s"), "scheduling.gate"),
    ("repro.serve.scheduling", "SchedulingPolicy",
     ("victim_key", "queue_key"), "scheduling.policy"),
    ("repro.serve.disagg.routers", "RouterPolicy", ("select",),
     "disagg.router"),
)

LEDGER_MUTATE_OPS = frozenset(_LEDGER_MUTATE)
LEDGER_QUERY_OPS = frozenset(_LEDGER_QUERY)
