"""Timing wrappers around the library's public functions, one layer per module.

The wrappers live only in the benchmark process: ``Tracer.install`` swaps
them in at every place a caller looks a name up (the defining module, every
module that imported the name, the package namespace, and the class for
methods), and ``Tracer.uninstall`` puts the originals back.  The library
itself carries no instrumentation.

Each call of a wrapped function is one span: (id, parent id, op id, name,
start, end).  Spans stay in memory and are written out when the run ends.
A layer's self time is its spans' durations minus the time covered by their
child spans; the time not covered by any span is the benchmark's own.  A
layer's total time is the duration of its spans entered from outside the
layer, so it includes the other layers it calls (the eliminations that
cocharacter_filtration runs count in varieties.total_s, and in
linalg.self_s, not in varieties.self_s).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("linalg", "filtration", "rees", "gl2", "varieties", "homspaces", "characters")

# Per-entry coercions and accessors of stored data.  They run millions of
# times per round and do no work of their own; a span around each would cost
# more than the call, so their time stays with the calling span.
UNTRACED = {
    "linalg": {"frac", "vector", "at", "row", "row_list", "dim", "is_full"},
    "filtration": {"at", "jumps", "dimension", "total"},
}

# Arithmetic dunders of the matrix type are layer work, not accessors.
TRACED_DUNDERS = {"__matmul__", "__add__", "__sub__"}

ELIMINATIONS = {"linalg.rref", "linalg.rank", "linalg.kernel"}
HOM_SOLVES = {"linalg.rank", "linalg.kernel"}


def _public_callables(module):
    """(owner, attribute, function, qualified name) for every public function
    defined in the module and every public method of its public classes."""
    layer = module.__name__.rsplit(".", 1)[1]
    skip = UNTRACED.get(layer, set())
    out = []
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or name in skip or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in list(vars(obj).items()):
                if attr in skip or (attr.startswith("_") and attr not in TRACED_DUNDERS):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    out.append((obj, attr, raw, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Span recorder plus the counters read at layer boundaries."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._stack: list[list] = []  # [span id, layer, name, child time]
        self._saved: list[tuple] = []
        self._hom_systems: list[tuple] = []  # (matrix, rank) since the last settle
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s = dict.fromkeys(LAYERS, 0.0)
        self.linalg_calls = 0
        self.spanned_s = 0.0
        self.elim_cells = 0
        self.op_entries = 0
        self.filtration_calls = 0
        self.oracle_calls = 0
        self.systems = self.system_rows = self.system_vars = self.system_cells = 0
        self.system_nnz = self.system_rank = 0

    def settle(self) -> None:
        """Fold the Hom systems seen so far into the shape counters.  Call it
        between passes: counting nonzeros is not part of any span."""
        for m, rank in self._hom_systems:
            self.systems += 1
            self.system_rows += m.rows
            self.system_vars += m.cols
            self.system_cells += m.rows * m.cols
            self.system_nnz += sum(1 for x in m.entries if x != 0)
            self.system_rank += rank
        self._hom_systems = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")]
        for layer in LAYERS:
            for owner, attr, raw, qual in _public_callables(getattr(self.package, layer)):
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(layer, qual, raw.__func__))
                else:
                    wrapped = self._wrap(layer, qual, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                if inspect.isfunction(raw):
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is raw and mod is not owner:
                                self._saved.append((mod, name, raw))
                                setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def _wrap(self, layer: str, qual: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            frame = [sid, layer, qual, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent[0] if parent else None, self.op, qual, start, end)
                duration = end - start
                self.self_s[layer] += duration - frame[3]
                if parent is None or parent[1] != layer:
                    self.total_s[layer] += duration
                if parent is None:
                    self.spanned_s += duration
                else:
                    parent[3] += duration
            self._count(layer, qual, parent, args, result)
            return result

        return wrapper

    def _count(self, layer, qual, parent, args, result) -> None:
        if layer == "linalg":
            self.linalg_calls += 1
        if qual in ELIMINATIONS and (parent is None or parent[2] not in ELIMINATIONS):
            self.elim_cells += args[0].rows * args[0].cols
        if qual in HOM_SOLVES and parent is not None and parent[1] == "homspaces":
            m = args[0]
            rank = result if qual == "linalg.rank" else m.cols - result.dim()
            self._hom_systems.append((m, rank))
        if layer == "gl2" and (parent is None or parent[1] != "gl2") and hasattr(result, "action_ops"):
            self.op_entries += len(result.action_ops) * result.dim * result.dim
        if qual == "varieties.cocharacter_filtration":
            self.filtration_calls += 1
        if qual == "characters.oracle_multiplicity":
            self.oracle_calls += 1

    # ------------------------------------------------------------ report

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass means of the counters, after ``passes`` traced passes."""
        self.settle()
        out = {f"{layer}.self_s": self.self_s[layer] / passes for layer in LAYERS}
        out.update({f"{layer}.total_s": self.total_s[layer] / passes for layer in LAYERS})
        out.update(
            {
                "linalg.calls": self.linalg_calls / passes,
                "linalg.elim_cells": self.elim_cells / passes,
                "gl2.op_entries": self.op_entries / passes,
                "varieties.filtration_calls": self.filtration_calls / passes,
                "homspaces.systems": self.systems / passes,
                "homspaces.system_rows": self.system_rows / passes,
                "homspaces.system_vars": self.system_vars / passes,
                "homspaces.nnz_ratio": self.system_nnz / self.system_cells if self.system_cells else 0.0,
                "homspaces.rank_row_ratio": self.system_rank / self.system_rows if self.system_rows else 0.0,
                "characters.oracle_calls": self.oracle_calls / passes,
            }
        )
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
