"""Layer spans recorded from outside the program.

The tracer wraps the public entry points of each layer of ``repro`` for the
duration of one traced phase and restores the originals afterwards; nothing
under ``src/`` is edited.  A wrapper is bound everywhere a caller looks the
name up: functions are replaced in every ``repro`` module that imported
them by name (``repro.clique.model`` and ``repro.faults.protocol`` import
the routing, width and stripe functions that way), and methods are
replaced on every class of the hierarchy that defines them (the fault
layer's ``EncodedClique`` overrides the collectives).

A span's *self time* is its duration minus the duration of the spans it
encloses.  A call is counted for a layer only when the enclosing span
belongs to another layer, so a collective that delegates to another
collective (or a subclass override calling ``super()``) counts once.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: (layer, module, qualified name) of every wrapped entry point.  A dotted
#: name ``Class.method`` wraps the method on that class and every subclass
#: that overrides it.
LAYER_ENTRY_POINTS = (
    ("clique.executor", "repro.clique.executor", "LocalExecutor.semiring_products"),
    ("clique.executor", "repro.clique.executor", "LocalExecutor.ring_products"),
    (
        "clique.executor",
        "repro.clique.executor",
        "LocalExecutor.boolean_packed_products",
    ),
    ("matmul", "repro.matmul.semiring3d", "semiring_matmul"),
    ("matmul", "repro.matmul.semiring3d", "strip_product_with_witness"),
    ("matmul", "repro.matmul.bilinear_clique", "bilinear_matmul"),
    *(
        ("clique.model", "repro.clique.model", f"CongestedClique.{name}")
        for name in (
            "broadcast",
            "send",
            "route",
            "broadcast_rows",
            "route_array",
            "route_array_take",
            "send_array",
            "scatter_blocks",
            "gather_blocks",
            "allgather_rows",
            "transpose_array",
            "transpose",
            "allgather_records",
        )
    ),
    ("clique.routing", "repro.clique.routing", "flatten_array_batch"),
    ("clique.routing", "repro.clique.routing", "analyze_array"),
    ("clique.routing", "repro.clique.routing", "analyze"),
    ("clique.routing", "repro.clique.routing", "deliver_array"),
    ("clique.routing", "repro.clique.routing", "deliver_array_flat"),
    ("clique.routing", "repro.clique.routing", "deliver"),
    ("clique.messages", "repro.clique.messages", "block_widths"),
    ("clique.accounting", "repro.clique.accounting", "MeterStack.charge"),
    ("clique.scheduling", "repro.clique.scheduling", "relay_schedule"),
    ("clique.scheduling.build", "repro.clique.scheduling", "colour_into_matchings"),
    ("faults.coding.encode", "repro.faults.coding", "encode_stripes"),
    ("faults.coding.decode", "repro.faults.coding", "decode_stripes"),
    ("netsim.transport", "repro.netsim.transport", "TransportMeter.observe"),
    ("serve.app", "repro.serve.app", "BatchingServer._flush"),
    ("serve.query", "repro.serve.query", "QueryEngine.dist_batch"),
    ("serve.query", "repro.serve.query", "QueryEngine.path_batch"),
    ("serve.query", "repro.serve.query", "QueryEngine.ecc_batch"),
    ("serve.delta", "repro.serve.delta", "apply_edge_updates"),
    ("serve.artifact", "repro.serve.artifact", "ClosureArtifact.commit_update"),
)

#: Layers whose self time is reported; ``engine`` is the root span the
#: benchmark opens around each pass (workload glue outside every layer).
LAYERS = (
    "engine",
    "clique.executor",
    "matmul",
    "clique.model",
    "clique.routing",
    "clique.messages",
    "clique.accounting",
    "clique.scheduling",
    "clique.scheduling.build",
    "faults.coding.encode",
    "faults.coding.decode",
    "netsim.transport",
    "serve.app",
    "serve.query",
    "serve.delta",
    "serve.artifact",
)


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """In-memory span recorder: per-layer self seconds, counts and spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def enter(self, layer: str) -> None:
        parent = self._stack[-1].layer if self._stack else None
        if parent != layer:
            self.calls[layer] += 1
        self._stack.append(_Frame(layer, time.perf_counter()))

    def exit(self) -> None:
        frame = self._stack.pop()
        duration = time.perf_counter() - frame.start
        self.self_s[frame.layer] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration

    def span(self, layer: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_ENTRY_POINTS`."""
        for layer, module_name, qualname in LAYER_ENTRY_POINTS:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            if "." in qualname:
                class_name, method = qualname.split(".")
                for cls in _subclasses(getattr(module, class_name)):
                    if method in vars(cls):
                        self._set(cls, method, self._wrap(layer, vars(cls)[method]))
                continue
            original = getattr(module, qualname)
            traced = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and getattr(
                    mod, qualname, None
                ) is original:
                    self._set(mod, qualname, traced)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every (transitively) imported subclass of it."""
    seen = [cls]
    for klass in seen:
        for sub in klass.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen
