"""Host-time spans recorded from outside the program.

The traced run wraps the program's public entry points from here — the
kernel's ``run_until``/``tick``, the flat mesh core's ``step``/
``commit``, the flat tile core's ``step``, every tile's
``handle_message``, every function and method of ``repro.packet``, and
the TCP peers' ``step`` — plus the benchmark's own client and tap.
Each call becomes one span (name, parent span, simulated cycle, start,
end), kept in flat arrays in memory and written out when the run ends.
A layer's self time is its spans' durations minus the time their child
spans cover.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

#: Span name prefix -> layer.  Anything not listed is the benchmark's.
LAYERS = ("sim", "noc", "tiles", "packet", "tcp", "bench")
CHECKSUM_SPAN = "packet.internet_checksum"


class SpanTrace:
    """Spans of one traced episode."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.cycle = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._checksum_bytes = [0]
        self._sim = None

    @property
    def checksum_bytes(self) -> int:
        return self._checksum_bytes[0]

    def __len__(self) -> int:
        return len(self.name)

    # -- recording ------------------------------------------------------

    def _wrap(self, span: str, fn):
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
        names, parents, cycles = self.name, self.parent, self.cycle
        starts, ends, stack = self.start, self.end, self._stack
        sim = self._sim
        counted = self._checksum_bytes if span == CHECKSUM_SPAN else None

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            cycles.append(sim.cycle)
            ends.append(0.0)
            if counted is not None:
                counted[0] += len(args[0])
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_instance(self, obj, attr: str, span: str) -> None:
        setattr(obj, attr, self._wrap(span, getattr(obj, attr)))

    def _patch_raw(self, owner, attr: str, span: str) -> None:
        """Wrap a function, classmethod or staticmethod stored on a class
        or module, restoring the stored object on :meth:`uninstall`."""
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._wrap(span, raw.__func__))
        else:
            patched = self._wrap(span, raw)
        setattr(owner, attr, patched)
        self._restore.append((owner, attr, raw))

    def install(self, design, load) -> None:
        """Wrap the entry points of one freshly built design."""
        sim = self._sim = design.sim
        self._patch_instance(sim, "run_until", "sim.run_until")
        self._patch_instance(sim, "tick", "sim.tick")
        core = getattr(design.mesh, "core", None)
        if core is not None:
            self._patch_instance(core, "step", "noc.step")
            self._patch_instance(core, "commit", "noc.commit")
        if design.tile_core is not None:
            self._patch_instance(design.tile_core, "step", "tiles.step")
        for tile in design.tiles:
            self._patch_instance(tile, "handle_message",
                                 "tiles.handle_message")
        for obj, attr, span in load.spans():
            self._patch_instance(obj, attr, span)
        self._patch_instance(load, "is_done", "bench.is_done")
        self._patch_packet()

    def _patch_packet(self) -> None:
        """Wrap every function and method ``repro.packet`` defines,
        wherever a module has bound it by name."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        packet = [m for m in modules if m.__name__.startswith("repro.packet")]
        functions = {}
        for module in packet:
            for name, value in vars(module).items():
                if inspect.isfunction(value) and \
                        value.__module__ == module.__name__:
                    functions[value] = f"packet.{name}"
                elif inspect.isclass(value) and \
                        value.__module__ == module.__name__:
                    self._patch_class(value)
        for module in modules:
            for name, value in list(vars(module).items()):
                span = functions.get(value) if inspect.isfunction(value) \
                    else None
                if span is not None:
                    self._patch_raw(module, name, span)

    def _patch_class(self, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__init__":
                continue
            func = getattr(raw, "__func__", raw)
            if inspect.isfunction(func):
                self._patch_raw(cls, attr, f"packet.{cls.__name__}.{attr}")

    def uninstall(self) -> None:
        """Restore every class and module patch (instance patches die
        with their design)."""
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict[str, list]:
        """``{span name: [calls, total_s, self_s]}``."""
        n = len(self.name)
        child = [0.0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        names = self.names
        for i, nid in enumerate(self.name):
            duration = ends[i] - starts[i]
            row = out[names[nid]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return dict(out)

    @staticmethod
    def layer_of(span: str) -> str:
        layer = span.split(".", 1)[0]
        return layer if layer in LAYERS else "bench"

    def write(self, path_stem: str) -> None:
        """Write the spans as flat binary arrays plus a JSON index."""
        columns = {"name": self.name, "parent": self.parent,
                   "cycle": self.cycle, "start": self.start,
                   "end": self.end}
        index = {"spans": len(self.name), "names": self.names,
                 "byteorder": sys.byteorder, "columns": []}
        with open(f"{path_stem}.bin", "wb") as out:
            for column, values in columns.items():
                index["columns"].append(
                    {"name": column, "typecode": values.typecode,
                     "itemsize": values.itemsize})
                values.tofile(out)
        with open(f"{path_stem}.json", "w") as out:
            json.dump(index, out, indent=1)
