"""Per-layer host-time accounting for the traced benchmark run.

Wrappers are installed from here, around the entry points each layer
lists in ``contract.json``; nothing inside ``src/`` knows about them.
A wrapper pushes a frame on one shared stack, so a layer's self time is
its wrapped time minus the wrapped calls made inside it. Callables the
gateway or the cloud hand to the event engine (grant callbacks, timers)
are wrapped as well, under the layer of the module that handed them
over, so work done at grant time is charged to that layer and not to the
event loop. The event engine's own methods are found on the live engine
object (``type(fleet.engine)``) when a fleet starts running.
"""

from __future__ import annotations

import importlib
import pstats
import sys
import time

LAYERS = (
    "workload",
    "fleet",
    "placement",
    "gateway",
    "cloud",
    "engine",
    "obs",
    "sim",
    "report",
)

#: Module prefix of a caller -> layer its callbacks are charged to.
CALLER_LAYERS = (("repro.serving.", "gateway"), ("repro.cloud.", "cloud"))


def _caller_layer(depth: int) -> str | None:
    module = sys._getframe(depth + 1).f_globals.get("__name__", "")
    for prefix, layer in CALLER_LAYERS:
        if module.startswith(prefix):
            return layer
    return None


def _resolve(spec: str):
    """``"pkg.mod:Class.attr"`` -> ``(owner, attr, original)`` or ``None``."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class LayerTrace:
    """Installs the layer wrappers and accumulates what they measure."""

    def __init__(self, contract: dict) -> None:
        self.specs = {
            layer: [e for e in contract["layers"][layer]["entry_points"] if ":" in e]
            for layer in LAYERS
        }
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: entry -> host seconds in its outermost calls (recursion counted once)
        self.cumulative: dict[str, float] = {}
        #: entry -> the wrapped function, for the cProfile cross-check
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        self.counts = {"grants": 0, "pricings_in_place": 0, "queue_delay_calls": 0}
        self.engines: dict[int, object] = {}
        self.gateways: dict[int, object] = {}
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._hooked: set[type] = set()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every accumulator (the wrappers stay installed)."""
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
        self.cumulative.clear()
        for key in self.counts:
            self.counts[key] = 0
        self.engines.clear()
        self.gateways.clear()

    def install(self) -> None:
        for layer, specs in self.specs.items():
            for spec in specs:
                resolved = _resolve(spec)
                if resolved is None:
                    self.absent.append(spec)
                    continue
                owner, attr, original = resolved
                wrapper = self._wrap(layer, spec, original, self._before(layer, spec))
                self.originals[spec] = original
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                # a module-level function is also bound, by name, in every
                # module that imported it: rebind it everywhere
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") and (
                        getattr(module, attr, None) is original
                    ):
                        setattr(module, attr, wrapper)

    def layer_status(self, layer: str) -> str:
        specs = self.specs[layer]
        if specs and all(spec in self.absent for spec in specs):
            return "absent"
        return "ok" if self.calls[layer] else "idle"

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, entry: str, fn, before=None):
        stack = self._stack
        depth = self._depth
        self_s = self.self_s
        calls = self.calls
        cumulative = self.cumulative
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            depth[entry] = depth.get(entry, 0) + 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                depth[entry] -= 1
                if not depth[entry]:
                    cumulative[entry] = cumulative.get(entry, 0.0) + elapsed

        return wrapper

    def _before(self, layer: str, spec: str):
        attr = spec.rsplit(".", 1)[-1]
        if spec.endswith(":FleetGateway.run"):
            return self._on_fleet_run
        if layer == "engine":
            return self._on_engine
        if layer == "gateway":
            return self._on_gateway
        if attr == "submit":
            return self._callbacks
        if attr == "queue_delay":
            return self._on_queue_delay
        return None

    def _callbacks(self, args, kwargs, depth: int = 2):
        """Wrap callables passed in under the caller's layer.

        ``depth`` counts the frames between this hook and the caller of
        the wrapped entry point.
        """
        layer = _caller_layer(depth)
        if layer is None:
            return args, kwargs
        entry = f"{layer}.callback"

        def wrap(value):
            return self._wrap(layer, entry, value) if callable(value) else value

        # args[0] is the receiving object itself
        return (args[0], *map(wrap, args[1:])), {k: wrap(v) for k, v in kwargs.items()}

    def _on_grant(self, args, kwargs):
        self.counts["grants"] += 1
        return self._callbacks(args, kwargs, 3)

    def _on_engine(self, args, kwargs):
        self.engines[id(args[0])] = args[0]
        if self._stack and self._stack[-1][1] == "placement":
            self.counts["pricings_in_place"] += 1
        return args, kwargs

    def _on_gateway(self, args, kwargs):
        self.gateways[id(args[0])] = args[0]
        return args, kwargs

    def _on_queue_delay(self, args, kwargs):
        self.counts["queue_delay_calls"] += 1
        return args, kwargs

    def _on_fleet_run(self, args, kwargs):
        self._hook_engine(type(args[0].engine))
        return args, kwargs

    def _hook_engine(self, cls: type) -> None:
        """Wrap the live event engine's class and its resource classes."""
        if cls in self._hooked:
            return
        self._hooked.add(cls)
        targets = [(cls, "run", None), (cls, "schedule", self._callbacks)]
        module = sys.modules[cls.__module__]
        targets += [
            (obj, "acquire", self._on_grant)
            for obj in vars(module).values()
            if isinstance(obj, type)
            and obj.__module__ == module.__name__
            and "acquire" in vars(obj)
        ]
        for owner, attr, before in targets:
            entry = f"{owner.__name__}.{attr}"
            original = getattr(owner, attr)
            self.originals[entry] = original
            setattr(owner, attr, self._wrap("sim", entry, original, before))

    # ------------------------------------------------------------------
    def cprofile_rows(self, profiler, wall: float) -> list[dict]:
        """Wrapped cumulative time against cProfile's, per entry point.

        ``check`` marks the entries the comparison is meaningful for:
        those holding at least 2% of the profiled wall time at 20 us or
        more per call. Below that, cProfile's own cost per call, which
        the wrapper's clock sees and cProfile's does not, dominates.
        """
        stats = pstats.Stats(profiler).stats
        rows = []
        for entry, fn in self.originals.items():
            code = getattr(fn, "__code__", None)
            theirs = None if code is None else stats.get(
                (code.co_filename, code.co_firstlineno, code.co_name)
            )
            if theirs is None:
                continue
            ours = self.cumulative.get(entry, 0.0)
            calls, cumulative = theirs[1], theirs[3]
            rows.append(
                {
                    "entry": entry,
                    "traced_s": ours,
                    "cprofile_s": cumulative,
                    "deviation": abs(ours - cumulative) / max(cumulative, 1e-12),
                    "check": ours >= 0.02 * wall and ours / calls >= 20e-6,
                }
            )
        return rows
