"""``PlanningEngine.pricing_kernel``'s argument memo changes no count.

A zoo-name call without a predictor remembers the content key its raw
arguments resolved to, and a repeat goes straight to the kernel cache.
The fleet report embeds the ``engine_cache_*`` gauges, so the memo must
be invisible there: every call is still exactly one ``pricing_kernels``
lookup, misses happen exactly where a plain LRU would miss (first use,
after ``clear()``, after an eviction), a hit returns the cached object,
and bad framing raises on every call.

The expected counts come from a reference LRU simulated here, keyed by
what a kernel is made of: (model, resolved structure, framing).
"""

import math
from collections import OrderedDict

import pytest

from repro.core.joint import Structure
from repro.engine import PlanningEngine
from repro.net.channel import DEFAULT_HEADER_BYTES, DEFAULT_SETUP_LATENCY

#: alexnet and vgg16 resolve to LINE under ``auto``; googlenet to FRONTIER,
#: so its ``"line"`` spelling is a different kernel
MODELS = ("alexnet", "googlenet", "vgg16")
DEFAULT_FRAMING = {
    "setup_latency": DEFAULT_SETUP_LATENCY,
    "header_bytes": DEFAULT_HEADER_BYTES,
    "protocol_overhead": 1.05,
}
FRAMINGS = ({}, {"setup_latency": 0.01, "header_bytes": 100.0, "protocol_overhead": 1.1})
SPELLINGS = ("auto", Structure.AUTO, "line")


def _script() -> list[tuple]:
    """Kernel lookups under three spellings, interleaved with the two
    other entry points that make one lookup each, run twice over."""
    calls = []
    for _ in range(2):
        for model in MODELS:
            for framing in FRAMINGS:
                for structure in SPELLINGS:
                    calls.append(("kernel", model, structure, framing))
                calls.append(("priced", model, "auto", framing))
                calls.append(("batch", model, "auto", framing))
    return calls


def _lookups(engine: PlanningEngine) -> tuple[int, int]:
    stats = engine.stats()["pricing_kernels"]
    return stats["hits"], stats["misses"]


class _ReferenceLru:
    """What a plain LRU over kernel contents would hit and miss."""

    def __init__(self, resolver: PlanningEngine, max_entries: int) -> None:
        self.resolver = resolver
        self.max_entries = max_entries
        self.entries: OrderedDict[tuple, object] = OrderedDict()

    def identity(self, model: str, structure, framing: dict) -> tuple:
        chosen = Structure.coerce(structure)
        if chosen is Structure.AUTO:
            chosen = self.resolver.structure_of(model)
        full = {**DEFAULT_FRAMING, **framing}
        return (model, chosen.value, *(full[name] for name in DEFAULT_FRAMING))

    def lookup(self, identity: tuple) -> bool:
        """Touch ``identity``; True when a plain LRU would miss."""
        if identity in self.entries:
            self.entries.move_to_end(identity)
            return False
        self.entries[identity] = None
        if len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)
        return True


def _run(engine: PlanningEngine, reference: _ReferenceLru) -> int:
    """Replay the script on ``engine`` against ``reference``; returns the
    number of lookups it made."""
    for kind, model, structure, framing in _script():
        identity = reference.identity(model, structure, framing)
        expect_miss = reference.lookup(identity)
        hits, misses = _lookups(engine)
        if kind == "kernel":
            kernel = engine.pricing_kernel(model, structure=structure, **framing)
        elif kind == "priced":
            engine.priced_table(model, 8e6, structure=structure, **framing)
            kernel = None
        else:
            engine.plan_batch(model, 5, [4e6, 8e6], structure=structure, **framing)
            kernel = None
        new_hits, new_misses = _lookups(engine)
        assert (new_hits - hits) + (new_misses - misses) == 1, (kind, model, structure)
        assert new_misses - misses == int(expect_miss), (kind, model, structure)
        if kernel is not None:
            known = reference.entries[identity]
            if expect_miss or known is None:
                assert all(kernel is not other for other in reference.entries.values())
                reference.entries[identity] = kernel
            else:
                assert kernel is known  # a hit hands back the cached object
    return len(_script())


@pytest.mark.parametrize("max_entries", [128, 1])
def test_every_call_is_one_lookup_and_misses_match_a_plain_lru(max_entries):
    engine = PlanningEngine(max_entries=max_entries)
    reference = _ReferenceLru(PlanningEngine(), max_entries)
    calls = _run(engine, reference)
    engine.clear()
    reference.entries.clear()
    calls += _run(engine, reference)
    hits, misses = _lookups(engine)
    assert hits + misses == calls
    if max_entries == 1:
        # every change of kernel evicts, so some repeats must miss again
        assert engine.stats()["pricing_kernels"]["evictions"] > 0


def test_a_kernel_evicted_behind_the_memo_is_rebuilt():
    engine = PlanningEngine(max_entries=1)
    first = engine.pricing_kernel("alexnet")
    # plan_batch looks its kernel up by Network object, past the memo,
    # and evicts alexnet's from the one-entry cache
    engine.plan_batch("googlenet", 5, [8e6])
    assert _lookups(engine) == (0, 2)
    again = engine.pricing_kernel("alexnet")
    assert _lookups(engine) == (0, 3)
    assert again is not first
    assert engine.pricing_kernel("alexnet") is again
    assert _lookups(engine) == (1, 3)


def test_a_network_object_and_its_zoo_name_share_one_kernel():
    engine = PlanningEngine()
    by_name = engine.pricing_kernel("googlenet")
    assert engine.pricing_kernel(engine.resolve("googlenet")) is by_name
    assert engine.pricing_kernel("googlenet", structure="frontier") is by_name
    assert engine.pricing_kernel("googlenet") is by_name
    assert _lookups(engine) == (3, 1)


@pytest.mark.parametrize(
    ("framing", "message"),
    [
        ({"setup_latency": math.nan}, "setup_latency must be finite"),
        ({"setup_latency": math.inf}, "setup_latency must be finite"),
        ({"header_bytes": -1.0}, "header_bytes must be >= 0"),
        ({"protocol_overhead": 0.0}, "protocol_overhead must be > 0"),
        ({"protocol_overhead": -1.05}, "protocol_overhead must be > 0"),
    ],
)
def test_bad_framing_raises_on_every_call(framing, message):
    engine = PlanningEngine()
    engine.pricing_kernel("alexnet")
    engine.pricing_kernel("alexnet", structure="line")
    before = _lookups(engine)
    # the same argument objects every time: a memoized bad tuple would hit
    for structure in ("auto", "auto", Structure.AUTO, "line"):
        with pytest.raises(ValueError, match=message):
            engine.pricing_kernel("alexnet", structure=structure, **framing)
    assert _lookups(engine) == before  # a rejected call counts no lookup
