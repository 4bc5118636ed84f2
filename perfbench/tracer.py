"""Per-layer tracing of polarkit from outside the package.

While a ``Tracer`` is active it replaces chosen module-level names in every
``polarkit`` module with timing wrappers, and it puts the originals back when
it is deactivated.  Nothing inside ``src/polarkit`` knows about it: internal
calls such as ``SCDecoder`` calling ``f_node`` go through the module globals,
so they hit the wrappers too.  Spans nest through a stack, so each span's self
time is its duration minus the time of the traced spans it called.

Only the current process is traced.  Work a ``multiprocessing`` pool runs in
worker processes is seen whole, inside the span that started the pool.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("core", "construction", "decoders", "montecarlo", "evolution",
           "puncturing", "cli")

# span name -> (module, attribute).  Span names are "<layer>.<function>".
FUNCTIONS = {
    "core.encode": ("core", "encode"),
    "core.bit_reversal_permutation": ("core", "bit_reversal_permutation"),
    "construction.ga_llr_means": ("construction", "ga_llr_means"),
    "decoders.f_node": ("decoders", "f_node"),
    "decoders.g_node": ("decoders", "g_node"),
    "decoders.crc16_remainder_bits": ("decoders", "crc16_remainder_bits"),
    "montecarlo.channel_llrs": ("montecarlo", "channel_llrs"),
    "montecarlo.simulate": ("montecarlo", "simulate"),
    "montecarlo.objective": ("montecarlo", "objective"),
    "evolution.de_optimize": ("evolution", "de_optimize"),
    "evolution.init_population": ("evolution", "init_population"),
    "evolution.make_trial": ("evolution", "make_trial"),
    "puncturing.qup_pattern": ("puncturing", "qup_pattern"),
    "puncturing.vector_to_pattern": ("puncturing", "vector_to_pattern"),
    "puncturing.load_pattern": ("puncturing", "load_pattern"),
    "puncturing.save_pattern": ("puncturing", "save_pattern"),
}

# Decoder classes are wrapped by a subclass whose ``decode`` is a span.
DECODERS = {
    "decoders.SCDecoder.decode": ("decoders", "SCDecoder"),
    "decoders.SCLDecoder.decode": ("decoders", "SCLDecoder"),
}


def _items(name, args, result) -> int:
    """Work items a span processed, for the spans that count any."""
    if name in ("decoders.f_node", "decoders.g_node"):
        return int(np.size(args[0]))
    if name == "montecarlo.simulate":
        return result.trials
    if name == "montecarlo.objective":
        return int(result[1] == 0.0)  # Monte Carlo runs that scored zero
    return 0


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Tracer:
    """Span totals per name, collected while the tracer is entered with ``with``."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._child_time: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> dict[str, Stat]:
        """Return the totals collected so far and start new ones."""
        stats, self.stats = self.stats, {}
        return stats

    def _call(self, name, fn, args, kwargs):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            stat = self.stats.setdefault(name, Stat())
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - child
        stat.items += _items(name, args, result)
        return result

    def _function_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _decoder_wrapper(self, name, cls):
        tracer = self

        class Traced(cls):
            def decode(self, llrs):
                return tracer._call(name, super().decode, (llrs,), {})
        return Traced

    def __enter__(self):
        modules = [importlib.import_module("polarkit")] + [
            importlib.import_module(f"polarkit.{m}") for m in MODULES]
        replace = {}
        for name, (mod, attr) in FUNCTIONS.items():
            fn = getattr(importlib.import_module(f"polarkit.{mod}"), attr)
            replace[id(fn)] = (fn, self._function_wrapper(name, fn))
        for name, (mod, attr) in DECODERS.items():
            cls = getattr(importlib.import_module(f"polarkit.{mod}"), attr)
            replace[id(cls)] = (cls, self._decoder_wrapper(name, cls))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        return False


def merge(*parts: dict[str, Stat]) -> dict[str, Stat]:
    out: dict[str, Stat] = {}
    for part in parts:
        for name, s in part.items():
            o = out.setdefault(name, Stat())
            o.calls += s.calls
            o.total_s += s.total_s
            o.self_s += s.self_s
            o.items += s.items
    return out


def layer_metrics(stats: dict[str, Stat], points: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced unit of work, as name -> (value, unit).

    ``points`` is the number of SNR points the unit's evaluate call wrote.
    """
    def st(name):
        return stats.get(name, Stat())

    def layer_self(layer):
        return sum((s.self_s for n, s in stats.items() if n.startswith(layer + ".")), 0.0)

    sim, scl, ga = st("montecarlo.simulate"), st("decoders.SCLDecoder.decode"), \
        st("construction.ga_llr_means")
    candidates = st("puncturing.vector_to_pattern").calls
    mc_runs = st("montecarlo.objective").calls
    return {
        "decoders.scl_s": (scl.total_s, "s"),
        "decoders.scl_self_s": (scl.self_s, "s"),
        "decoders.crc_s": (st("decoders.crc16_remainder_bits").total_s, "s"),
        "decoders.sc_s": (st("decoders.SCDecoder.decode").total_s, "s"),
        "decoders.f_node_s": (st("decoders.f_node").total_s, "s"),
        "decoders.g_node_s": (st("decoders.g_node").total_s, "s"),
        "decoders.f_node_elems": (st("decoders.f_node").items, "count"),
        "decoders.g_node_elems": (st("decoders.g_node").items, "count"),
        "montecarlo.simulate_calls": (sim.calls, "count"),
        "montecarlo.simulate_s": (sim.total_s, "s"),
        "montecarlo.self_s": (sim.self_s, "s"),
        "montecarlo.channel_s": (st("montecarlo.channel_llrs").total_s, "s"),
        "montecarlo.frames_per_s": (sim.items / sim.total_s if sim.total_s else 0.0, "1/s"),
        "construction.ga_calls": (ga.calls, "count"),
        "construction.ga_s": (ga.total_s, "s"),
        "construction.ga_ms_per_call": (1e3 * ga.total_s / ga.calls if ga.calls else 0.0, "ms"),
        "core.encode_s": (st("core.encode").total_s, "s"),
        "core.bitrev_calls": (st("core.bit_reversal_permutation").calls, "count"),
        "evolution.self_s": (layer_self("evolution"), "s"),
        "evolution.candidates": (candidates, "count"),
        "evolution.mc_runs": (mc_runs, "count"),
        "evolution.cache_hit_ratio": (1 - mc_runs / candidates if candidates else 0.0, "ratio"),
        "evolution.zero_objective_ratio": (
            st("montecarlo.objective").items / mc_runs if mc_runs else 0.0, "ratio"),
        "puncturing.total_s": (sum((s.total_s for n, s in stats.items()
                                    if n.startswith("puncturing.")), 0.0), "s"),
        "cli.points": (points, "count"),
        "cli.simulate_calls_per_point": (sim.calls / points if points else 0.0, "count"),
    }
