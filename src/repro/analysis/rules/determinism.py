"""Rule ``determinism``: no ambient nondeterminism in simulator code.

The simulator's replay guarantee (same trace + same seed = bit-identical
result, run to run and machine to machine) dies the moment simulation code
reads a wall clock, the process environment, or an unseeded RNG.  All
simulated time comes from the engine clock; all randomness flows from an
explicit seed threaded through the workload generators.

Banned inside ``src/repro``:

* wall-clock reads — ``time.time``/``perf_counter``/``monotonic``/
  ``process_time`` (and their ``_ns`` variants), ``datetime.now``/
  ``utcnow``/``today``;
* the global/unseeded RNGs — any ``random.<fn>`` on the stdlib module,
  ``random.Random()`` with no seed, ``random.SystemRandom``, any
  ``numpy.random.<fn>`` legacy global call, and ``default_rng()`` without
  an explicit seed;
* environment reads — ``os.environ`` and ``os.getenv`` (configuration
  enters through constructors, never ambiently).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.names import ImportMap, resolve
from repro.analysis.registry import Module, Rule, register

_WALL_CLOCKS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Seedable constructors: fine exactly when called with an explicit seed.
_SEEDABLE = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
}

# ``os.environ`` itself (including ``os.environ.get``/``[...]``) is caught
# as an attribute access; only the function spelling needs a call entry.
# Host-shape reads (core counts, affinity) are ambient inputs too.
_ENV_READS = {"os.getenv", "os.cpu_count", "os.sched_getaffinity",
               "multiprocessing.cpu_count"}


@register
class DeterminismRule(Rule):
    id = "determinism"
    summary = ("no wall-clock reads, unseeded RNGs or os.environ in "
               "simulator code")
    rationale = (
        "Deterministic replay is a headline guarantee: the same trace and "
        "seed must reproduce every timestamp bit-exactly. Wall clocks, the "
        "process environment and global RNG state are ambient inputs that "
        "silently break it.")

    def check(self, module: Module) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, imports)
            elif isinstance(node, ast.Attribute):
                resolved = resolve(node, imports)
                if resolved == "os.environ":
                    yield self.finding(
                        module, node,
                        "os.environ read — configuration must enter "
                        "through explicit parameters, never ambiently")

    def _check_call(self, module: Module, node: ast.Call,
                    imports: ImportMap) -> Iterable[Finding]:
        resolved = resolve(node.func, imports)
        if resolved is None:
            return
        if resolved in _WALL_CLOCKS:
            yield self.finding(
                module, node,
                f"wall-clock read {resolved}() — simulated time must come "
                "from the engine clock, never the host")
        elif resolved in _ENV_READS:
            yield self.finding(
                module, node,
                f"{resolved}() — environment reads make runs "
                "machine-dependent; take the value as a parameter")
        elif resolved in _SEEDABLE:
            if not node.args and not node.keywords:
                yield self.finding(
                    module, node,
                    f"{resolved}() without an explicit seed — thread the "
                    "workload seed through instead")
        elif resolved == "random.SystemRandom":
            yield self.finding(
                module, node,
                "random.SystemRandom is nondeterministic by design; use a "
                "seeded random.Random or numpy default_rng")
        elif resolved.startswith("random."):
            yield self.finding(
                module, node,
                f"{resolved}() uses the global stdlib RNG — construct a "
                "seeded random.Random(seed) and call that")
        elif resolved.startswith("numpy.random."):
            yield self.finding(
                module, node,
                f"{resolved}() uses numpy's legacy global RNG — use "
                "numpy.random.default_rng(seed)")
