"""One resolver for every workload name the experiment matrix accepts.

Cache keys, shard assignments and worker processes all identify a workload
by name alone, so every workload source routes through one name grammar:

* ``trace:<stem>[@<digest12>]`` — replay of a saved trace
  (:mod:`repro.workloads.tracefile`); the canonical form carries the file's
  content digest, making cached results content-addressed to the trace.
* ``zipf:…`` / ``pipeline:…`` / ``lockstorm:…`` — parameterised generators
  (:mod:`repro.workloads.generators`); the canonical form spells out every
  field.
* anything else — a Table 3 benchmark stand-in
  (:mod:`repro.workloads.benchmarks`).

``suite:<name>`` names are *sets*, not single workloads: they are expanded
by :meth:`repro.analysis.sweeps.SweepSpec.resolved_workloads` before
reaching this resolver.
"""

from __future__ import annotations

from repro.workloads.benchmarks import make_benchmark
from repro.workloads.generators import (canonical_generator_name,
                                        is_generator_name, make_generator)
from repro.workloads.trace import Workload
from repro.workloads.tracefile import (canonical_trace_name, is_trace_name,
                                       trace_workload)


def canonical_workload_name(name: str) -> str:
    """Canonicalize a workload name for cache keys and shard assignment.

    Trace names gain their content digest, generator names their full field
    spelling; benchmark names (and unknown names — the resolver reports
    those) pass through unchanged.
    """
    if is_trace_name(name):
        return canonical_trace_name(name)
    if is_generator_name(name):
        return canonical_generator_name(name)
    return name


def make_workload(name: str, num_cores: int = 8, scale: float = 1.0) -> Workload:
    """Build the workload any canonical (or bare) name describes.

    This is the single resolution point worker processes use
    (:func:`repro.analysis.parallel.simulate_cell`), so every name that can
    appear in a cache key must resolve here.

    Raises:
        KeyError: for an unknown benchmark or generator scheme.
        ValueError: for malformed names, digest mismatches or too few cores.
        FileNotFoundError: for a ``trace:`` name with no file behind it.
    """
    if is_trace_name(name):
        return trace_workload(name, num_cores=num_cores)
    if is_generator_name(name):
        return make_generator(name, num_cores=num_cores, scale=scale)
    return make_benchmark(name, num_cores=num_cores, scale=scale)
