"""Layer map of ``src/repro`` and the fold of a cProfile pass into layers.

A layer is named after the ``repro`` modules it holds.  Every source file
maps to exactly one layer: by its own path where the table names the file,
else by the package directory it sits in.  A package directory the table
does not name is an error, so a new subpackage cannot silently land in a
neighbour's numbers.

Self time (``tottime``) of a ``repro`` function is charged to its layer.
Self time of anything else -- builtins, the standard library -- is charged
to whichever layers called it, along the caller edges cProfile records, so
a ``dict.get`` issued by a protocol controller counts as protocol time.
"""

from __future__ import annotations

import posixpath
from pathlib import Path
from typing import Dict, Optional, Tuple

#: The layers the traced pass reports, in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.system",
    "cpu",
    "memsys",
    "interconnect",
    "protocols.base",
    "protocols.mesi",
    "protocols.msi",
    "protocols.moesi",
    "protocols.tsocc",
    "protocols.broadcast",
    "workloads",
    "consistency",
    "analysis",
)

#: Layer of the command-line entry points and the ``repro bench`` harness.
#: The benchmark never calls them inside a traced pass (their import cost
#: is part of ``setup_s``), so the layer has no per-layer metrics.
ENTRY_LAYER = "cli"

#: Files whose layer differs from their package's.
_FILE_LAYERS: Dict[str, str] = {
    "sim/simulator.py": "sim.engine",
}

#: Package directory (relative to ``repro/``) -> layer.
_DIR_LAYERS: Dict[str, str] = {
    "": ENTRY_LAYER,
    "perf": ENTRY_LAYER,
    "sim": "sim.system",
    "cpu": "cpu",
    "memsys": "memsys",
    "interconnect": "interconnect",
    "protocols": "protocols.base",
    "protocols/mesi": "protocols.mesi",
    "protocols/msi": "protocols.msi",
    "protocols/moesi": "protocols.moesi",
    "protocols/tsocc": "protocols.tsocc",
    "protocols/broadcast": "protocols.broadcast",
    "workloads": "workloads",
    "consistency": "consistency",
    "analysis": "analysis",
    "analysis/backends": "analysis",
}

#: Boundary spans: name -> (unit of the mean per-call time in the ``--out``
#: report, the ``(file, function)`` pairs whose calls from outside the set
#: are the span).  Several functions of one name in one file
#: (``SystemStats.to_dict`` calling ``L1Stats.to_dict``) count once, at the
#: outermost call.
SPANS: Dict[str, Tuple[str, Tuple[Tuple[str, str], ...]]] = {
    "build_system": ("us", (("sim/system.py", "build_system"),)),
    "make_workload": ("us", (("workloads/catalog.py", "make_workload"),)),
    "simulator_run": ("us", (("sim/simulator.py", "run"),)),
    "network_send": ("ns", (("interconnect/network.py", "send"),)),
    "validate": ("us", (("workloads/trace.py", "validate"),)),
    "stats_to_dict": ("us", (("sim/stats.py", "to_dict"),)),
    "tso_outcomes": ("us", (("consistency/tso_model.py",
                              "enumerate_tso_outcomes"),)),
    "cell_key": ("us", (("analysis/parallel.py", "cell_key"),)),
    "cache_get": ("us", (("analysis/parallel.py", "get"),)),
    "decode": ("us", (("sim/stats.py", "from_dict"),
                      ("consistency/fuzz.py", "from_dict"))),
}

_UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


class UnmappedSourceError(LookupError):
    """A ``repro`` source file whose package has no layer."""


def layer_of(relpath: str) -> str:
    """The layer of one source file, given relative to the ``repro``
    package directory (``"protocols/mesi/l1_controller.py"``).

    Raises:
        UnmappedSourceError: when the file's package directory is not in
            the layer table.
    """
    if relpath in _FILE_LAYERS:
        return _FILE_LAYERS[relpath]
    directory = posixpath.dirname(relpath)
    try:
        return _DIR_LAYERS[directory]
    except KeyError:
        raise UnmappedSourceError(
            f"repro/{relpath}: package repro/{directory}/ has no layer; "
            f"add it to _DIR_LAYERS in bench/layers.py") from None


def source_layers(package_dir: Path) -> Dict[str, str]:
    """Layer of every ``.py`` file under ``package_dir`` (the ``repro``
    package), keyed by relative path.  Raises like :func:`layer_of`."""
    relpaths = [path.relative_to(package_dir).as_posix()
                for path in sorted(Path(package_dir).rglob("*.py"))]
    return {relpath: layer_of(relpath) for relpath in relpaths}


# ---------------------------------------------------------------- profile fold

#: A pstats function key: ``(filename, line, name)``.
Func = Tuple[str, int, str]


class Fold:
    """Per-layer self time and call counts of one profiled pass.

    Args:
        stats: ``pstats.Stats(...).stats`` -- func -> ``(primitive calls,
            calls, tottime, cumtime, callers)`` with callers mapping each
            caller func to the same four numbers for that edge.
        package_dir: the ``repro`` package directory the profiled code was
            imported from.
    """

    def __init__(self, stats: Dict[Func, tuple], package_dir: Path) -> None:
        self._stats = stats
        self._root = Path(package_dir).resolve()
        self._paths: Dict[str, Optional[str]] = {}
        self._own: Dict[Func, Optional[str]] = {}
        self._dist: Dict[Func, Dict[str, float]] = {}
        self.total_s = sum(entry[2] for entry in stats.values())
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.unattributed_s = 0.0
        for func, (_cc, calls, tottime, _ct, callers) in stats.items():
            layer = self._layer(func)
            if layer is not None:
                self.self_s[layer] = self.self_s.get(layer, 0.0) + tottime
                self.calls[layer] = self.calls.get(layer, 0) + calls
                continue
            charged = 0.0
            for caller, edge in callers.items():
                for owner, share in self._distribution(caller, set()).items():
                    self.self_s[owner] = (self.self_s.get(owner, 0.0)
                                          + edge[2] * share)
                    charged += edge[2] * share
            self.unattributed_s += max(0.0, tottime - charged)

    def _relpath(self, filename: str) -> Optional[str]:
        if filename not in self._paths:
            relpath = None
            if not filename.startswith(("~", "<")):
                try:
                    relpath = (Path(filename).resolve()
                               .relative_to(self._root).as_posix())
                except ValueError:
                    pass
            self._paths[filename] = relpath
        return self._paths[filename]

    def _layer(self, func: Func) -> Optional[str]:
        if func not in self._own:
            relpath = self._relpath(func[0])
            self._own[func] = None if relpath is None else layer_of(relpath)
        return self._own[func]

    def _distribution(self, func: Func, active: set) -> Dict[str, float]:
        """How ``func``'s time splits over layers: its own layer, or for a
        function outside ``repro`` the mix of its callers' layers weighted
        by the cumulative time each caller spent in it.  Empty when no
        caller chain reaches ``repro`` (the profiler's own calls)."""
        layer = self._layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._dist:
            return self._dist[func]
        if func in active or func not in self._stats:
            return {}
        active.add(func)
        callers = self._stats[func][4]
        weights = {caller: edge[3] for caller, edge in callers.items()}
        if not any(weights.values()):
            weights = {caller: float(edge[1]) for caller, edge in callers.items()}
        mix: Dict[str, float] = {}
        total = 0.0
        for caller, weight in weights.items():
            caller_mix = self._distribution(caller, active)
            if caller_mix:  # a recursive edge carries no new information
                total += weight
                for owner, share in caller_mix.items():
                    mix[owner] = mix.get(owner, 0.0) + share * weight
        mix = {owner: value / total for owner, value in mix.items()} if total else {}
        active.discard(func)
        self._dist[func] = mix
        return mix

    @property
    def attributed_share(self) -> float:
        """Share of the profiled self time charged to a named layer."""
        if self.total_s <= 0:
            return 0.0
        named = sum(self.self_s.get(layer, 0.0) for layer in LAYERS)
        return named / self.total_s

    def span(self, name: str) -> Tuple[float, int]:
        """``(cumulative seconds, calls)`` of one boundary span, counted at
        the calls that enter the span's function set from outside it."""
        members = {func for func in self._stats
                   if (self._relpath(func[0]), func[2]) in SPANS[name][1]}
        seconds, calls = 0.0, 0
        for func in members:
            callers = self._stats[func][4]
            if not callers:
                seconds += self._stats[func][3]
                calls += self._stats[func][1]
            for caller, edge in callers.items():
                if caller not in members:
                    seconds += edge[3]
                    calls += edge[1]
        return seconds, calls


def layer_metrics(fold: Fold, events: int, pass_s: float,
                  untraced_pass_s: float) -> Tuple[Dict[str, float],
                                                    Dict[str, float]]:
    """The traced pass's metrics.

    Layer shares are of the profiled self time, so they and the
    unattributed rest sum to 1; span shares are of ``pass_s``, the traced
    pass's wall time inside the profiled calls, because a span's
    cumulative time also holds profiler overhead that no self time does.

    Returns ``(reported, detail)``: ``reported`` holds the per-layer
    metrics of the run's result line -- shares and exact call counts, which
    a layer the workload never enters reads as 0 -- and ``detail`` adds
    the absolute per-event layer times and per-call span times of the
    ``--out`` report.
    """
    events = max(1, events)
    total = fold.total_s if fold.total_s > 0 else 1.0
    wall = pass_s if pass_s > 0 else 1.0
    reported: Dict[str, float] = {}
    detail: Dict[str, float] = {}
    for layer in LAYERS:
        self_s = fold.self_s.get(layer, 0.0)
        reported[f"{layer}.self_share"] = self_s / total
        reported[f"{layer}.calls_per_event"] = fold.calls.get(layer, 0) / events
        detail[f"{layer}.self_ns_per_event"] = self_s * 1e9 / events
    for name, (unit, _) in SPANS.items():
        seconds, calls = fold.span(name)
        reported[f"span.{name}.share"] = seconds / wall
        detail[f"span.{name}.{unit}"] = (seconds * _UNIT_SCALE[unit] / calls
                                         if calls else 0.0)
        detail[f"span.{name}.calls"] = calls
    reported["trace.ns_per_event"] = fold.total_s * 1e9 / events
    reported["trace.overhead_x"] = (pass_s / untraced_pass_s
                                    if untraced_pass_s > 0 else 0.0)
    reported["trace.attributed_share"] = fold.attributed_share
    return reported, detail
