"""``repro serve`` — the result cache as an HTTP service.

Any number of clients can hammer precomputed cells while simulation
capacity is spent only on novel configurations: a lookup that hits the
content-addressed :class:`~repro.analysis.parallel.ResultCache` returns
the payload immediately; a miss returns **202 Accepted** and hands the
cell to a pluggable work queue.  The server is pure stdlib
(:class:`http.server.ThreadingHTTPServer` — one thread per connection)
and every handler is a lock-free cache *reader* in the sense of the
multi-writer contract: it tolerates concurrent ``put``/``gc``/shard-merge
activity on the same root, degrading to a miss rather than erroring.

Endpoints (all JSON):

``GET /healthz``
    Liveness probe: ``{"status": "ok"}``.
``GET /stats``
    Serve counters, cache hit/miss totals and the per-kind index totals.
``GET /cache/<key>``
    Lookup by content-addressed cache key (64 hex chars).  Hit → ``200``
    with the raw cached payload; miss → ``404`` (a bare key does not carry
    the inputs needed to enqueue a simulation).
``POST /lookup``
    Lookup by experiment inputs.  The body names the cell exactly like
    :func:`~repro.analysis.parallel.cell_key` does::

        {"protocol": "MESI", "workload": "fft", "cores": 2,
         "scale": 0.2, "max_cycles": 200000000, "kind": "stats"}

    ``cores`` builds the standard scaled platform
    (``SystemConfig().scaled(num_cores=cores)`` — the same construction
    the sweep planner uses), or pass a full ``"config"`` object with
    explicit :class:`~repro.sim.config.SystemConfig` fields.  Hit →
    ``200`` with the payload; miss → ``202`` with the computed key and the
    queue's enqueue receipt.

Work queues (``--queue``):

* ``null`` — accept and count misses, simulate nothing (pure serving of a
  warm cache; a sharded fleet fills the cache out-of-band).
* ``simulate`` — a background worker pool runs each novel cell through
  its cell kind's ``simulate`` function and ``put``s the result, so the
  next lookup of the same cell hits.  In-flight keys are deduplicated:
  N clients asking for the same novel cell cost one simulation.
"""

from __future__ import annotations

import json
import queue
import re
import threading
from dataclasses import asdict, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.analysis.parallel import ResultCache, cell_key, get_cell_kind
from repro.sim.config import SystemConfig

#: Content-addressed keys are SHA-256 hex digests — anything else in the
#: ``/cache/<key>`` path is rejected before it can touch the filesystem.
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: Largest accepted ``POST /lookup`` body.
_MAX_BODY_BYTES = 1 << 20

_CONFIG_FIELDS = {f.name for f in fields(SystemConfig)}


class LookupError_(ValueError):
    """A malformed lookup request (maps to HTTP 400)."""


def build_request_config(body: Dict[str, object]) -> SystemConfig:
    """Resolve the platform configuration named by a ``/lookup`` body.

    ``"config"`` (explicit field dict) wins over ``"cores"`` (the standard
    scaled preset, matching :func:`~repro.analysis.shard.plan_sweep`).

    Raises:
        LookupError_: on unknown config fields, invalid values, or a body
            naming neither form.
    """
    config = body.get("config")
    if config is not None:
        if not isinstance(config, dict):
            raise LookupError_("'config' must be an object of "
                               "SystemConfig fields")
        unknown = sorted(set(config) - _CONFIG_FIELDS)
        if unknown:
            raise LookupError_(
                f"unknown SystemConfig field(s): {', '.join(unknown)}")
        try:
            return SystemConfig(**config)
        except (TypeError, ValueError) as exc:
            raise LookupError_(f"invalid config: {exc}") from None
    cores = body.get("cores")
    if cores is None:
        raise LookupError_("lookup body needs 'cores' (scaled preset) "
                           "or a full 'config' object")
    if not isinstance(cores, int) or isinstance(cores, bool) or cores < 1:
        raise LookupError_("'cores' must be a positive integer")
    try:
        return SystemConfig().scaled(num_cores=cores)
    except ValueError as exc:
        raise LookupError_(f"invalid cores: {exc}") from None


# ------------------------------------------------------------------ queues

class ServeQueue:
    """Pluggable miss backend: what happens to a cell the cache lacks."""

    name = ""

    def enqueue(self, job: Dict[str, object]) -> Dict[str, object]:
        """Accept one miss job; return a JSON-serializable receipt."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, object]:
        """Queue state for ``GET /stats``."""
        return {"queue": self.name}

    def close(self) -> None:
        """Stop any background workers (idempotent)."""


class NullQueue(ServeQueue):
    """Count misses, simulate nothing — serving a warm cache only."""

    name = "null"

    def __init__(self) -> None:
        self.dropped = 0
        self._lock = threading.Lock()

    def enqueue(self, job: Dict[str, object]) -> Dict[str, object]:
        with self._lock:
            self.dropped += 1
        return {"queued": False, "reason": "null queue: serving only"}

    def snapshot(self) -> Dict[str, object]:
        return {"queue": self.name, "dropped": self.dropped}


class SimulateQueue(ServeQueue):
    """Run novel cells through their kind's ``simulate`` in the background.

    Jobs carry everything :func:`~repro.analysis.parallel.cell_key` hashed,
    so the worker reproduces exactly the payload a sweep would have cached.
    In-flight keys are deduplicated; results go through ``cache.put`` (the
    atomic multi-writer path), so a concurrently running sweep writing the
    same key is benign — identical bytes, last rename wins.

    Args:
        cache: destination (and dedup source) for simulated payloads.
        jobs: background worker-thread count.
    """

    name = "simulate"

    def __init__(self, cache: ResultCache, jobs: int = 1) -> None:
        self.cache = cache
        self.completed = 0
        self.failed = 0
        self._jobs: "queue.Queue[Optional[Dict[str, object]]]" = queue.Queue()
        self._inflight: set = set()
        self._lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-serve-sim-{i}")
            for i in range(max(1, jobs))
        ]
        for worker in self._workers:
            worker.start()

    def enqueue(self, job: Dict[str, object]) -> Dict[str, object]:
        key = job["key"]
        with self._lock:
            if key in self._inflight:
                return {"queued": False, "reason": "already in flight"}
            self._inflight.add(key)
        self._jobs.put(job)
        return {"queued": True, "backlog": self._jobs.qsize()}

    def _worker(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                self._jobs.task_done()
                return
            try:
                kind = get_cell_kind(str(job["kind"]))
                payload = kind.simulate(SystemConfig(**job["config"]),
                                        job["protocol"], job["workload"],
                                        job["scale"], job["max_cycles"])
                self.cache.put(job["key"], payload)
                self.cache.flush_index()
                with self._lock:
                    self.completed += 1
            except Exception:
                # A failing cell must not kill the worker; the client sees
                # the miss again on its next poll and the failure count in
                # /stats.
                with self._lock:
                    self.failed += 1
            finally:
                with self._lock:
                    self._inflight.discard(job["key"])
                self._jobs.task_done()

    def drain(self) -> None:
        """Block until every accepted job has been processed (tests)."""
        self._jobs.join()

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"queue": self.name, "backlog": self._jobs.qsize(),
                    "in_flight": len(self._inflight),
                    "completed": self.completed, "failed": self.failed}

    def close(self) -> None:
        for _ in self._workers:
            self._jobs.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
        self._workers = []


QUEUE_KINDS = {"null": NullQueue, "simulate": SimulateQueue}


def make_queue(name: str, cache: ResultCache, jobs: int = 1) -> ServeQueue:
    """Instantiate a work queue by registry name (``null``/``simulate``).

    Raises:
        KeyError: for an unknown queue name.
    """
    if name not in QUEUE_KINDS:
        raise KeyError(
            f"unknown serve queue {name!r}; known: {', '.join(QUEUE_KINDS)}")
    if name == "simulate":
        return SimulateQueue(cache, jobs=jobs)
    return NullQueue()


# ----------------------------------------------------------------- service

class CacheService:
    """The request-handling core, independent of HTTP plumbing.

    Every method returns ``(http_status, json_body)``; the handler only
    parses paths/bodies and writes responses, so tests can exercise the
    full hit/miss/enqueue logic without sockets.
    """

    def __init__(self, cache: ResultCache, work_queue: Optional[ServeQueue] = None) -> None:
        self.cache = cache
        self.queue = work_queue if work_queue is not None else NullQueue()
        self.hits = 0
        self.misses = 0
        self.accepted = 0
        self.errors = 0
        self._lock = threading.Lock()

    # Counters are advisory telemetry; the lock keeps them exact anyway
    # since ThreadingHTTPServer handlers run concurrently.
    def _count(self, attr: str) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + 1)

    def lookup_key(self, key: str) -> Tuple[int, Dict[str, object]]:
        """``GET /cache/<key>``."""
        if not _KEY_RE.match(key):
            self._count("errors")
            return 400, {"error": "malformed cache key "
                                  "(expected 64 hex characters)"}
        payload = self.cache.get_any(key)
        if payload is None:
            self._count("misses")
            return 404, {"status": "miss", "key": key}
        self._count("hits")
        return 200, payload

    def lookup_config(self, body: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        """``POST /lookup``."""
        try:
            if not isinstance(body, dict):
                raise LookupError_("lookup body must be a JSON object")
            protocol = body.get("protocol")
            workload = body.get("workload")
            if not isinstance(protocol, str) or not isinstance(workload, str):
                raise LookupError_(
                    "'protocol' and 'workload' are required strings")
            config = build_request_config(body)
            scale = body.get("scale", 0.5)
            max_cycles = body.get("max_cycles", 200_000_000)
            if not isinstance(scale, (int, float)) or isinstance(scale, bool):
                raise LookupError_("'scale' must be a number")
            if not isinstance(max_cycles, int) or isinstance(max_cycles, bool):
                raise LookupError_("'max_cycles' must be an integer")
            kind_name = body.get("kind", "stats")
            if not isinstance(kind_name, str):
                raise LookupError_("'kind' must be a string")
            try:
                kind = get_cell_kind(kind_name)
            except KeyError as exc:
                raise LookupError_(exc.args[0]) from None
        except LookupError_ as exc:
            self._count("errors")
            return 400, {"error": str(exc)}

        key = cell_key(config, protocol, workload, float(scale), max_cycles,
                       kind=kind)
        payload = self.cache.get(key, schema=kind.schema)
        if payload is not None:
            self._count("hits")
            return 200, payload
        self._count("misses")
        self._count("accepted")
        receipt = self.queue.enqueue({
            "key": key, "kind": kind.name, "config": asdict(config),
            "protocol": protocol, "workload": workload,
            "scale": float(scale), "max_cycles": max_cycles,
        })
        return 202, {"status": "accepted", "key": key,
                     "queue": self.queue.name, **receipt}

    def stats(self) -> Tuple[int, Dict[str, object]]:
        """``GET /stats``."""
        with self._lock:
            serve = {"hits": self.hits, "misses": self.misses,
                     "accepted": self.accepted, "errors": self.errors}
        index_stats = self.cache.index.stats() if self.cache.track else {}
        return 200, {
            "serve": serve,
            "cache": {"root": str(self.cache.root),
                      "enabled": self.cache.enabled,
                      "hits": self.cache.hits, "misses": self.cache.misses},
            "index": index_stats,
            "queue": self.queue.snapshot(),
        }

    def close(self) -> None:
        self.queue.close()
        self.cache.flush_index()


# -------------------------------------------------------------------- HTTP

class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CacheService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, status: int, body: Dict[str, object]) -> None:
        blob = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/stats":
            self._send_json(*self.service.stats())
        elif self.path.startswith("/cache/"):
            self._send_json(*self.service.lookup_key(self.path[len("/cache/"):]))
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/lookup":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            self._send_json(413, {"error": "missing or oversized body"})
            return
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "body is not valid JSON"})
            return
        self._send_json(*self.service.lookup_config(body))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class CacheHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` owning a :class:`CacheService`."""

    daemon_threads = True

    def __init__(self, address, service: CacheService,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose

    def server_close(self) -> None:
        super().server_close()
        self.service.close()


def build_server(cache: ResultCache, host: str = "127.0.0.1", port: int = 0,
                 work_queue: Optional[ServeQueue] = None,
                 verbose: bool = False) -> CacheHTTPServer:
    """Bind a cache-serving HTTP server (``port=0`` picks a free port)."""
    return CacheHTTPServer((host, port), CacheService(cache, work_queue),
                           verbose=verbose)
