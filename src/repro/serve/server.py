"""Stdlib HTTP front-end of the resiliency query service.

A :class:`ServiceServer` (a ``ThreadingHTTPServer``) bundles a
:class:`~repro.serve.jobs.JobManager` and an
:class:`~repro.serve.artifacts.ArtifactCache` behind a small JSON API:

=========  ==============================  ====================================
method     path                            meaning
=========  ==============================  ====================================
``POST``   ``/v1/jobs``                    submit a campaign job
``GET``    ``/v1/jobs``                    list job manifests, newest first
``GET``    ``/v1/jobs/{id}``               one job's manifest (state + health)
``GET``    ``/v1/jobs/{id}/events``        NDJSON progress stream
                                           (``?follow=1`` tails until terminal)
``DELETE`` ``/v1/jobs/{id}``               cancel a queued/running job
``GET``    ``/v1/boundary``                workload keys with a published
                                           boundary
``GET``    ``/v1/boundary/{key}``          boundary stats; with
                                           ``?site=i&eps=x`` the §3.3 point
                                           verdict "is ε masked at site i?"
``GET``    ``/v1/front``                   workload keys with a published
                                           Pareto front (``optimize`` jobs)
``GET``    ``/v1/front/{key}``             the front's (cost, residual-SDC)
                                           points; ``?target=x`` /
                                           ``?budget=x`` pick the best point
                                           and include its placement
``GET``    ``/v1/cache``                   artifact-cache hit/miss statistics
``GET``    ``/metrics``                    Prometheus text exposition
``GET``    ``/healthz``                    liveness + version
=========  ==============================  ====================================

Error mapping is uniform: validation problems are ``400``, unknown jobs
and unpublished boundaries are ``404``
(:class:`~repro.serve.jobs.JobNotFoundError` /
:class:`~repro.io.store.StoreNotFoundError`), and a published artifact
that exists but cannot be decoded is ``409``
(:class:`~repro.io.store.StoreCorruptError`).  Every error body is
``{"error": {"type": ..., "message": ...}}``.
"""

from __future__ import annotations

import json
import os
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import numpy as np

from .. import __version__
from ..io.store import StoreCorruptError, StoreNotFoundError, load_front
from ..obs import metrics as _metrics
from ..obs.metrics import METRICS, render_exposition
from .artifacts import ArtifactCache
from .jobs import TERMINAL_STATES, JobManager, JobNotFoundError, JobRequest

__all__ = ["ServiceServer", "create_server"]

#: Cap on request bodies; campaign requests are a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Default / maximum seconds an ``?follow=1`` event stream may tail.
FOLLOW_TIMEOUT_S = 300.0
FOLLOW_POLL_S = 0.05


class _HTTPError(Exception):
    """Internal: abort the current request with a status + message."""

    def __init__(self, status: int, message: str, kind: str = "bad_request"):
        super().__init__(message)
        self.status = status
        self.kind = kind


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the job manager and artifact cache.

    Construct through :func:`create_server`; ``server.close()`` stops the
    listener and the worker pool.  With ``reuse_port=True`` the listening
    socket is bound with ``SO_REUSEPORT``, so N replica processes can
    bind the *same* host:port and the kernel load-balances incoming
    connections across their accept loops — the transport half of the
    multi-replica story (the shared on-disk job store being the other).
    """

    daemon_threads = True

    def __init__(self, address, manager: JobManager, cache: ArtifactCache,
                 quiet: bool = True, dist_plane=None,
                 reuse_port: bool = False):
        self.manager = manager
        self.cache = cache
        self.quiet = quiet
        self.dist_plane = dist_plane
        self.reuse_port = reuse_port
        super().__init__(address, _Handler)

    def server_bind(self) -> None:
        if self.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError(
                    "SO_REUSEPORT is not available on this platform; "
                    "run without --reuse-port/--replicas")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def close(self) -> None:
        """Stop accepting requests and shut the job worker pool down."""
        self.shutdown()
        self.server_close()
        self.manager.close(wait=False)
        if self.dist_plane is not None:
            self.dist_plane.close()

    def drain(self) -> None:
        """Graceful drain (SIGTERM/SIGINT path): finish what's in flight.

        Stops the accept loop, joins every in-flight request thread
        (``block_on_close`` on the threading server makes
        ``server_close`` do exactly that), then drains the job manager —
        running campaigns finish their job and every interrupted job
        gets a fsynced ``draining`` event — before releasing the
        distributed plane.  Contrast :meth:`close`, which abandons
        running work to the next process's recovery pass.
        """
        self.shutdown()
        self.server_close()  # joins in-flight handler threads
        self.manager.drain()
        if self.dist_plane is not None:
            self.dist_plane.close()


def create_server(root: str | Path, host: str = "127.0.0.1", port: int = 0,
                  job_workers: int = 1, campaign_workers: int | None = None,
                  cache_capacity: int | None = None, recover: bool = True,
                  quiet: bool = True, dist_port: int | None = None,
                  reuse_port: bool = False, replica_id: str | None = None,
                  claim_ttl_s: float | None = None) -> ServiceServer:
    """Build a ready-to-``serve_forever`` service on ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.port``).  ``recover=True`` adopts jobs any replica left
    unfinished under this root; their campaigns resume from checkpoints.
    The process-global metrics registry is enabled so ``/metrics``
    reports request/query/campaign counters.  ``dist_port`` additionally
    opens a distributed campaign plane on that port (``0`` = ephemeral;
    read it back from ``server.dist_plane.port``) so jobs may request
    ``options.executor="dist"``; the server owns the plane and closes it
    on ``close()``/``drain()``.

    ``reuse_port=True`` binds with ``SO_REUSEPORT`` so several replica
    processes (see :mod:`repro.serve.fleet`) share one port;
    ``replica_id`` names this process in claim files, manifests and
    ``/healthz``, and ``claim_ttl_s`` tunes how long a crashed replica's
    claims stay unstealable.
    """
    METRICS.enabled = True
    dist_plane = None
    if dist_port is not None:
        from ..dist import DistConfig, DistPlane
        dist_plane = DistPlane(DistConfig(host=host, port=dist_port))
    manager_kw = {} if claim_ttl_s is None else {"claim_ttl_s": claim_ttl_s}
    manager = JobManager(root, job_workers=job_workers,
                         campaign_workers=campaign_workers, recover=recover,
                         dist_plane=dist_plane, replica_id=replica_id,
                         **manager_kw)
    cache_kw = {} if cache_capacity is None else {"capacity": cache_capacity}
    cache = ArtifactCache(manager.boundaries_dir, **cache_kw)
    return ServiceServer((host, port), manager, cache, quiet=quiet,
                         dist_plane=dist_plane, reuse_port=reuse_port)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Responses go out as two segments (buffered headers, then body);
    # without TCP_NODELAY, Nagle holds the second until the client ACKs
    # the first, which on keep-alive connections costs a delayed-ACK
    # stall (~40ms) per request — dwarfing the handler itself.
    disable_nagle_algorithm = True
    server: ServiceServer  # narrowed for the route helpers below

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, kind: str, message: str) -> None:
        self._send_json({"error": {"type": kind, "message": message}},
                        status=status)

    def _read_body_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, "request body too large",
                             "payload_too_large")
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            self._route(method, parts, query)
        except _HTTPError as exc:
            self._send_error_json(exc.status, exc.kind, str(exc))
        except JobNotFoundError as exc:
            self._send_error_json(404, "job_not_found",
                                  f"no such job: {exc.args[0]}")
        except StoreNotFoundError as exc:
            self._send_error_json(404, "boundary_not_found", str(exc))
        except StoreCorruptError as exc:
            self._send_error_json(409, "artifact_corrupt", str(exc))
        except ValueError as exc:
            self._send_error_json(400, "bad_request", str(exc))
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 — never kill the listener
            _metrics.inc("serve.http.errors")
            try:
                self._send_error_json(500, "internal_error",
                                      f"{type(exc).__name__}: {exc}")
            except OSError:
                self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # --------------------------------------------------------------- routes

    def _route(self, method: str, parts: list[str], query: dict) -> None:
        _metrics.inc("serve.http.requests")
        if method == "GET" and parts == ["healthz"]:
            # Per-replica honest: behind SO_REUSEPORT any replica may
            # answer, so say *which* one did and what it holds claims on.
            manager = self.server.manager
            claimed = manager.claimed_jobs()
            payload = {"ok": True, "version": __version__,
                       "replica": manager.replica_id, "pid": os.getpid(),
                       "claimed_jobs": len(claimed),
                       "claimed_job_ids": claimed,
                       "finish_errors": manager.finish_errors}
            plane = self.server.dist_plane
            if plane is not None:
                payload["dist_nodes"] = plane.n_nodes
                payload["dist_port"] = plane.port
            return self._send_json(payload)
        if method == "GET" and parts == ["metrics"]:
            # The registry is process-global, so the exposition is this
            # replica's view; refresh the claim gauge at scrape time.
            _metrics.set_gauge("serve.jobs.claimed",
                               len(self.server.manager.claimed_jobs()))
            text = render_exposition(METRICS.snapshot())
            return self._send_text(text)
        if parts[:1] == ["v1"]:
            rest = parts[1:]
            if rest[:1] == ["jobs"]:
                return self._route_jobs(method, rest[1:], query)
            if rest[:1] == ["boundary"]:
                return self._route_boundary(method, rest[1:], query)
            if rest[:1] == ["front"]:
                return self._route_front(method, rest[1:], query)
            if method == "GET" and rest == ["cache"]:
                return self._send_json(self.server.cache.stats())
        raise _HTTPError(404, f"no route for {method} {self.path}",
                         "not_found")

    def _route_jobs(self, method: str, rest: list[str],
                    query: dict) -> None:
        manager = self.server.manager
        if not rest:
            if method == "POST":
                request = JobRequest.from_dict(self._read_body_json())
                return self._send_json(manager.submit(request), status=201)
            if method == "GET":
                return self._send_json({"jobs": manager.list()})
            raise _HTTPError(405, f"{method} not allowed on /v1/jobs",
                             "method_not_allowed")
        job_id = rest[0]
        if len(rest) == 1:
            if method == "GET":
                return self._send_json(manager.get(job_id))
            if method == "DELETE":
                return self._send_json(manager.cancel(job_id))
            raise _HTTPError(405, f"{method} not allowed on a job",
                             "method_not_allowed")
        if len(rest) == 2 and rest[1] == "events" and method == "GET":
            return self._stream_events(job_id, query)
        raise _HTTPError(404, f"no route for {method} {self.path}",
                         "not_found")

    # --------------------------------------------------------------- events

    def _stream_events(self, job_id: str, query: dict) -> None:
        """Send ``events.ndjson``; with ``?follow=1`` keep tailing until
        the job is terminal (or the timeout lapses)."""
        manager = self.server.manager
        manager.get(job_id)  # 404 before committing to a stream
        follow = query.get("follow", ["0"])[0] not in ("0", "false", "")
        timeout = min(float(query.get("timeout", [FOLLOW_TIMEOUT_S])[0]),
                      FOLLOW_TIMEOUT_S)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True

        deadline = time.monotonic() + timeout
        path = manager.events_path(job_id)
        try:
            with open(path) as fh:
                terminal_seen = False
                while True:
                    pos = fh.tell()
                    line = fh.readline()
                    if line:
                        if not line.endswith("\n"):
                            fh.seek(pos)  # writer mid-append: retry whole line
                            time.sleep(FOLLOW_POLL_S)
                            continue
                        self.wfile.write(line.encode())
                        self.wfile.flush()
                        continue
                    if not follow or terminal_seen:
                        return
                    if manager.get(job_id)["state"] in TERMINAL_STATES:
                        # Terminal events hit disk before the manifest
                        # flips, so one more drain pass is complete.
                        terminal_seen = True
                        continue
                    if time.monotonic() > deadline:
                        return
                    time.sleep(FOLLOW_POLL_S)
        except (BrokenPipeError, ConnectionResetError):
            pass
        except FileNotFoundError:
            pass  # job dir vanished mid-stream

    # ------------------------------------------------------------- boundary

    def _route_boundary(self, method: str, rest: list[str],
                        query: dict) -> None:
        if method != "GET":
            raise _HTTPError(405, f"{method} not allowed on /v1/boundary",
                             "method_not_allowed")
        cache = self.server.cache
        if not rest:
            return self._send_json({"workload_keys": cache.keys()})
        if len(rest) != 1:
            raise _HTTPError(404, f"no route for GET {self.path}",
                             "not_found")
        key = rest[0]
        t0 = time.perf_counter()
        boundary = cache.get(key).boundary
        payload: dict = {"workload_key": key,
                         "n_sites": int(boundary.space.n_sites)}
        if "site" in query:
            site = self._int_param(query, "site")
            if not 0 <= site < boundary.space.n_sites:
                raise _HTTPError(
                    400, f"site {site} out of range "
                         f"[0, {boundary.space.n_sites})")
            threshold = float(boundary.thresholds[site])
            payload["site"] = site
            payload["threshold"] = threshold
            if "eps" in query:
                eps = self._float_param(query, "eps")
                # §3.3 predicate: predicted MASKED iff the injected
                # error does not exceed the site's threshold Δe.
                payload["eps"] = eps
                payload["masked"] = bool(eps <= threshold)
        elif "eps" in query:
            raise _HTTPError(400, "eps requires site")
        else:
            payload["stats"] = boundary.stats()
        _metrics.observe("serve.query.us",
                         (time.perf_counter() - t0) * 1e6)
        self._send_json(payload)

    # ---------------------------------------------------------------- front

    def _route_front(self, method: str, rest: list[str],
                     query: dict) -> None:
        """Published Pareto fronts of ``optimize`` jobs.

        ``GET /v1/front`` lists keys; ``GET /v1/front/{key}`` returns the
        front's points.  ``?target=x`` / ``?budget=x`` select the best
        point for a goal (its placement vector included);
        ``?placements=1`` inlines every point's placement.
        """
        if method != "GET":
            raise _HTTPError(405, f"{method} not allowed on /v1/front",
                             "method_not_allowed")
        manager = self.server.manager
        if not rest:
            return self._send_json({"workload_keys": manager.front_keys()})
        if len(rest) != 1:
            raise _HTTPError(404, f"no route for GET {self.path}",
                             "not_found")
        key = rest[0]
        t0 = time.perf_counter()
        try:
            front, meta = load_front(manager.front_path(key))
        except StoreNotFoundError:
            raise _HTTPError(404, f"no published front for {key}",
                             "front_not_found") from None
        include = query.get("placements", ["0"])[0] not in ("0", "", "false")
        payload: dict = {"workload_key": key, "meta": meta,
                         **front.as_dict(include_placements=include)}
        if "target" in query and "budget" in query:
            raise _HTTPError(400, "pass at most one of target / budget")
        chosen = None
        if "target" in query:
            chosen = front.best_for_target(self._float_param(query,
                                                             "target"))
        elif "budget" in query:
            chosen = front.best_for_budget(self._float_param(query,
                                                             "budget"))
        if "target" in query or "budget" in query:
            if chosen is None:
                payload["chosen"] = None
            else:
                payload["chosen"] = {
                    "index": chosen,
                    "cost": float(front.costs[chosen]),
                    "residual_sdc": float(front.residuals[chosen]),
                    "n_protected": int(
                        np.count_nonzero(front.placements[chosen])),
                    "mode_counts": front.mode_counts(chosen),
                    "placement": front.placements[chosen].tolist(),
                }
        _metrics.observe("serve.query.us",
                         (time.perf_counter() - t0) * 1e6)
        self._send_json(payload)

    @staticmethod
    def _int_param(query: dict, name: str) -> int:
        try:
            return int(query[name][0])
        except (TypeError, ValueError):
            raise _HTTPError(400, f"{name} must be an integer") from None

    @staticmethod
    def _float_param(query: dict, name: str) -> float:
        try:
            value = float(query[name][0])
        except (TypeError, ValueError):
            raise _HTTPError(400, f"{name} must be a number") from None
        return value
