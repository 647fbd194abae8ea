"""Local(L1) + remote(L2) artifact store behind the Runner's store surface.

A :class:`TieredStore` wraps the local :class:`~repro.store.local.ArtifactStore`
and a :class:`~repro.store.remote.RemoteStoreClient` behind the exact
``get``/``put``/``try_lease`` surface the Runner and parallel engine already
use -- swapping it in changes where artifacts can come *from*, never what
they contain:

* **Reads fill through.**  A local hit never touches the network.  On a
  local miss the remote peer is consulted; a verified foreign artifact is
  written into the local tier (with its sidecar) and returned -- the next
  read is a local hit.
* **Foreign artifacts are verified before they are trusted.**  Wire
  integrity first (the body checksum, enforced by the client), then
  provenance: the fetched sidecar's dependency fingerprints are diffed
  against the *live* local surfaces (:func:`repro.pipeline.fingerprints`),
  and a stale recording means the peer computed the cell under superseded
  code -- the artifact is rejected, counted, and the cell recomputed
  locally.  A sidecar-less remote artifact is accepted, matching the local
  tier's tolerance for sidecar-less files.
* **Writes publish asynchronously.**  ``put`` returns as soon as the local
  tier has the artifact; a background publisher drains a bounded queue to
  the peer.  A full queue or a failed publish drops that artifact's upload
  (counted), never blocks or fails the run.  :meth:`flush` drains the queue
  at end of run.
* **Failure degrades, never breaks.**  Every remote error -- timeouts,
  refused connections, integrity rejects, an open circuit breaker -- is
  translated into "local miss" and counted (``REMOTE_STATS`` plus the
  optional :attr:`on_fault` run-telemetry callback).  A run against a dead
  peer is byte-identical to a local-only run.

Leases, eviction, gc and every introspection helper delegate to the local
tier untouched: coordination stays host-local, the remote tier is purely an
artifact exchange.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.store.local import ArtifactStore
from repro.store.remote import (
    REMOTE_STATS,
    RemoteRejected,
    RemoteStoreClient,
    RemoteStoreError,
)

#: at most this many artifacts waiting for async publication; beyond it new
#: publishes are dropped (counted) rather than ever blocking the run
PUBLISH_QUEUE_DEPTH = 256


class TieredStore:
    """Compose a local :class:`ArtifactStore` with one remote peer.

    Parameters
    ----------
    local:
        The L1 store (owns leases, eviction and all on-disk state).
    remote:
        The L2 exchange client; ``None`` makes this a pure pass-through.
    publish_async:
        Publish ``put`` artifacts from a background thread (the default).
        ``False`` publishes inline -- deterministic ordering for tests.
    """

    def __init__(
        self,
        local: ArtifactStore,
        remote: Optional[RemoteStoreClient] = None,
        publish_async: bool = True,
    ):
        self.local = local
        self.remote = remote
        self.publish_async = bool(publish_async)
        #: optional run-telemetry callback ``(fault_name, n=1)`` -- the Runner
        #: wires it to ``RunTelemetry.count_fault`` so remote degradation
        #: shows up in each run's ``faults`` dict
        self.on_fault: Optional[Callable[..., None]] = None
        self._queue: Optional["queue.Queue"] = None
        self._publisher: Optional[threading.Thread] = None
        self._publisher_lock = threading.Lock()

    # ---------------------------------------------------------- delegation
    def __getattr__(self, name: str) -> Any:
        # everything not overridden here (leases, gc, stats helpers, paths,
        # root/budget/lease_ttl, private scan helpers) is the local tier's
        local = self.__dict__.get("local")
        if local is None:  # guards __init__-time lookups against recursion
            raise AttributeError(name)
        return getattr(local, name)

    def _count(self, name: str, n: int = 1) -> None:
        if self.on_fault is not None:
            try:
                self.on_fault(name, n)
            except TypeError:
                self.on_fault(name)

    # ---------------------------------------------------------------- reads
    def get(self, namespace: str, digest: str) -> Optional[Any]:
        """Local read, filling through from the remote tier on a miss."""
        value = self.local.get(namespace, digest)
        if value is not None or self.remote is None:
            return value
        return self._fill_through(namespace, digest)

    def _fill_through(self, namespace: str, digest: str) -> Optional[Any]:
        try:
            value = self.remote.fetch(namespace, digest)
            if value is None:
                return None  # a plain remote miss: compute locally
            meta = self.remote.fetch_meta(namespace, digest)
        except RemoteRejected:
            # damaged on the wire (or unvouched-for): counted by the client,
            # surfaced to the run, computed locally -- never trusted
            self._count("remote_rejects")
            return None
        except RemoteStoreError:
            # breaker open, timeout, dead peer: degrade to local-only
            self._count("remote_fallbacks")
            return None
        if not self._trust_meta(meta):
            REMOTE_STATS.rejected_meta += 1
            self._count("remote_rejects")
            return None
        # adopt the artifact into L1 with its provenance: the next read is a
        # local hit, and staleness classification keeps working on it
        self.local.put(namespace, digest, value, meta=meta)
        self._count("remote_cell_hits")
        return value

    @staticmethod
    def _trust_meta(meta: Optional[Dict[str, Any]]) -> bool:
        """Verify a foreign sidecar against the *live* local code surfaces.

        ``stale`` -- any recorded fingerprint token differs from what this
        process's code surfaces hash to right now -- means the peer computed
        the cell under superseded code, and its artifact must not be used.
        ``fresh`` and ``unknown`` (no deps recorded / no sidecar at all) are
        accepted, mirroring how the local tier treats its own artifacts.
        """
        if meta is None:
            return True
        from repro.pipeline.fingerprints import meta_status

        return meta_status(meta) != "stale"

    # --------------------------------------------------------------- writes
    def put(
        self,
        namespace: str,
        digest: str,
        value: Any,
        sort_keys: bool = True,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Publish locally, then share with the peer (async by default)."""
        path = self.local.put(namespace, digest, value, sort_keys=sort_keys, meta=meta)
        if self.remote is not None:
            if self.publish_async:
                self._enqueue(namespace, digest, value, meta)
            else:
                self._publish_one(namespace, digest, value, meta)
        return path

    def _publish_one(
        self, namespace: str, digest: str, value: Any, meta: Optional[Dict[str, Any]]
    ) -> None:
        try:
            self.remote.publish(namespace, digest, value, meta=meta)
        except RemoteStoreError:
            REMOTE_STATS.put_failures += 1
            self._count("remote_fallbacks")

    def _enqueue(
        self, namespace: str, digest: str, value: Any, meta: Optional[Dict[str, Any]]
    ) -> None:
        if self._queue is None:
            with self._publisher_lock:
                if self._queue is None:
                    self._queue = queue.Queue(maxsize=PUBLISH_QUEUE_DEPTH)
                    self._publisher = threading.Thread(
                        target=self._drain, name="repro-store-publisher", daemon=True
                    )
                    self._publisher.start()
        try:
            self._queue.put_nowait((namespace, digest, value, meta))
        except queue.Full:
            # the peer is slower than the run: drop this upload, keep running
            REMOTE_STATS.put_failures += 1
            self._count("remote_fallbacks")

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                self._publish_one(*item)
            finally:
                self._queue.task_done()

    def flush(self, timeout: float = 30.0) -> bool:
        """Wait for queued publications to drain; ``False`` on timeout."""
        if self._queue is None:
            return True
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            if self._queue.unfinished_tasks == 0:
                return True
            time.sleep(0.01)
        return self._queue.unfinished_tasks == 0

    def close(self, timeout: float = 5.0) -> None:
        """Drain and stop the publisher thread (idempotent)."""
        self.flush(timeout)
        if self._queue is not None and self._publisher is not None:
            self._queue.put(None)
            self._publisher.join(timeout=timeout)

    # ---------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        """The local tier's occupancy plus the remote client's view."""
        out = self.local.stats()
        if self.remote is not None:
            out["remote"] = self.remote.stats()
        return out
