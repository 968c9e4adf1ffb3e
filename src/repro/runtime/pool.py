"""Multiprocessing scoring pool with worker supervision.

Scoring is embarrassingly parallel across clip chunks, and the numpy
detectors release no work to threads (single-process BLAS here), so the
engine parallelizes with **processes**.  The pool is ``spawn``-safe:

* the detector is shipped once per worker via
  :func:`repro.core.detector.detector_to_state` in the pool initializer
  (workers then score every chunk against their private copy),
* chunks are dispatched individually (``apply_async``) with a bounded
  in-flight window and results are consumed **in submission order** —
  reassembly is trivial and scores are byte-identical to the
  single-process path,
* ``workers=1`` never touches ``multiprocessing`` at all: scoring runs
  in-process, which keeps tests deterministic and debuggable.

Supervision (the fault-tolerance layer)
---------------------------------------
Full-chip scans run for hours; a single lost worker must not lose the
run.  Every chunk result passes through one ladder:

1. **validate** — scores must be finite float64 in [0, 1]
   (:func:`repro.contracts.require_scores`); with
   ``on_invalid_score="repair"`` an invalid array is treated as a chunk
   failure rather than raised,
2. **retry** — a failed chunk (timeout, worker death, exception,
   invalid scores) is resubmitted up to ``max_chunk_retries`` times with
   exponential backoff; chunk scoring is pure, so a retried chunk
   returns byte-identical scores,
3. **rebuild** — when retries are exhausted, or every worker process is
   dead, the pool is torn down and rebuilt (``max_pool_rebuilds`` times
   per pool lifetime) and the chunk retried there,
4. **degrade** — as the last resort the chunk is scored in-process on
   the parent's detector; after ``degrade_after_failures`` cumulative
   failures the pool stops dispatching entirely and the rest of the scan
   runs in-process (slow, but correct and identical).

Each rung increments a telemetry counter (``pool_retries``,
``pool_timeouts``, ``worker_errors``, ``score_repairs``,
``pool_rebuilds``, ``pool_degraded_chunks``, ``pool_degradations``) so a
report always shows what the scan survived.

Top-level functions (not closures) carry the worker-side logic, as the
``spawn`` start method requires.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..contracts import ContractViolation, require_scores, shaped
from ..core.detector import detector_from_state, detector_to_state
from ..geometry.layout import Clip
from .faults import FaultInjector, corrupt_scores, execute_chunk_fault
from .telemetry import Telemetry
from .trace import NULL_TRACER

# per-worker detector instance, installed by _init_worker in each child
_WORKER_DETECTOR = None


def _init_worker(state: bytes) -> None:
    """Pool initializer: decode the detector once per worker process."""
    global _WORKER_DETECTOR
    _WORKER_DETECTOR = detector_from_state(state)


@shaped("[n]->(n,):float64")
def _score_chunk(clips: List[Clip]) -> np.ndarray:
    """Worker-side chunk scorer (runs against the per-process detector)."""
    if _WORKER_DETECTOR is None:  # pragma: no cover - initializer contract
        raise RuntimeError("worker pool used before initialization")
    return np.asarray(_WORKER_DETECTOR.predict_proba(clips), dtype=np.float64)


@shaped("(n,h,w)->(n,):float64")
def _score_raster_chunk(rasters: np.ndarray) -> np.ndarray:
    """Worker-side raster-batch scorer (raster-plane scan path)."""
    if _WORKER_DETECTOR is None:  # pragma: no cover - initializer contract
        raise RuntimeError("worker pool used before initialization")
    return np.asarray(
        _WORKER_DETECTOR.predict_proba_rasters(rasters), dtype=np.float64
    )


def _score_chunk_task(task) -> np.ndarray:
    """Worker task wrapper: run the injected fault (if any), then score."""
    chunk, fault = task
    execute_chunk_fault(fault)
    return _score_chunk(chunk)


def _score_raster_chunk_task(task) -> np.ndarray:
    """Raster counterpart of :func:`_score_chunk_task`."""
    batch, fault = task
    execute_chunk_fault(fault)
    return _score_raster_chunk(batch)


@shaped("(n,c,h,w)->(n,):float64")
def _score_feature_chunk(feats: np.ndarray) -> np.ndarray:
    """Worker-side feature-batch scorer (plane-feature scan path)."""
    if _WORKER_DETECTOR is None:  # pragma: no cover - initializer contract
        raise RuntimeError("worker pool used before initialization")
    return np.asarray(
        _WORKER_DETECTOR.predict_proba_features(feats), dtype=np.float64
    )


def _score_feature_chunk_task(task) -> np.ndarray:
    """Feature counterpart of :func:`_score_chunk_task`."""
    batch, fault = task
    execute_chunk_fault(fault)
    return _score_feature_chunk(batch)


class _Chunk:
    """Supervision record for one submitted chunk (payload + fate)."""

    __slots__ = (
        "payload",
        "task_fn",
        "async_result",
        "chunk_fault",
        "score_fault",
        "chunk_fault_spent",
        "score_fault_spent",
        "attempts",
        "rebuilt",
        "degraded",
    )

    def __init__(self, payload, task_fn, chunk_fault, score_fault) -> None:
        self.payload = payload
        self.task_fn = task_fn
        self.async_result = None  # None => score in-process
        self.chunk_fault = chunk_fault
        self.score_fault = score_fault
        self.chunk_fault_spent = False
        self.score_fault_spent = False
        self.attempts = 0
        self.rebuilt = False
        self.degraded = False


class WorkerPool:
    """Chunked detector scoring over 1..N processes with ordered results.

    Usable as a context manager; the process pool (if any) is created
    lazily on first use, drained gracefully on :meth:`close` (the
    ``__exit__`` path without a pending exception), and torn down hard
    by :meth:`terminate` (error paths).

    Parameters
    ----------
    chunk_timeout_s:
        Per-chunk wall-clock budget before the supervision ladder treats
        the chunk as lost (covers worker crashes and stalls).  ``None``
        disables the timeout (a dead worker then hangs the scan — only
        sensible for debugging).
    max_chunk_retries:
        Resubmissions per chunk before escalating to a pool rebuild.
    retry_backoff_s:
        Base of the exponential backoff between resubmissions.
    max_pool_rebuilds:
        Pool teardown+rebuild budget for the pool's lifetime.
    degrade_after_failures:
        Cumulative chunk-failure count after which the pool stops
        dispatching and scores everything in-process.
    on_invalid_score:
        ``"repair"`` (default) treats a NaN / out-of-range score array
        as a chunk failure (retry, then rescore in-process);
        ``"raise"`` surfaces the
        :class:`~repro.contracts.spec.ContractViolation` immediately.
    telemetry:
        Shared :class:`~repro.runtime.telemetry.Telemetry` to record
        supervision events into (the engine passes its per-scan object).
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` (or spec
        string) driving deterministic fault injection.
    tracer:
        Span tracer (:mod:`repro.runtime.trace`).  Every collected chunk
        becomes a ``chunk`` span carrying its supervision fate
        (attempts, rebuilt, degraded) and every ladder rung emits a
        point event; the default :data:`~repro.runtime.trace.NULL_TRACER`
        makes all of it free.
    """

    def __init__(
        self,
        detector,
        workers: int = 1,
        mp_context: str = "spawn",
        chunks_in_flight: int = 4,
        chunk_timeout_s: Optional[float] = 300.0,
        max_chunk_retries: int = 2,
        retry_backoff_s: float = 0.05,
        max_pool_rebuilds: int = 1,
        degrade_after_failures: int = 8,
        on_invalid_score: str = "repair",
        telemetry: Optional[Telemetry] = None,
        faults=None,
        tracer=NULL_TRACER,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if on_invalid_score not in ("repair", "raise"):
            raise ValueError("on_invalid_score must be 'repair' or 'raise'")
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        self.detector = detector
        self.workers = workers
        self.mp_context = mp_context
        self.chunks_in_flight = max(1, chunks_in_flight)
        self.chunk_timeout_s = chunk_timeout_s
        self.max_chunk_retries = max_chunk_retries
        self.retry_backoff_s = retry_backoff_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self.degrade_after_failures = max(1, degrade_after_failures)
        self.on_invalid_score = on_invalid_score
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer
        if isinstance(faults, str):
            faults = FaultInjector(faults)
        self.faults: Optional[FaultInjector] = faults
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._chunk_seq = 0
        self._rebuilds_done = 0
        self._failures_total = 0
        self._degraded = False
        # set on any sign of a lost worker (chunk timeout, dead procs);
        # a suspect pool cannot be drained safely — see close()
        self._suspect_pool = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            ctx = multiprocessing.get_context(self.mp_context)
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(detector_to_state(self.detector),),
            )
        return self._pool

    def close(self) -> None:
        """Gracefully drain in-flight chunks, then join the workers.

        A pool that showed signs of a lost worker (a chunk timeout, dead
        processes) is torn down hard instead: with a crashed worker,
        ``Pool.close(); Pool.join()`` can block forever on the lost
        task, and every result the caller asked for has already been
        collected through the supervision ladder anyway.
        """
        if self._pool is not None:
            if self._suspect_pool:
                self.terminate()
                return
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Hard teardown for error paths: kill workers without draining."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _pool_is_dead(self) -> bool:
        """True when every worker process of the live pool has exited."""
        if self._pool is None:
            return False
        procs = getattr(self._pool, "_pool", None)
        if not procs:
            return False
        return all(not p.is_alive() for p in procs)

    def _rebuild_pool(self) -> None:
        self.terminate()
        self._rebuilds_done += 1
        self.telemetry.count("pool_rebuilds")
        self.tracer.event("pool_rebuild", rebuilds=self._rebuilds_done)
        self._suspect_pool = False
        self._ensure_pool()

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def map_scores(
        self, chunks: Iterable[Sequence[Clip]]
    ) -> Iterator[np.ndarray]:
        """Score clip chunks, yielding one score array per chunk in order.

        The in-process path consumes the chunk iterable lazily; the
        multiprocess path keeps a bounded submission window so huge
        scans never materialize all chunks at once.  Every result passes
        through the supervision ladder (validate / retry / rebuild /
        degrade) before it is yielded.
        """

        def local_fn(chunk) -> np.ndarray:
            return np.asarray(
                self.detector.predict_proba(list(chunk)), dtype=np.float64
            )

        yield from self._supervised_map(
            (list(chunk) for chunk in chunks), _score_chunk_task, local_fn
        )

    def map_scores_rasters(
        self, batches: Iterable[np.ndarray]
    ) -> Iterator[np.ndarray]:
        """Score ``(n, H, W)`` raster batches, one score array per batch.

        Mirrors :meth:`map_scores` but ships dense float arrays instead
        of pickled clip lists — the raster-plane counterpart.  Order is
        preserved; ``workers=1`` stays fully in-process.
        """

        def local_fn(batch) -> np.ndarray:
            return np.asarray(
                self.detector.predict_proba_rasters(batch), dtype=np.float64
            )

        yield from self._supervised_map(
            batches, _score_raster_chunk_task, local_fn
        )

    def map_scores_features(
        self, batches: Iterable[np.ndarray]
    ) -> Iterator[np.ndarray]:
        """Score ``(n, C, h, w)`` feature-tensor batches, in order.

        The plane-feature counterpart of :meth:`map_scores_rasters`:
        the engine extracts features once per band plane and ships the
        (much smaller) per-window feature slices instead of raw window
        rasters.  Requires a detector with ``predict_proba_features``.
        """

        def local_fn(batch) -> np.ndarray:
            return np.asarray(
                self.detector.predict_proba_features(batch),
                dtype=np.float64,
            )

        yield from self._supervised_map(
            batches, _score_feature_chunk_task, local_fn
        )

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _supervised_map(
        self, payloads: Iterable, task_fn, local_fn
    ) -> Iterator[np.ndarray]:
        """Ordered, fault-tolerant dispatch shared by both score paths."""
        if self.workers == 1:
            for payload in payloads:
                yield self._collect(
                    self._new_record(payload, task_fn, local=True), local_fn
                )
            return
        pending: "deque[_Chunk]" = deque()
        payload_iter = iter(payloads)
        exhausted = False
        while True:
            while not exhausted and len(pending) < self.chunks_in_flight:
                try:
                    payload = next(payload_iter)
                except StopIteration:
                    exhausted = True
                    break
                pending.append(
                    self._new_record(payload, task_fn, local=self._degraded)
                )
            if not pending:
                return
            yield self._collect(pending.popleft(), local_fn)

    def _new_record(self, payload, task_fn, local: bool) -> _Chunk:
        chunk_fault = score_fault = None
        if self.faults is not None:
            chunk_fault = self.faults.chunk_fault()
            if chunk_fault is not None:
                self.telemetry.count(f"fault_{chunk_fault[0]}")
                self.tracer.event("fault_fired", point=chunk_fault[0])
            score_fault = self.faults.score_fault()
            if score_fault is not None:
                self.telemetry.count(f"fault_{score_fault}")
                self.tracer.event("fault_fired", point=score_fault)
        record = _Chunk(payload, task_fn, chunk_fault, score_fault)
        if not local:
            self._submit(record, first=True)
        return record

    def _submit(self, record: _Chunk, first: bool) -> None:
        """Dispatch (or re-dispatch) a chunk to the process pool."""
        fault = record.chunk_fault if first else None
        record.async_result = self._ensure_pool().apply_async(
            record.task_fn, ((record.payload, fault),)
        )

    def _score_attempt(self, record: _Chunk, local_fn) -> np.ndarray:
        """One attempt at a chunk: fetch scores, inject, validate."""
        record.attempts += 1
        if record.async_result is None:
            if record.chunk_fault is not None and not record.chunk_fault_spent:
                record.chunk_fault_spent = True
                execute_chunk_fault(record.chunk_fault, in_process=True)
            scores = local_fn(record.payload)
        else:
            scores = record.async_result.get(timeout=self.chunk_timeout_s)
        scores = np.asarray(scores, dtype=np.float64)
        if record.score_fault is not None and not record.score_fault_spent:
            record.score_fault_spent = True
            scores = corrupt_scores(scores, record.score_fault)
        require_scores(scores, func="WorkerPool.map_scores")
        return scores

    def _collect(self, record: _Chunk, local_fn) -> np.ndarray:
        """One chunk span around the supervision ladder (worker fate)."""
        self._chunk_seq += 1
        with self.tracer.span(
            "chunk",
            kind="chunk",
            seq=self._chunk_seq,
            local=record.async_result is None,
        ) as span:
            scores = self._supervise(record, local_fn)
            span.set(
                n=len(scores),
                attempts=record.attempts,
                rebuilt=record.rebuilt,
                degraded=record.degraded,
            )
        return scores

    def _supervise(self, record: _Chunk, local_fn) -> np.ndarray:
        """Drive one chunk through the supervision ladder to a score array."""
        while True:
            try:
                return self._score_attempt(record, local_fn)
            except multiprocessing.TimeoutError:
                self._suspect_pool = True
                self.telemetry.count("pool_timeouts")
                self.tracer.event("pool_timeout", attempt=record.attempts)
            except ContractViolation:
                if self.on_invalid_score == "raise":
                    raise
                self.telemetry.count("score_repairs")
                self.tracer.event("score_repair", attempt=record.attempts)
            # The fault barrier: a worker-side failure can surface as any
            # exception type (the detector's own errors included), and the
            # whole point of supervision is to retry/rescore rather than
            # lose an hours-long scan to one bad chunk.
            except Exception as exc:  # lint: disable=broad-except  (supervision fault barrier; re-raised once the retry/rebuild/degrade ladder is exhausted)
                self.telemetry.count("worker_errors")
                self.tracer.event(
                    "worker_error", attempt=record.attempts, error=repr(exc)
                )
            self._failures_total += 1
            self.telemetry.count("pool_retries")
            self.tracer.event("pool_retry", attempt=record.attempts)
            if self._failures_total >= self.degrade_after_failures:
                self._enter_degraded_mode()
            if record.attempts <= self.max_chunk_retries:
                time.sleep(
                    self.retry_backoff_s * 2.0 ** (record.attempts - 1)
                )
                self._resubmit(record)
                continue
            # retries exhausted: escalate
            if (
                record.async_result is not None
                and not record.rebuilt
                and self._rebuilds_done < self.max_pool_rebuilds
                and not self._degraded
            ):
                record.rebuilt = True
                record.attempts = 0
                self._rebuild_pool()
                self._submit(record, first=False)
                continue
            if record.async_result is not None and not record.degraded:
                # last rung: rescore this chunk on the parent's detector
                record.degraded = True
                record.attempts = 0
                record.async_result = None
                self.telemetry.count("pool_degraded_chunks")
                self.tracer.event("pool_degraded_chunk")
                continue
            # in-process scoring failed too — surface the real error
            return self._score_attempt(record, local_fn)

    def _resubmit(self, record: _Chunk) -> None:
        """Retry a chunk, rebuilding first if every worker is dead."""
        if record.async_result is None or self._degraded:
            record.async_result = None
            return
        if self._pool_is_dead():
            self._suspect_pool = True
            if self._rebuilds_done < self.max_pool_rebuilds:
                self._rebuild_pool()
        self._submit(record, first=False)

    def _enter_degraded_mode(self) -> None:
        if not self._degraded:
            self._degraded = True
            self.telemetry.count("pool_degradations")
            self.tracer.event(
                "pool_degradation", failures=self._failures_total
            )
