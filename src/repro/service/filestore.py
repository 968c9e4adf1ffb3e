"""File-backed adapters: crash-safe persistence for the service state.

One directory tree per service instance::

    <root>/jobs/<job_id>.json            job records
    <root>/queue/<seq>-<job_id>.entry    pending dispatch order
    <root>/results/<job_id>.result.json  verbatim report + metrics

Durability rules, shared with every persisted format through
:mod:`repro.durable`:

* every write is **atomic**; a crash mid-write never leaves a
  half-record visible,
* records and results are checksummed; a truncated, damaged or
  unknown-schema entry found on read is **quarantined** (renamed
  ``*.quarantined``) and reported through the adapter's
  ``on_quarantine`` hook instead of crashing the fleet — evidence is
  preserved, service keeps running,
* records and results written before they were checksummed still
  load, unverified, so a new build can take over an old state dir,
* queue entries are *hints*, not truth: :meth:`JobManager.recover
  <repro.service.manager.JobManager.recover>` rebuilds the queue from
  the job store after a restart, so a crash between queue-pop and
  job-claim loses nothing and duplicates nothing.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Union

from ..durable import (
    CorruptFile,
    dump_json,
    load_json,
    quarantine_file,
    write_atomic,
)
from .jobs import JOB_SCHEMA, JobRecord
from .ports import (
    JobNotFound,
    JobQueue,
    JobStore,
    ResultStore,
    StoredResult,
)

PathLike = Union[str, Path]

#: signature of the corrupt-entry hook: (kind, quarantined_path)
QuarantineHook = Callable[[str, Path], None]

#: bump when the result file layout changes incompatibly
RESULT_SCHEMA = 1


def _quarantine(path: Path, kind: str, hook: Optional[QuarantineHook]) -> None:
    quarantined = quarantine_file(path)
    if hook is not None:
        hook(kind, quarantined)


class FileJobStore(JobStore):
    """One JSON document per job under ``<root>/jobs/``."""

    def __init__(
        self, root: PathLike, on_quarantine: Optional[QuarantineHook] = None
    ) -> None:
        self.dir = Path(root) / "jobs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.on_quarantine = on_quarantine
        self._lock = threading.RLock()

    def _path(self, job_id: str) -> Path:
        return self.dir / f"{job_id}.json"

    def _read(self, path: Path) -> Optional[JobRecord]:
        """Parse one record file; quarantine instead of raising on junk."""
        try:
            return JobRecord.from_dict(
                load_json(path, (JOB_SCHEMA,), unverified=(1, 2))
            )
        except FileNotFoundError:
            return None
        except (KeyError, TypeError, ValueError):
            # CorruptFile is a ValueError; the others come from an
            # unverified schema-1/2 record that from_dict cannot parse
            _quarantine(path, "job", self.on_quarantine)
            return None

    def put(self, record: JobRecord) -> None:
        with self._lock:
            dump_json(self._path(record.job_id), record.to_dict())

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._read(self._path(job_id))

    def update(
        self, job_id: str, mutate: Callable[[JobRecord], Optional[JobRecord]]
    ) -> Optional[JobRecord]:
        with self._lock:
            record = self._read(self._path(job_id))
            if record is None:
                raise JobNotFound(job_id)
            replacement = mutate(record)
            if replacement is not None:
                self.put(replacement)
            return replacement

    def list_records(self) -> List[JobRecord]:
        with self._lock:
            records = []
            for path in sorted(self.dir.glob("*.json")):
                record = self._read(path)
                if record is not None:
                    records.append(record)
            return sorted(records, key=lambda r: r.seq)

    def delete(self, job_id: str) -> bool:
        with self._lock:
            path = self._path(job_id)
            if not path.exists():
                return False
            path.unlink()
            return True


class FileJobQueue(JobQueue):
    """Pending order as empty marker files under ``<root>/queue/``.

    Entry names are ``<seq>-<job_id>.entry`` with a strictly increasing
    zero-padded sequence (resumed past the largest on-disk entry at
    startup), so lexicographic order *is* FIFO order across restarts.
    ``pop`` unlinks the entry it returns — at-most-once dispatch from
    the queue's side; exactly-once execution is the job store's atomic
    claim, which tolerates both lost and duplicated queue entries.
    """

    _POLL_S = 0.05

    def __init__(self, root: PathLike) -> None:
        self.dir = Path(root) / "queue"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Condition()
        existing = [
            int(p.name.split("-", 1)[0])
            for p in self.dir.glob("*.entry")
            if p.name.split("-", 1)[0].isdigit()
        ]
        self._seq = (max(existing) + 1) if existing else 0

    def _entries(self) -> List[Path]:
        return sorted(self.dir.glob("*.entry"))

    def push(self, job_id: str) -> None:
        with self._lock:
            path = self.dir / f"{self._seq:020d}-{job_id}.entry"
            self._seq += 1
            write_atomic(path, b"")
            self._lock.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[str]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                entries = self._entries()
                if entries:
                    head = entries[0]
                    head.unlink()
                    name = head.name[: -len(".entry")]
                    return name.split("-", 1)[1]
                # wake on same-process pushes; poll for foreign writers
                if deadline is None:
                    self._lock.wait(self._POLL_S)
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._lock.wait(min(self._POLL_S, remaining))

    def clear(self) -> None:
        with self._lock:
            for path in self._entries():
                path.unlink()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries())


class FileResultStore(ResultStore):
    """One checksummed ``<job_id>.result.json`` per finished job.

    The report is stored **verbatim** (the exact ``ScanReport.to_json``
    string, as one JSON string field) so a fetched result is
    byte-identical to what the worker produced; the metrics snapshot
    sits beside it in the same document.
    """

    def __init__(
        self, root: PathLike, on_quarantine: Optional[QuarantineHook] = None
    ) -> None:
        self.dir = Path(root) / "results"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.on_quarantine = on_quarantine
        self._lock = threading.RLock()

    def _path(self, job_id: str, kind: str = "result") -> Path:
        return self.dir / f"{job_id}.{kind}.json"

    def put(self, result: StoredResult) -> None:
        with self._lock:
            dump_json(
                self._path(result.job_id),
                {
                    "schema": RESULT_SCHEMA,
                    "document": result.document,
                    "metrics": result.metrics,
                },
            )

    def get(self, job_id: str) -> Optional[StoredResult]:
        with self._lock:
            path = self._path(job_id)
            try:
                stored = load_json(path, (RESULT_SCHEMA,))
            except FileNotFoundError:
                return self._get_unverified(job_id)
            except CorruptFile:
                _quarantine(path, "result", self.on_quarantine)
                return None
            return StoredResult(
                job_id=job_id,
                document=stored["document"],
                metrics=stored["metrics"],
            )

    def _get_unverified(self, job_id: str) -> Optional[StoredResult]:
        """A result written before results were checksummed: the
        verbatim ``.report.json`` (report schema 1 or 2) beside its
        ``.metrics.json`` (metrics schema 1)."""
        report = self._path(job_id, "report")
        try:
            load_json(report, (), unverified=(1, 2))
            document = report.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except CorruptFile:
            _quarantine(report, "result", self.on_quarantine)
            return None
        metrics, snapshot = self._path(job_id, "metrics"), {}
        try:
            snapshot = load_json(metrics, (), unverified=(1,))
        except FileNotFoundError:
            pass
        except CorruptFile:
            _quarantine(metrics, "metrics", self.on_quarantine)
        return StoredResult(job_id=job_id, document=document, metrics=snapshot)

    def delete(self, job_id: str) -> bool:
        with self._lock:
            removed = False
            for kind in ("result", "report", "metrics"):
                path = self._path(job_id, kind)
                if path.exists():
                    path.unlink()
                    removed = True
            return removed
