"""The served workload: a scan service in its own process, open-loop load.

The server is a :class:`~repro.api.ScanService` over in-memory stores
with a one-worker :class:`~repro.api.WorkerFleet`.  It runs in its own
process (``perfbench/server.py``) and takes commands on its stdin:
``trace`` installs the layer wrappers, ``stop`` shuts the service down
and sends back its spans and peak memory.

The load generator is open-loop: job ``i`` of a phase is *due* at
``start + i / rate`` whatever the service is doing.  One thread submits
each job when it is due, one thread polls the oldest outstanding job
and fetches its result; neither retries.  A job's latency runs from when
it was due until its result was fetched, so a stall also delays every
job queued behind it.  A refused, failed or timed-out job gets the
latency ``give-up time - due``, which exceeds any latency limit.
"""

from __future__ import annotations

import json
import pickle
import queue
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .ledger import JOB_SPAN
from .spans import Recorder, Span
from .stats import nearest_rank

#: job arrival rates (jobs/s): about a third and two thirds of the
#: capacity measured at the parent commit on a 2-core host, where p50
#: stayed at 14-19 ms up to 60 jobs/s and the backlog grew at 80.
RATES: Tuple[Tuple[str, float], ...] = (("low", 20.0), ("high", 40.0))

#: how often the poller asks about the job it waits on
POLL_S = 0.005
#: how long after the last due time the generator waits for results
GRACE_S = 20.0
#: socket timeout of each HTTP request
HTTP_TIMEOUT_S = 10.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: the server process's entry script
SERVER_SCRIPT = Path(__file__).resolve().with_name("server.py")


class Server:
    """Handle on the server process (see ``perfbench/server.py``).

    The detector fitted in the benchmark process is pickled to the
    server's stdin, so both processes score with the same model.
    """

    def __init__(self, detector, start_timeout_s: float = 60.0) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=SERVER_SCRIPT.parent.parent,
        )
        self._lines: "queue.Queue[Optional[bytes]]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._read, name="perfbench-server-out", daemon=True)
        self._reader.start()
        try:
            payload = pickle.dumps(detector)
            self._send(len(payload).to_bytes(8, "big") + payload)
            self.url = self._expect("ready", start_timeout_s)
        except BaseException:
            self.kill()
            raise

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _send(self, data: bytes) -> None:
        self.process.stdin.write(data)
        self.process.stdin.flush()

    def _expect(self, tag: str, timeout_s: float):
        """The payload of the server's next ``{tag: payload}`` line."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                line = self._lines.get(
                    timeout=max(deadline - time.monotonic(), 0.0))
            except queue.Empty:
                raise RuntimeError(
                    f"server sent no {tag!r} in {timeout_s}s") from None
            if line is None:
                raise RuntimeError(f"server exited before {tag!r}")
            try:
                message = json.loads(line)
            except ValueError:
                continue  # not a reply: stray output of the program
            if isinstance(message, dict) and tag in message:
                return message[tag]

    def trace(self) -> None:
        """Install the layer wrappers inside the server."""
        self._send(b"trace\n")
        self._expect("traced", 30.0)

    def stop(self) -> Dict[str, object]:
        """Stop the service; its spans and peak memory."""
        try:
            self._send(b"stop\n")
            done = self._expect("done", 60.0)
        finally:
            self.kill()
        done["spans"] = [Span(**s) for s in done["spans"]]
        return done

    def kill(self) -> None:
        """End the process (politely first) and wait for it."""
        try:
            self.process.stdin.close()
            self.process.wait(30.0)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait(10.0)
        self._reader.join(10.0)
        self.process.stdout.close()


@dataclass
class JobTiming:
    """One job of the schedule and what became of it."""

    index: int
    phase: str
    due: float
    cell: int
    sent: float = float("nan")
    job_id: Optional[str] = None
    fetched: float = float("nan")
    ok: bool = False
    error: Optional[str] = None
    document: Optional[str] = None
    requests: int = 0
    refused: bool = False

    @property
    def late(self) -> float:
        return self.sent - self.due


def schedule(start: float, rates: Sequence[Tuple[str, float]],
             per_rate: int) -> List[Tuple[str, float]]:
    """``(phase, due time)`` of every job: ``per_rate`` jobs at each
    rate, phases back to back from ``start``."""
    out: List[Tuple[str, float]] = []
    t = start
    for label, rate in rates:
        out.extend((label, t + i / rate) for i in range(per_rate))
        t += per_rate / rate
    return out


def jobs_per_rate(seconds: float) -> int:
    """Jobs per phase so that the phases of :data:`RATES` together last
    ``seconds``: every rate gets the same sample count."""
    return max(1, round(seconds / sum(1.0 / rate for _l, rate in RATES)))


def latencies(jobs: Sequence[JobTiming], gave_up: float) -> List[float]:
    """Due-to-fetched time per job; failures count up to ``gave_up``."""
    return [
        (j.fetched if j.ok else gave_up) - j.due for j in jobs
    ]


def run_load(
    url: str,
    requests: Sequence[dict],
    jobs: List[JobTiming],
    recorder: Optional[Recorder] = None,
) -> float:
    """Drive ``jobs`` (already scheduled) against ``url``; returns the
    give-up time.  Each job's outcome is written into its record."""
    from repro.api import ServiceClient
    from repro.service import ServiceError

    client = ServiceClient(url, timeout_s=HTTP_TIMEOUT_S, max_retries=0)
    handoff: "queue.Queue[Optional[JobTiming]]" = queue.Queue()
    give_up = jobs[-1].due + GRACE_S if jobs else time.perf_counter()

    def traced(name: str, job: JobTiming, fn, *args):
        job.requests += 1
        if recorder is None:
            return fn(*args)
        span = recorder.open(name, trace=job.job_id)
        try:
            return fn(*args)
        finally:
            recorder.close(span)
            span.trace = job.job_id

    def submit(job: JobTiming) -> None:
        job.job_id = str(client.submit(requests[job.index])["job_id"])

    def submitter() -> None:
        try:
            for job in jobs:
                delay = job.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                job.sent = time.perf_counter()
                try:
                    traced("loadgen.submit", job, submit, job)
                except ServiceError as exc:
                    job.refused = exc.status in (429, 503)
                    job.error = f"submit {exc.status}: {exc}"
                    continue
                except OSError as exc:
                    job.error = f"submit: {exc}"
                    continue
                handoff.put(job)
        finally:
            handoff.put(None)

    def poller() -> None:
        while True:
            job = handoff.get()
            if job is None:
                return
            try:
                while True:
                    status = traced(
                        "loadgen.poll", job, client.status, job.job_id
                    )
                    state = status["state"]
                    if state == "succeeded":
                        job.document = traced(
                            "loadgen.fetch", job, client.result, job.job_id
                        )
                        job.fetched = time.perf_counter()
                        job.ok = True
                        break
                    if state in ("failed", "cancelled", "quarantined"):
                        job.error = f"job {state}: {status.get('error')}"
                        break
                    if time.perf_counter() > give_up:
                        job.error = f"timed out {state}"
                        break
                    time.sleep(POLL_S)
            except (ServiceError, OSError) as exc:
                job.error = f"poll: {exc}"

    threads = [
        threading.Thread(target=submitter, name="perfbench-submit"),
        threading.Thread(target=poller, name="perfbench-poll"),
    ]
    for thread in threads:
        thread.start()
    wait_s = GRACE_S + 30 + (jobs[-1].due - time.perf_counter() if jobs else 0)
    for thread in threads:
        thread.join(max(wait_s, 1.0))
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    if recorder is not None:
        for job in jobs:
            if job.job_id is not None:
                recorder.add(recorder.new_span(
                    JOB_SPAN, job.job_id, job.due,
                    job.fetched if job.ok else give_up,
                ))
    return give_up


def late_p90(jobs: Sequence[JobTiming]) -> float:
    """How late the generator sent its jobs (90th percentile, s)."""
    late = [j.late for j in jobs if j.sent == j.sent]
    return nearest_rank(late, 90) if late else 0.0
