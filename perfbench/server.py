"""The served workload's server process: ``python3 perfbench/server.py``.

It reads a length-prefixed pickled detector from stdin (written by
:class:`perfbench.served.Server`), starts a
:class:`~repro.api.ScanService` over in-memory stores with a one-worker
:class:`~repro.api.WorkerFleet` on an ephemeral loopback port, and
answers one JSON line on stdout per command line on stdin:

* at start: ``{"ready": <url>}``;
* ``trace``: installs the layer wrappers, answers ``{"traced": true}``;
* ``stop`` (or end of input): stops the service, answers
  ``{"done": {"spans": [...], "peak_rss_mb": ...}}`` and exits.
"""

import json
import pickle
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reply(tag: str, payload) -> None:
    sys.stdout.write(json.dumps({tag: payload}) + "\n")
    sys.stdout.flush()


def main() -> int:
    import repro.api as api
    from perfbench import ledger
    from perfbench.served import peak_rss_mb
    from perfbench.spans import Patch, Recorder

    stdin = sys.stdin.buffer
    size = int.from_bytes(stdin.read(8), "big")
    detector = pickle.loads(stdin.read(size))

    manager = api.JobManager.in_memory()
    fleet = api.WorkerFleet(manager, detector, workers=1)
    service = api.ScanService(manager, fleet, port=0).start()
    recorder = patch = None
    try:
        reply("ready", service.url)
        for line in stdin:
            command = line.strip().decode()
            if command == "trace" and patch is None:
                recorder = Recorder()
                patch = Patch(recorder, ledger.SERVER_TARGETS).install()
                reply("traced", True)
            elif command == "stop":
                break
    finally:
        service.stop()
        if patch is not None:
            patch.restore()
    spans = [asdict(s) for s in recorder.spans()] if recorder else []
    reply("done", {"spans": spans, "peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    sys.exit(main())
