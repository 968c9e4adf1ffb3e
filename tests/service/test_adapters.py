"""Port contracts across both adapter families, plus file durability."""

import json
import threading

import pytest

from repro.service import (
    FileJobQueue,
    FileJobStore,
    FileResultStore,
    InMemoryJobQueue,
    InMemoryJobStore,
    InMemoryResultStore,
    JobNotFound,
    JobRecord,
    JobState,
    NullRateLimiter,
    StoredResult,
    TokenBucketRateLimiter,
)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryJobStore()
    return FileJobStore(tmp_path)


@pytest.fixture(params=["memory", "file"])
def queue(request, tmp_path):
    if request.param == "memory":
        return InMemoryJobQueue()
    return FileJobQueue(tmp_path)


@pytest.fixture(params=["memory", "file"])
def results(request, tmp_path):
    if request.param == "memory":
        return InMemoryResultStore()
    return FileResultStore(tmp_path)


def make_record(job_id="j1", **kwargs) -> JobRecord:
    return JobRecord(job_id=job_id, request={"schema": 1}, **kwargs)


class TestJobStoreContract:
    def test_put_get_round_trip(self, store):
        record = make_record()
        store.put(record)
        assert store.get("j1") == record

    def test_get_unknown_is_none(self, store):
        assert store.get("nope") is None

    def test_update_is_read_modify_write(self, store):
        store.put(make_record())
        updated = store.update(
            "j1", lambda r: r.transition(JobState.RUNNING, attempts=1)
        )
        assert updated.state is JobState.RUNNING
        assert store.get("j1").attempts == 1

    def test_update_none_means_unchanged(self, store):
        record = make_record()
        store.put(record)
        assert store.update("j1", lambda r: None) is None
        assert store.get("j1") == record

    def test_update_unknown_raises(self, store):
        with pytest.raises(JobNotFound):
            store.update("nope", lambda r: r)

    def test_list_records_ordered_by_seq(self, store):
        records = [make_record(f"j{i}") for i in range(3)]
        for record in reversed(records):  # insertion order scrambled
            store.put(record)
        assert [r.job_id for r in store.list_records()] == ["j0", "j1", "j2"]

    def test_delete(self, store):
        store.put(make_record())
        assert store.delete("j1") is True
        assert store.get("j1") is None
        assert store.delete("j1") is False


class TestJobQueueContract:
    def test_fifo(self, queue):
        for i in range(3):
            queue.push(f"j{i}")
        assert [queue.pop(0.01) for _ in range(3)] == ["j0", "j1", "j2"]

    def test_pop_timeout_returns_none(self, queue):
        assert queue.pop(0.01) is None

    def test_len_and_clear(self, queue):
        queue.push("a")
        queue.push("b")
        assert len(queue) == 2
        queue.clear()
        assert len(queue) == 0
        assert queue.pop(0.01) is None

    def test_pop_wakes_on_push(self, queue):
        got = []

        def popper():
            got.append(queue.pop(5.0))

        thread = threading.Thread(target=popper)
        thread.start()
        queue.push("late")
        thread.join(timeout=5.0)
        assert got == ["late"]


class TestResultStoreContract:
    def test_round_trip_document_verbatim(self, results):
        document = '{"schema": 3, "scores": [0.25]}'
        results.put(
            StoredResult(job_id="j1", document=document, metrics={"n": 1})
        )
        stored = results.get("j1")
        assert stored.document == document  # byte-for-byte
        assert stored.metrics == {"n": 1}

    def test_get_unknown_is_none(self, results):
        assert results.get("nope") is None

    def test_delete(self, results):
        results.put(StoredResult(job_id="j1", document="{}", metrics={}))
        assert results.delete("j1") is True
        assert results.get("j1") is None
        assert results.delete("j1") is False


class TestFileDurability:
    def test_job_records_survive_reopen(self, tmp_path):
        FileJobStore(tmp_path).put(make_record())
        assert FileJobStore(tmp_path).get("j1").job_id == "j1"

    def test_queue_order_survives_reopen(self, tmp_path):
        first = FileJobQueue(tmp_path)
        first.push("a")
        first.push("b")
        reopened = FileJobQueue(tmp_path)
        assert reopened.pop(0.01) == "a"
        # new pushes sequence after the surviving entries
        reopened.push("c")
        assert reopened.pop(0.01) == "b"
        assert reopened.pop(0.01) == "c"

    def test_corrupt_job_file_quarantined(self, tmp_path):
        seen = []
        store = FileJobStore(
            tmp_path, on_quarantine=lambda kind, p: seen.append((kind, p))
        )
        store.put(make_record())
        path = tmp_path / "jobs" / "j1.json"
        path.write_text('{"schema": 1, "job_id": ')  # truncated write
        assert store.get("j1") is None
        assert not path.exists()
        quarantined = list((tmp_path / "jobs").glob("*.quarantined"))
        assert len(quarantined) == 1
        assert seen == [("job", quarantined[0])]

    def test_corrupt_job_skipped_in_listing(self, tmp_path):
        store = FileJobStore(tmp_path)
        store.put(make_record("good"))
        (tmp_path / "jobs" / "bad.json").write_text("not json")
        assert [r.job_id for r in store.list_records()] == ["good"]

    def test_corrupt_result_quarantined(self, tmp_path):
        seen = []
        results = FileResultStore(
            tmp_path, on_quarantine=lambda kind, p: seen.append(kind)
        )
        results.put(StoredResult(job_id="j1", document="{}", metrics={}))
        (tmp_path / "results" / "j1.result.json").write_text('{"trunc')
        assert results.get("j1") is None
        assert list((tmp_path / "results").glob("*.quarantined"))
        assert seen == ["result"]

    def test_writes_are_atomic_no_tmp_left_behind(self, tmp_path):
        store = FileJobStore(tmp_path)
        store.put(make_record())
        assert not list((tmp_path / "jobs").glob("*.tmp"))
        payload = json.loads((tmp_path / "jobs" / "j1.json").read_text())
        assert payload["job_id"] == "j1"


class TestRateLimiters:
    def test_token_bucket_exhausts_and_refills(self):
        clock = [0.0]
        limiter = TokenBucketRateLimiter(
            rate=1.0, burst=2, clock=lambda: clock[0]
        )
        assert limiter.allow("c") and limiter.allow("c")
        assert not limiter.allow("c")  # burst spent
        clock[0] += 1.0  # one token accrues
        assert limiter.allow("c")
        assert not limiter.allow("c")

    def test_buckets_are_per_client(self):
        limiter = TokenBucketRateLimiter(rate=1.0, burst=1, clock=lambda: 0.0)
        assert limiter.allow("a")
        assert not limiter.allow("a")
        assert limiter.allow("b")

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucketRateLimiter(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucketRateLimiter(rate=1.0, burst=0)

    def test_null_limiter_always_allows(self):
        limiter = NullRateLimiter()
        assert all(limiter.allow("x") for _ in range(100))
