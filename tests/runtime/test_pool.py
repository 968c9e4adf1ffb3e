"""Tests for the scoring worker pool and detector state shipping.

The ``workers=2`` cases use real library detectors (not test doubles):
the ``spawn`` start method re-imports modules in the child, so shipped
detectors must come from importable modules.
"""

import numpy as np
import pytest

from repro.core.detector import detector_from_state, detector_to_state
from repro.runtime import WorkerPool
from repro.shallow import make_logistic_density

from .conftest import DensityDetector, tiny_grating_dataset


def _fitted_logistic():
    det = make_logistic_density()
    det.fit(tiny_grating_dataset(), rng=np.random.default_rng(1))
    return det


def _map_scores(pool, clips, chunk_clips):
    """All scores of ``clips``, dispatched in ``chunk_clips``-sized chunks."""
    chunks = [
        clips[i : i + chunk_clips] for i in range(0, len(clips), chunk_clips)
    ]
    return np.concatenate(list(pool.map_scores(chunks)))


class TestDetectorState:
    def test_round_trip_preserves_scores(self):
        det = _fitted_logistic()
        clips = tiny_grating_dataset(n=8, seed=3).clips
        clone = detector_from_state(detector_to_state(det))
        assert np.array_equal(
            det.predict_proba(clips), clone.predict_proba(clips)
        )
        assert clone.threshold == det.threshold

    def test_non_detector_state_rejected(self):
        with pytest.raises(TypeError):
            detector_from_state(detector_to_state({"not": "a detector"}))

    def test_method_form(self):
        det = DensityDetector()
        clone = type(det).from_state(det.to_state())
        assert clone.cutoff == det.cutoff


class TestInProcess:
    def test_single_worker_scores_in_order(self):
        det = DensityDetector(0.3)
        clips = tiny_grating_dataset(n=12, seed=5).clips
        pool = WorkerPool(det, workers=1)
        scores = _map_scores(pool, clips, chunk_clips=5)
        assert np.array_equal(scores, det.predict_proba(clips))

    def test_empty_clip_list(self):
        pool = WorkerPool(DensityDetector(), workers=1)
        assert list(pool.map_scores([])) == []

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(DensityDetector(), workers=0)

    def test_map_scores_streams_lazily(self):
        """The in-process path must pull chunks one at a time."""
        det = DensityDetector(0.3)
        clips = tiny_grating_dataset(n=6, seed=5).clips
        pulled = []

        def chunks():
            for i in range(0, len(clips), 2):
                pulled.append(i)
                yield clips[i : i + 2]

        it = WorkerPool(det, workers=1).map_scores(chunks())
        next(it)
        assert pulled == [0]  # only the first chunk was materialized


class TestMultiprocess:
    def test_spawn_pool_byte_identical(self):
        """workers=2 must reproduce workers=1 scores exactly."""
        det = _fitted_logistic()
        clips = tiny_grating_dataset(n=10, seed=7).clips
        sequential = _map_scores(WorkerPool(det, workers=1), clips, 3)
        with WorkerPool(det, workers=2) as pool:
            parallel = _map_scores(pool, clips, 3)
        assert sequential.tobytes() == parallel.tobytes()


class TestLifecycle:
    def test_interrupted_map_scores_leaks_no_children(self):
        """Abandoning the result iterator mid-scan must not leak workers."""
        import multiprocessing

        det = _fitted_logistic()
        clips = tiny_grating_dataset(n=12, seed=5).clips
        chunks = [clips[i : i + 3] for i in range(0, 12, 3)]
        with WorkerPool(det, workers=2) as pool:
            gen = pool.map_scores(iter(chunks))
            next(gen)  # consume one chunk, walk away from the rest
        assert pool._pool is None
        assert multiprocessing.active_children() == []

    def test_exit_with_exception_terminates(self):
        import multiprocessing

        det = _fitted_logistic()
        clips = tiny_grating_dataset(n=6, seed=5).clips
        with pytest.raises(RuntimeError, match="boom"):
            with WorkerPool(det, workers=2) as pool:
                next(pool.map_scores(iter([clips])))
                raise RuntimeError("boom")
        assert pool._pool is None
        assert multiprocessing.active_children() == []

    def test_close_without_use_is_noop(self):
        pool = WorkerPool(DensityDetector(), workers=2)
        pool.close()
        pool.terminate()
        assert pool._pool is None
