"""The fused inference backend: parity, quantization gate, wiring.

The contract under test is the one the scan path relies on: a compiled
:class:`~repro.nn.infer.InferencePlan` is the *same function* as the
eval-mode layer-by-layer forward (float mode: logits within 1e-10 for
every zoo architecture), the int8 mode refuses to ship a model it has
measurably damaged, and the plan never allocates per call (the
``Workspace`` hands back the same buffers).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    BACKENDS,
    CNNDetector,
    CNNDetectorConfig,
    Dense,
    PlanCompileError,
    QuantizationError,
    Sequential,
    Workspace,
    build_feature_tensor_cnn,
    build_mlp,
    build_raster_cnn,
    compile_plan,
    quantization_report,
)
from repro.nn.binary import build_binary_cnn
from repro.nn.layers import BatchNorm


def _randomize_bn(model, rng):
    """Give BatchNorm non-trivial running stats (as training would)."""
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            layer.running_mean = rng.normal(
                scale=0.5, size=layer.running_mean.shape
            )
            layer.running_var = rng.uniform(
                0.5, 2.0, size=layer.running_var.shape
            )


def _build(arch, rng):
    """(model, input shape) for every zoo architecture, sized small."""
    if arch == "feature-tensor-cnn":
        return build_feature_tensor_cnn(4, 8, rng, width=8), (4, 8, 8)
    if arch == "raster-cnn":
        return build_raster_cnn(24, rng, width=4), (1, 24, 24)
    if arch == "mlp":
        return build_mlp(10, rng, hidden=(16, 8)), (10,)
    raise AssertionError(arch)


ARCHES = ("feature-tensor-cnn", "raster-cnn", "mlp")


class TestFloatParity:
    @pytest.mark.parametrize("arch", ARCHES)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fused_matches_layer_by_layer(self, arch, seed):
        rng = np.random.default_rng(seed)
        model, shape = _build(arch, rng)
        _randomize_bn(model, rng)
        model.train_mode(False)
        x = rng.normal(size=(5,) + shape)

        plan = compile_plan(model)
        np.testing.assert_allclose(
            plan.forward(x), model.forward(x), rtol=0, atol=1e-10
        )

    def test_repeated_calls_stay_consistent(self):
        # workspace reuse must not leak state between batches
        rng = np.random.default_rng(3)
        model, shape = _build("raster-cnn", rng)
        _randomize_bn(model, rng)
        model.train_mode(False)
        plan = compile_plan(model)
        a = rng.normal(size=(4,) + shape)
        b = rng.normal(size=(4,) + shape)
        plan.forward(a)
        got_b = plan.forward(b).copy()
        np.testing.assert_allclose(got_b, model.forward(b), atol=1e-10)
        np.testing.assert_allclose(
            plan.forward(a), model.forward(a), atol=1e-10
        )

    def test_partial_batch_after_full_batch(self):
        # last band chunk is smaller: buffers must resize correctly
        rng = np.random.default_rng(4)
        model, shape = _build("feature-tensor-cnn", rng)
        model.train_mode(False)
        plan = compile_plan(model)
        full = rng.normal(size=(8,) + shape)
        plan.forward(full)
        np.testing.assert_allclose(
            plan.forward(full[:3]), model.forward(full[:3]), atol=1e-10
        )

    def test_predict_proba_is_softmax_of_logits(self):
        rng = np.random.default_rng(5)
        model, shape = _build("mlp", rng)
        model.train_mode(False)
        plan = compile_plan(model)
        x = rng.normal(size=(6,) + shape)
        probs = plan.predict_proba(x, batch_size=4)
        assert probs.dtype == np.float64 and probs.shape == (6,)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_describe_shows_fusion(self):
        rng = np.random.default_rng(6)
        model, _ = _build("raster-cnn", rng)
        plan = compile_plan(model)
        text = plan.describe()
        # BN folded into convs, ReLU fused: no standalone affine/relu ops
        assert "conv+relu" in text and "affine" not in text
        assert " relu" not in text


class TestBatchInvariance:
    """A window's logits must not depend on the batch it is scored in.

    Shards, band tails and dedup residues all hand the plan different
    batch sizes for the same windows; byte-identical chip reports need
    every window's score to be the same bits whatever the batch.
    """

    BATCH_SIZES = (1, 2, 7, 37, 63, 64, 100)

    @staticmethod
    def _logits(plan, x, batch_size):
        return np.concatenate([
            np.array(plan.forward(x[i : i + batch_size]), copy=True)
            for i in range(0, len(x), batch_size)
        ])

    @pytest.mark.parametrize("mode", ["float", "int8"])
    @pytest.mark.parametrize("arch", ARCHES)
    def test_logits_bit_identical_across_batch_sizes(self, arch, mode):
        rng = np.random.default_rng(21)
        model, shape = _build(arch, rng)
        _randomize_bn(model, rng)
        model.train_mode(False)
        plan = compile_plan(model, mode=mode)
        x = rng.normal(size=(150,) + shape)
        ref = self._logits(plan, x, 64)
        for b in self.BATCH_SIZES:
            got = self._logits(plan, x, b)
            mismatched = int(np.sum(got != ref))
            assert mismatched == 0, (arch, mode, b, mismatched)


class TestStats:
    def test_fixed_counter_key_set(self):
        rng = np.random.default_rng(7)
        model, shape = _build("mlp", rng)
        plan = compile_plan(model)
        expected = {"infer_batches", "infer_windows", "infer_int8_windows"}
        assert set(plan.stats) == expected
        plan.forward(rng.normal(size=(3,) + shape))
        assert plan.stats["infer_batches"] == 1
        assert plan.stats["infer_windows"] == 3
        assert plan.stats["infer_int8_windows"] == 0  # float plan
        plan.reset_stats()
        assert set(plan.stats) == expected
        assert all(v == 0 for v in plan.stats.values())

    def test_int8_windows_counted_in_int8_mode(self):
        rng = np.random.default_rng(8)
        model, shape = _build("mlp", rng)
        plan = compile_plan(model, mode="int8")
        plan.forward(rng.normal(size=(4,) + shape))
        assert plan.stats["infer_int8_windows"] == 4


class TestWorkspace:
    def test_buffers_persist_across_calls(self):
        ws = Workspace()
        a = ws.empty(("x",), (4, 4), np.dtype(np.float64))
        b = ws.empty(("x",), (4, 4), np.dtype(np.float64))
        assert a is b

    def test_shape_change_reallocates_only_that_buffer(self):
        ws = Workspace()
        a = ws.empty(("a",), (4,), np.dtype(np.float64))
        b = ws.empty(("b",), (4,), np.dtype(np.float64))
        a2 = ws.empty(("a",), (8,), np.dtype(np.float64))
        assert a2 is not a
        assert ws.empty(("b",), (4,), np.dtype(np.float64)) is b

    def test_zeros_not_rezeroed_on_reuse(self):
        # conv padding relies on the halo staying zero while the
        # interior is overwritten; re-zeroing every call would defeat
        # the persistent-buffer design
        ws = Workspace()
        buf = ws.zeros(("z",), (3,), np.dtype(np.float64))
        assert (buf == 0).all()
        buf[:] = 7.0
        again = ws.zeros(("z",), (3,), np.dtype(np.float64))
        assert again is buf and (again == 7.0).all()

    def test_nbytes_and_clear(self):
        ws = Workspace()
        ws.empty(("x",), (10,), np.dtype(np.float64))
        assert ws.nbytes() == 80
        ws.clear()
        assert ws.nbytes() == 0


class TestCompileErrors:
    def test_binary_layers_rejected(self):
        rng = np.random.default_rng(9)
        model = build_binary_cnn(4, 8, rng, width=8)
        with pytest.raises(PlanCompileError):
            compile_plan(model)

    def test_bad_mode_rejected(self):
        rng = np.random.default_rng(10)
        model, _ = _build("mlp", rng)
        with pytest.raises(ValueError, match="mode"):
            compile_plan(model, mode="int4")


class TestQuantizationGate:
    def _model_and_calibration(self, seed=11):
        rng = np.random.default_rng(seed)
        model, shape = _build("mlp", rng)
        model.train_mode(False)
        calibration = rng.normal(size=(64,) + shape)
        return model, calibration

    def test_gate_rejects_over_quantized_model(self):
        # blow up one weight element per output column: the per-channel
        # scale then quantizes the remaining (information-carrying)
        # weights to a handful of levels, and the probabilities drift
        # beyond any reasonable budget
        model, calibration = self._model_and_calibration()
        first = next(l for l in model.layers if isinstance(l, Dense))
        first.w.value[0, :] = 300.0 * np.sign(first.w.value[0, :] + 1e-9)
        with pytest.raises(QuantizationError, match="REJECT"):
            compile_plan(
                model,
                mode="int8",
                calibration=calibration,
                max_delta_proba=1e-6,
            )

    def test_gate_passes_well_conditioned_model(self):
        model, calibration = self._model_and_calibration()
        plan = compile_plan(
            model, mode="int8", calibration=calibration,
            max_delta_proba=0.05, max_flag_disagreement=0.05,
        )
        assert plan.quant_report is not None
        assert plan.quant_report.passed
        assert "PASS" in plan.quant_report.summary()
        # gating ran the calibration through both plans; stats were reset
        assert plan.stats["infer_windows"] == 0

    def test_int8_round_trip_stays_close_when_gated(self):
        model, calibration = self._model_and_calibration()
        float_plan = compile_plan(model)
        int8_plan = compile_plan(model, mode="int8")
        report = quantization_report(
            float_plan, int8_plan, calibration, max_delta_proba=0.05
        )
        assert report.max_delta_proba <= 0.05

    def test_empty_calibration_rejected(self):
        model, calibration = self._model_and_calibration()
        with pytest.raises(ValueError, match="non-empty"):
            quantization_report(
                compile_plan(model),
                compile_plan(model, mode="int8"),
                calibration[:0],
            )


class TestDetectorBackends:
    @pytest.fixture(scope="class")
    def fitted(self):
        from repro.data.benchmarks import SUITE_CONFIGS
        from repro.data.dataset import ClipDataset
        from repro.data.synth import generate_clips
        from repro.litho import HotspotOracle

        rng = np.random.default_rng(0)
        clips, _ = generate_clips(rng, SUITE_CONFIGS[0].mix, 48, 768, 256)
        labels = HotspotOracle().label_many(clips)
        train = ClipDataset(name="t", clips=clips, labels=labels)
        det = CNNDetector(
            CNNDetectorConfig(epochs=2, biased_epsilon=None)
        )
        det.fit(train, rng=np.random.default_rng(1))
        return det, clips

    def test_backend_validation(self, fitted):
        det, _ = fitted
        with pytest.raises(ValueError, match="backend"):
            det.set_backend("tensorrt")

    def test_fused_scores_match_layers(self, fitted):
        det, clips = fitted
        base = det.predict_proba(clips)
        det.set_backend("fused")
        fused = det.predict_proba(clips)
        np.testing.assert_allclose(fused, base, rtol=0, atol=1e-10)
        assert (fused >= det.threshold).tolist() == (
            base >= det.threshold
        ).tolist()
        assert det.infer_stats()["infer_windows"] == len(clips)
        det.set_backend("layers")

    def test_int8_backend_passes_gate_and_agrees_on_flags(self, fitted):
        det, clips = fitted
        base = det.predict_proba(clips)
        det.set_backend("fused-int8")
        quant = det.predict_proba(clips)
        report = det._get_plan().quant_report
        assert report is not None and report.passed
        assert (quant >= det.threshold).tolist() == (
            base >= det.threshold
        ).tolist()
        det.set_backend("layers")

    def test_backend_survives_save_load(self, fitted, tmp_path):
        det, clips = fitted
        det.set_backend("fused")
        det.save(tmp_path / "m.npz")
        loaded = CNNDetector.load(tmp_path / "m.npz")
        assert loaded.backend == "fused"
        np.testing.assert_allclose(
            loaded.predict_proba(clips[:8]),
            det.predict_proba(clips[:8]),
            atol=1e-10,
        )
        det.set_backend("layers")

    def test_plan_not_pickled(self, fitted):
        import pickle

        det, _ = fitted
        det.set_backend("fused")
        assert det._plan is not None
        clone = pickle.loads(pickle.dumps(det))
        assert clone._plan is None  # recompiled lazily on first use
        det.set_backend("layers")


class TestEngineWiring:
    def test_engine_rejects_backend_on_unaware_detector(self):
        from repro.runtime import EngineConfig, ScanEngine
        from repro.shallow import make_logistic_density

        config = EngineConfig.from_kwargs(infer_backend="fused")
        with pytest.raises(TypeError, match="infer_backend"):
            ScanEngine(make_logistic_density(), config=config)

    def test_config_rejects_unknown_backend(self):
        from repro.runtime import EngineConfig

        with pytest.raises(ValueError, match="infer_backend"):
            EngineConfig.from_kwargs(infer_backend="cuda")

    def test_backends_tuple_is_the_contract(self):
        assert BACKENDS == ("layers", "fused", "fused-int8")
