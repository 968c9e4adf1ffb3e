"""The job-request wire format and the canonical report projection.

``POST /jobs`` carries one JSON document — the layout geometry plus the
scan configuration — validated here on the way in and turned back into
engine-native objects by the worker:

.. code-block:: json

    {
      "schema": 1,
      "layer": {"name": "metal1", "polygons": [[[x1, y1, x2, y2], "..."]]},
      "region": [0, 0, 4096, 4096],
      "window_nm": 768,
      "core_nm": 256,
      "step_nm": null,
      "engine": {"workers": 1, "chunk_clips": 256}
    }

A layer serializes as each polygon's normalized rect decomposition —
:class:`~repro.geometry.polygon.Polygon` stores maximal horizontal
slabs, so ``decode_layer(encode_layer(layer))`` rebuilds geometry whose
clip fingerprints (and therefore scan scores) are identical to the
original's.

``engine`` accepts flat option names — the ones
:meth:`EngineConfig.from_kwargs <repro.runtime.EngineConfig.from_kwargs>`
maps through :data:`~repro.runtime.LEGACY_KWARGS` — restricted to
:data:`ALLOWED_ENGINE_KWARGS`, the policy knobs a *client* may choose.
Paths and sinks (cache/checkpoint/trace directories, progress
callables) are service-side resources and are refused at validation
time.

:func:`canonical_report_json` is the determinism contract of the
service: the projection of a :meth:`ScanReport.to_json()
<repro.runtime.ScanReport.to_json>` document onto its reproducible
fields (geometry, scores, flags — not wall time or telemetry).  Two
runs of the same request — direct vs through the service, uninterrupted
vs killed-and-resumed — produce byte-identical canonical documents.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..geometry import Layer, Polygon, Rect
from ..runtime import EngineConfig

#: bump when the job-request layout changes incompatibly
JOB_REQUEST_SCHEMA = 1

#: engine knobs a client may set (flat option names for from_kwargs)
ALLOWED_ENGINE_KWARGS: Tuple[str, ...] = (
    "workers",
    "chunk_clips",
    "dedup",
    "max_cache_entries",
    "raster_plane",
    "band_rows",
    "max_plane_pixels",
    "chunk_timeout_s",
    "max_chunk_retries",
    "retry_backoff_s",
    "max_pool_rebuilds",
    "degrade_after_failures",
    "on_invalid_score",
    "checkpoint_every_chunks",
)

#: chip scale-out knobs a client may set (ChipScanConfig policy names);
#: manifest/rescan paths are service-side resources and are refused
ALLOWED_CHIP_KWARGS: Tuple[str, ...] = (
    "shards",
    "halo_nm",
    "snap_nm",
    "instance_dedup",
)

#: the deterministic ScanReport fields the canonical projection keeps
CANONICAL_REPORT_FIELDS: Tuple[str, ...] = (
    "schema",
    "scan_path",
    "n_windows",
    "centers",
    "scores",
    "flagged",
    "confirmed",
)


class WireError(ValueError):
    """A malformed or disallowed job request (HTTP 400)."""


# --------------------------------------------------------------------------
# layer geometry
# --------------------------------------------------------------------------
def encode_layer(layer: Layer) -> Dict[str, object]:
    """Serialize a layer as its polygons' rect decompositions."""
    return {
        "name": layer.name,
        "polygons": [
            [[r.x1, r.y1, r.x2, r.y2] for r in poly.rects]
            for poly in layer.polygons
        ],
    }


def decode_layer(payload: Dict[str, object]) -> Layer:
    """Rebuild the layer serialized by :func:`encode_layer`."""
    try:
        name = str(payload["name"])
        layer = Layer(name)
        for poly_rects in payload["polygons"]:
            layer.add(
                Polygon(
                    tuple(
                        Rect(int(x1), int(y1), int(x2), int(y2))
                        for x1, y1, x2, y2 in poly_rects
                    )
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad layer payload: {exc}") from exc
    return layer


# --------------------------------------------------------------------------
# job requests
# --------------------------------------------------------------------------
def encode_job_request(
    layer: Layer,
    region: Rect,
    window_nm: int = 768,
    core_nm: int = 256,
    step_nm: Optional[int] = None,
    engine: Optional[Dict[str, object]] = None,
    deadline_s: Optional[float] = None,
    attempt_deadline_s: Optional[float] = None,
    chip: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build (and validate) the submit payload for one scan job.

    ``deadline_s`` budgets the job's total wall clock from submission
    (queue wait included); ``attempt_deadline_s`` budgets each claim.
    ``None`` defers to the service's configured defaults.  ``chip``
    carries the :data:`ALLOWED_CHIP_KWARGS` scale-out knobs (e.g.
    ``{"shards": 8}``): the worker that claims such a job runs it
    through :func:`~repro.runtime.scan_chip`, its shards one after
    another on that worker's detector.
    """
    request = {
        "schema": JOB_REQUEST_SCHEMA,
        "layer": encode_layer(layer),
        "region": [region.x1, region.y1, region.x2, region.y2],
        "window_nm": int(window_nm),
        "core_nm": int(core_nm),
        "step_nm": None if step_nm is None else int(step_nm),
        "engine": dict(engine) if engine else {},
        "deadline_s": None if deadline_s is None else float(deadline_s),
        "attempt_deadline_s": None
        if attempt_deadline_s is None
        else float(attempt_deadline_s),
    }
    if chip:
        request["chip"] = dict(chip)
    return validate_job_request(request)


def validate_job_request(payload: Dict[str, object]) -> Dict[str, object]:
    """Check a submitted document; the normalized request, or WireError.

    Structural validation only — geometry emptiness, region-vs-window
    sizing, and engine-knob values are checked where the authoritative
    logic already lives (layer decode, ``ScanEngine.scan``,
    ``EngineConfig``); this gate rejects unknown shapes and knobs the
    service does not let clients set.
    """
    if not isinstance(payload, dict):
        raise WireError("job request must be a JSON object")
    schema = payload.get("schema")
    if schema != JOB_REQUEST_SCHEMA:
        raise WireError(
            f"unsupported job request schema {schema!r} "
            f"(this service reads {JOB_REQUEST_SCHEMA})"
        )
    layer = payload.get("layer")
    if not isinstance(layer, dict) or "name" not in layer or "polygons" not in layer:
        raise WireError("'layer' must be {name, polygons}")
    region = payload.get("region")
    if (
        not isinstance(region, (list, tuple))
        or len(region) != 4
        or not all(isinstance(v, int) for v in region)
    ):
        raise WireError("'region' must be [x1, y1, x2, y2] integers (nm)")
    x1, y1, x2, y2 = region
    if x1 > x2 or y1 > y2:
        raise WireError(f"malformed region {region}")
    out = {
        "schema": JOB_REQUEST_SCHEMA,
        "layer": layer,
        "region": [x1, y1, x2, y2],
    }
    for key, default in (("window_nm", 768), ("core_nm", 256)):
        value = payload.get(key, default)
        if not isinstance(value, int) or value < 1:
            raise WireError(f"'{key}' must be a positive integer (nm)")
        out[key] = value
    step = payload.get("step_nm")
    if step is not None and (not isinstance(step, int) or step < 1):
        raise WireError("'step_nm' must be null or a positive integer (nm)")
    out["step_nm"] = step
    for key in ("deadline_s", "attempt_deadline_s"):
        budget = payload.get(key)
        if budget is not None and (
            isinstance(budget, bool)
            or not isinstance(budget, (int, float))
            or budget <= 0
        ):
            raise WireError(f"'{key}' must be null or a positive number (s)")
        out[key] = None if budget is None else float(budget)
    engine = payload.get("engine") or {}
    if not isinstance(engine, dict):
        raise WireError("'engine' must be an object of flat engine kwargs")
    refused = sorted(set(engine) - set(ALLOWED_ENGINE_KWARGS))
    if refused:
        raise WireError(
            f"engine option(s) {refused} are not client-settable "
            f"(allowed: {sorted(ALLOWED_ENGINE_KWARGS)})"
        )
    out["engine"] = dict(engine)
    chip = payload.get("chip")
    if chip is not None:
        if not isinstance(chip, dict):
            raise WireError("'chip' must be an object of scale-out knobs")
        refused = sorted(set(chip) - set(ALLOWED_CHIP_KWARGS))
        if refused:
            raise WireError(
                f"chip option(s) {refused} are not client-settable "
                f"(allowed: {sorted(ALLOWED_CHIP_KWARGS)})"
            )
        out["chip"] = dict(chip)
    unknown = sorted(
        set(payload)
        - {
            "schema",
            "layer",
            "region",
            "window_nm",
            "core_nm",
            "step_nm",
            "engine",
            "chip",
            "deadline_s",
            "attempt_deadline_s",
        }
    )
    if unknown:
        raise WireError(f"unknown job request field(s) {unknown}")
    return out


def build_engine_config(
    request: Dict[str, object],
    checkpoint_dir=None,
    progress=None,
    progress_every_chunks: Optional[int] = None,
) -> EngineConfig:
    """The worker-side :class:`EngineConfig` for a validated request.

    Client knobs come from ``request["engine"]`` (plus the ``chip``
    scale-out group, when present); the service supplies the per-job
    checkpoint directory (retry/resume) and its own progress hook.
    Invalid knob values surface as :class:`WireError` so the job fails
    with a clear message instead of a traceback.
    """
    kwargs = dict(request.get("engine") or {})
    kwargs.update(request.get("chip") or {})
    if checkpoint_dir is not None:
        kwargs["checkpoint_dir"] = checkpoint_dir
    if progress is not None:
        kwargs["progress"] = progress
    if progress_every_chunks is not None:
        kwargs["progress_every_chunks"] = progress_every_chunks
    try:
        return EngineConfig.from_kwargs(**kwargs)
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad engine configuration: {exc}") from exc


def decode_region(request: Dict[str, object]) -> Rect:
    """The scan region of a validated request."""
    x1, y1, x2, y2 = request["region"]
    return Rect(int(x1), int(y1), int(x2), int(y2))


# --------------------------------------------------------------------------
# canonical report projection
# --------------------------------------------------------------------------
def canonical_report_json(document: str) -> str:
    """Project a ``ScanReport.to_json`` document onto its deterministic core.

    Keeps :data:`CANONICAL_REPORT_FIELDS` — schema, scan path, window
    count, centers, scores, flags, confirmed verdicts — and drops
    execution metadata that legitimately varies run to run (wall time,
    telemetry, cache/dedup tallies, cascade stage counts, all of which
    shift under checkpoint resume).  Keys are sorted: two scans of the
    same request yield **byte-identical** canonical documents whether
    they ran direct or through the service, uninterrupted or resumed.
    """
    payload = json.loads(document)
    projected = {key: payload[key] for key in CANONICAL_REPORT_FIELDS}
    return json.dumps(projected, sort_keys=True)
