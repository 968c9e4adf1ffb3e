"""Durable files: one atomic write, two checksummed containers, one error.

Every file the library leaves for a later run — score caches, scan
checkpoints, chip manifests, shard reports, cascade tunings, the lint
cache, and the service's job records and results — is written and read
here.  :func:`write_atomic` renames a uniquely named temp file over the
target, so a reader never sees a torn file and two writers of one path
never share a temp file.  :func:`dump_json` adds a ``checksum`` key, the
BLAKE2b of the canonical JSON (sorted keys, compact) of the rest of the
document; :func:`dump_npz` adds a ``checksum`` array hashing every other
array's name, dtype, shape and bytes.  Their readers check the
``schema`` field and the checksum, and raise :class:`CorruptFile` — and
only that — for bad bytes; ``FileNotFoundError`` passes through.  What a
bad file means (start cold, restart, rescan, refuse) stays with each
format, which may move it aside with :func:`quarantine_file`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import uuid
from pathlib import Path
from typing import Callable, Dict, Mapping, Sequence, TypeVar, Union

import numpy as np

PathLike = Union[str, Path]

_T = TypeVar("_T")


class CorruptFile(ValueError):
    """A persisted file is truncated, damaged, or of an unread schema."""


def write_atomic(path: PathLike, data: bytes) -> Path:
    """Replace ``path`` with ``data``; no reader sees a partial file.

    Parent directories are created.  The temp file is unique to the
    call, gets the default file mode, and never outlives it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def quarantine_file(path: PathLike) -> Path:
    """Move a corrupt file aside (never delete evidence) and return it."""
    path = Path(path)
    target = path.with_name(path.name + ".quarantined")
    os.replace(path, target)
    return target


def _json_digest(document: Mapping[str, object]) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def dump_json(path: PathLike, document: Mapping[str, object]) -> Path:
    """Atomically write ``document`` plus its ``checksum`` key."""
    body = {**document, "checksum": _json_digest(document)}
    return write_atomic(path, json.dumps(body).encode())


def load_json(
    path: PathLike, schemas: Sequence[int], unverified: Sequence[int] = ()
) -> Dict[str, object]:
    """Read a :func:`dump_json` document, verified, minus its checksum.

    ``schemas`` are the schemas read and verified.  A document with no
    checksum whose schema is in ``unverified`` — written before its
    format was checksummed — is returned as it stands.
    """
    document = _decode(path, lambda raw: json.loads(raw.decode("utf-8")))
    if not isinstance(document, dict):
        raise CorruptFile(f"{path} is not a JSON object")
    checksum = document.pop("checksum", None)
    schema = document.get("schema")
    if checksum is None and schema in unverified:
        return document
    _verify(path, schema, schemas, checksum == _json_digest(document))
    return document


def _npz_digest(arrays: Mapping[str, np.ndarray]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        array = arrays[name]
        h.update(f"{name}\0{array.dtype.str}\0{array.shape}\0".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def dump_npz(path: PathLike, arrays: Mapping[str, object]) -> Path:
    """Atomically write ``arrays`` plus a ``checksum`` array as an npz."""
    arrays = {name: np.asarray(value) for name, value in arrays.items()}
    buffer = io.BytesIO()
    np.savez_compressed(buffer, checksum=_npz_digest(arrays), **arrays)
    return write_atomic(path, buffer.getvalue())


def _unzip(raw: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def load_npz(path: PathLike, schemas: Sequence[int]) -> Dict[str, np.ndarray]:
    """Read a :func:`dump_npz` archive, verified, minus its checksum.

    The archive's 0-d ``schema`` array must hold one of ``schemas``.
    """
    arrays = _decode(path, _unzip)
    checksum = arrays.pop("checksum", np.array(None))
    schema = arrays.get("schema", np.array(None))
    _verify(
        path,
        schema.item() if schema.ndim == 0 else None,
        schemas,
        checksum.ndim == 0 and checksum.item() == _npz_digest(arrays),
    )
    return arrays


def _decode(path: PathLike, parse: Callable[[bytes], _T]) -> _T:
    raw = Path(path).read_bytes()
    try:
        return parse(raw)
    except Exception as exc:  # lint: disable=broad-except  (raw is the whole file in memory, so whatever the json/zip/zlib/npy decoders throw on it is bad bytes)
        raise CorruptFile(
            f"{path} is unreadable ({type(exc).__name__}: {exc})"
        ) from exc


def _verify(
    path: PathLike, schema: object, schemas: Sequence[int], intact: bool
) -> None:
    if schema not in schemas:
        raise CorruptFile(
            f"{path} has unsupported schema {schema!r} "
            f"(this build reads {', '.join(map(str, schemas))})"
        )
    if not intact:
        raise CorruptFile(
            f"{path} failed its checksum (torn write or bit rot)"
        )
