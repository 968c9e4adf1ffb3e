"""Incremental lint cache: content-hash keyed per-file analysis results.

One JSON file under ``.lint_cache/`` holds everything.  Each entry is
keyed two ways:

* the **file sha** (blake2b of the file's bytes) keys the per-file
  layer — parse summary plus per-file rule diagnostics.  Editing a file
  invalidates only its own entry.
* the **cone/package digests** (blake2b over the shas of every module in
  the file's transitive import cone, or its whole top-level package) key
  the semantic layer.  Editing one module therefore transitively
  invalidates semantic results for exactly the files whose cone contains
  it — nothing else re-runs.

A **fingerprint** over the analyzer version and the full rule registry
guards the whole cache: registering a rule, renaming one, or bumping
:data:`~repro.analysis.project.ANALYZER_CACHE_VERSION` drops every
entry at once.  The document is saved and read through
:mod:`repro.durable` (atomic, checksummed); a corrupt, older-schema or
mismatched cache file is dropped, never trusted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from ..durable import CorruptFile, dump_json, load_json

#: 2: the repro.durable checksum; an older cache is dropped
CACHE_SCHEMA = 2
_CACHE_NAME = "cache.json"


class LintCache:
    """Load/save wrapper over the single on-disk cache document."""

    def __init__(self, cache_dir, fingerprint: str) -> None:
        self.cache_dir = Path(cache_dir)
        self.path = self.cache_dir / _CACHE_NAME
        self.fingerprint = fingerprint
        self.files: Dict[str, Dict[str, object]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            data = load_json(self.path, (CACHE_SCHEMA,))
        except (FileNotFoundError, CorruptFile):
            return
        if data["fingerprint"] == self.fingerprint:
            self.files = data["files"]

    # -- per-file layer -------------------------------------------------
    def get_file(
        self, path: str, sha: str
    ) -> Optional[Dict[str, object]]:
        """Cached ``{"summary", "diagnostics"}`` when content matches."""
        entry = self.files.get(path)
        if entry is None or entry.get("sha") != sha:
            return None
        return entry

    def put_file(
        self,
        path: str,
        sha: str,
        summary: Dict[str, object],
        diagnostics: List[Dict[str, object]],
    ) -> None:
        self.files[path] = {
            "sha": sha,
            "summary": summary,
            "diagnostics": diagnostics,
            "semantic": {},
        }
        self._dirty = True

    # -- semantic layer -------------------------------------------------
    def get_semantic(
        self, path: str, scope: str, digest: str
    ) -> Optional[List[Dict[str, object]]]:
        """Cached semantic findings when the cone/package digest matches."""
        entry = self.files.get(path)
        if entry is None:
            return None
        scoped = entry.get("semantic", {}).get(scope)
        if not isinstance(scoped, dict) or scoped.get("digest") != digest:
            return None
        findings = scoped.get("findings")
        return findings if isinstance(findings, list) else None

    def put_semantic(
        self,
        path: str,
        scope: str,
        digest: str,
        findings: List[Dict[str, object]],
    ) -> None:
        entry = self.files.get(path)
        if entry is None:
            return  # semantic results only attach to a cached file entry
        entry.setdefault("semantic", {})[scope] = {
            "digest": digest,
            "findings": findings,
        }
        self._dirty = True

    # -- persistence ----------------------------------------------------
    def save(self) -> None:
        if not self._dirty:
            return
        dump_json(
            self.path,
            {
                "schema": CACHE_SCHEMA,
                "fingerprint": self.fingerprint,
                "files": self.files,
            },
        )
        self._dirty = False
