"""The run manifest: what a durable run is.

One JSON file (``manifest.json``) per spill directory records

* the run's **fingerprint** — a digest of everything that determines
  the block decomposition (graph content hash, block size ``m``,
  ``min_adjacency``, and the decomposition mode, barrier or pipeline).
  Two runs with equal fingerprints produce identical block ids, which
  is what makes "skip block 3 of level 1" meaningful across a restart;
* the **segment** file names the run has opened (informational — resume
  globs the directory, so a segment orphaned by a crash between file
  creation and manifest save is still recovered);
* a coarse **status** (``running`` / ``complete``);
* in barrier mode, a **partition** digest per level (resume refuses
  a level whose blocks differ).

Progress lives in the segments alone, so the manifest is written when
a run opens, once per barrier level and at the end — never per block.
Every write is atomic: temp file, fsync, ``os.replace``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ResumeMismatchError
from repro.graph.adjacency import Graph

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

# Fingerprint keys that must match exactly for a resume to be safe:
# they determine the block decomposition, hence the meaning of every
# recorded (level, block_id).  Keys outside this set (e.g. the combo
# name) are informational — every combo enumerates the same cliques.
STRICT_FINGERPRINT_KEYS: tuple[str, ...] = (
    "graph_sha256",
    "num_nodes",
    "num_edges",
    "m",
    "min_adjacency",
    "mode",
)


def graph_digest(graph: Graph) -> str:
    """Content hash of a graph: order-independent over nodes and edges."""
    digest = hashlib.sha256()
    for node in sorted((repr(node) for node in graph.nodes())):
        digest.update(node.encode())
        digest.update(b"\x00")
    edges = sorted(
        tuple(sorted((repr(u), repr(v)))) for u, v in graph.edges()
    )
    for u, v in edges:
        digest.update(u.encode())
        digest.update(b"\x01")
        digest.update(v.encode())
        digest.update(b"\x02")
    return digest.hexdigest()


def partition_digest(kernels: Iterable[tuple]) -> str:
    """SHA-256 of a level's kernels in block-id order (labels by repr)."""
    digest = hashlib.sha256()
    for block_id, kernel in enumerate(kernels):
        digest.update(f"{block_id}:{[repr(node) for node in kernel]}\n".encode())
    return digest.hexdigest()


def fingerprint_run(
    graph: Graph,
    m: int,
    min_adjacency: int,
    mode: str,
    combo: str | None = None,
) -> dict[str, object]:
    """The config fingerprint stored in (and validated against) a manifest."""
    return {
        "graph_sha256": graph_digest(graph),
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "m": int(m),
        "min_adjacency": int(min_adjacency),
        "mode": mode,
        "combo": combo,
    }


@dataclass
class RunManifest:
    """In-memory form of ``manifest.json``."""

    fingerprint: dict[str, object]
    segments: list[str] = field(default_factory=list)
    status: str = "running"
    partitions: dict[int, str] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def to_json(self) -> dict[str, object]:
        return {
            "version": self.version,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "segments": list(self.segments),
            "partitions": {
                str(level): digest
                for level, digest in sorted(self.partitions.items())
            },
        }

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "RunManifest":
        # Older manifests also carry a ``completed`` map; it is ignored.
        try:
            return cls(
                fingerprint=dict(payload["fingerprint"]),  # type: ignore[arg-type]
                partitions={
                    int(level): str(digest)
                    for level, digest in payload.get("partitions", {}).items()  # type: ignore[union-attr]
                },
                segments=list(payload.get("segments", [])),  # type: ignore[arg-type]
                status=str(payload.get("status", "running")),
                version=int(payload.get("version", MANIFEST_VERSION)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ResumeMismatchError(
                f"manifest payload is malformed: {type(exc).__name__}: {exc}"
            ) from exc

    def save(self, directory: str | Path) -> None:
        """Atomically (re)write ``manifest.json`` in ``directory``."""
        directory = Path(directory)
        target = directory / MANIFEST_NAME
        fd, tmp_name = tempfile.mkstemp(
            prefix=MANIFEST_NAME + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self.to_json(), fh, indent=2, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def validate_fingerprint(self, expected: dict[str, object]) -> None:
        """Refuse a resume whose config would change the decomposition.

        Raises
        ------
        ResumeMismatchError
            Naming every strict fingerprint key that differs.
        """
        mismatched = [
            key
            for key in STRICT_FINGERPRINT_KEYS
            if self.fingerprint.get(key) != expected.get(key)
        ]
        if mismatched:
            detail = ", ".join(
                f"{key}: manifest={self.fingerprint.get(key)!r} "
                f"run={expected.get(key)!r}"
                for key in mismatched
            )
            raise ResumeMismatchError(
                f"resume fingerprint mismatch ({detail}); the spill "
                "directory belongs to a different graph or configuration"
            )


def manifest_path(directory: str | Path) -> Path:
    return Path(directory) / MANIFEST_NAME


def load_manifest(directory: str | Path) -> RunManifest:
    """Load ``manifest.json`` from a spill directory.

    Raises
    ------
    ResumeMismatchError
        When the file is missing or not valid manifest JSON.
    """
    path = manifest_path(directory)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ResumeMismatchError(
            f"no manifest at {path}: nothing to resume"
        ) from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ResumeMismatchError(
            f"manifest at {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ResumeMismatchError(f"manifest at {path} is not a JSON object")
    return RunManifest.from_json(payload)
