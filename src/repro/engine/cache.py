"""On-disk result cache keyed by job content hash.

One JSON file per job under the cache directory, written atomically,
holding the job's canonical description (for provenance / debugging) and
its encoded result. Because the key is the job's *content* hash, a cache
survives across processes, figure selections and invocation order — any
experiment that re-declares an already-simulated point gets the stored
result back instead of a re-simulation.

Entries are sharded into two-hex-character subdirectories
(``ab/abcdef….json``) so million-job sweeps never pile every file into
one flat directory. The shard files are the whole cache: a lookup
computes the path from the hash.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro import __version__ as _PACKAGE_VERSION
from repro.engine.faultinject import maybe_corrupt_cache
from repro.engine.faults import quarantine_file
from repro.engine.job import SimJob
from repro.sim.export import decode_result, encode_result

#: bumped when the result encoding changes incompatibly
CACHE_VERSION = 1


@dataclass
class CacheStats:
    """Degradation accounting for one cache handle.

    A *corrupt* entry is a shard that exists but cannot be parsed or
    decoded — it is warned about, quarantined, and treated as a miss
    (the job re-executes transparently). Stale entries (version or kind
    mismatch) are ordinary misses and are not counted here.
    """

    corrupt: int = 0
    quarantined: int = 0

    def as_dict(self) -> "dict[str, int]":
        return {"corrupt": self.corrupt, "quarantined": self.quarantined}


class ResultCache:
    """Sharded JSON file-per-job store under ``directory``.

    Args:
        directory: cache root; created if missing.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path_for(self, job: SimJob) -> Path:
        """The sharded entry path (``ab/abcdef….json``) for ``job``."""
        job_hash = job.job_hash
        return self.directory / job_hash[:2] / f"{job_hash}.json"

    def load(self, job: SimJob) -> Optional[Any]:
        """The cached result for ``job``, or None on a miss.

        Three distinct None paths: the entry doesn't exist (plain
        miss), it is *stale* (version/kind guard — also a plain miss),
        or it is *corrupt* (unparseable/undecodable shard). Corruption
        is never silent: the shard is quarantined with a reason file, a
        one-line warning goes to stderr, and ``stats.corrupt`` counts
        it — the caller just sees a miss and re-executes the job.
        """
        path = self.path_for(job)
        try:
            with path.open() as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except OSError:
            return None  # unreadable (permissions?) — treat as a miss
        except ValueError as error:
            self._reject_corrupt(job, path, f"bad JSON: {error}")
            return None
        if document.get("version") != CACHE_VERSION:
            return None
        # the job hash keys the *inputs*; the package version is the
        # coarse guard against serving results simulated by older code
        if document.get("repro") != _PACKAGE_VERSION:
            return None
        if document.get("kind") != job.kind:
            return None
        try:
            return decode_result(document["result"])
        except (ValueError, KeyError, TypeError) as error:
            self._reject_corrupt(
                job, path, f"undecodable result: {type(error).__name__}: {error}"
            )
            return None

    def _reject_corrupt(self, job: SimJob, path: Path, reason: str) -> None:
        """Warn, count, and quarantine one corrupt shard (never raises)."""
        self.stats.corrupt += 1
        moved = quarantine_file(
            path, self.directory, f"job {job.job_hash}: {reason}"
        )
        if moved is not None:
            self.stats.quarantined += 1
        print(
            f"[cache: corrupt entry for {job.label()} ({reason}); "
            + (f"quarantined to {moved}" if moved else "already removed")
            + ", re-executing]",
            file=sys.stderr,
        )

    def store(self, job: SimJob, result: Any) -> Path:
        """Persist ``result`` for ``job`` (atomic rename)."""
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "version": CACHE_VERSION,
            "repro": _PACKAGE_VERSION,
            "kind": job.kind,
            "job": job.describe(),
            "result": encode_result(result),
        }
        # pid-unique tmp: concurrent processes sharing a cache dir must
        # not interleave writes into one tmp file (last rename wins, and
        # the content is identical either way)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        # no default=: an unencodable value must fail loudly here, not be
        # stringified into a cache entry that decodes to a different type
        with tmp.open("w") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)
        maybe_corrupt_cache(path)
        return path


def inspect_shard(path: Union[str, Path]) -> "tuple[str, str]":
    """Offline structural verdict on one cache shard (``repro-fsck``).

    Unlike :meth:`ResultCache.load` this needs no :class:`SimJob` — it
    checks what can be checked from the file alone: JSON parses, the
    document shape is right, the filename matches the recorded job
    hash, and the encoded result decodes.

    Returns:
        ``(status, detail)`` where status is ``"ok"`` (fully valid),
        ``"stale"`` (valid but written by another cache/package version
        — a quiet miss at runtime, not damage), or ``"corrupt"``.
    """
    path = Path(path)
    try:
        with path.open() as handle:
            document = json.load(handle)
    except OSError as error:
        return "corrupt", f"unreadable: {error}"
    except ValueError as error:
        return "corrupt", f"bad JSON: {error}"
    if not isinstance(document, dict):
        return "corrupt", "document is not an object"
    for field in ("version", "kind", "job", "result"):
        if field not in document:
            return "corrupt", f"missing field {field!r}"
    job = document["job"]
    if isinstance(job, dict):
        payload = json.dumps(job, sort_keys=True).encode()
        import hashlib

        digest = hashlib.sha256(payload).hexdigest()
        if path.stem != digest:
            return "corrupt", (
                f"filename/job-hash mismatch (content hashes to "
                f"{digest[:12]}…)"
            )
    else:
        return "corrupt", "job description is not an object"
    try:
        decode_result(document["result"])
    except (ValueError, KeyError, TypeError) as error:
        return "corrupt", (
            f"undecodable result: {type(error).__name__}: {error}"
        )
    if (document.get("version") != CACHE_VERSION
            or document.get("repro") != _PACKAGE_VERSION):
        return "stale", (
            f"written by cache v{document.get('version')} / "
            f"repro {document.get('repro')}"
        )
    return "ok", ""
