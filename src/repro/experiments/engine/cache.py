"""Persistent, content-addressed simulation-result cache.

Layout: results fan out over two-level shard directories under the cache
root — ``ab/<key>.json`` (or ``ab/<key>.json.gz`` for large payloads),
where ``ab`` is the first two hex characters of the :meth:`SimJob.key`
digest.  Sharding keeps directories small at million-entry sweeps, and an
in-memory key index — loaded from one directory scan per process — makes
``get()`` misses, ``stats()``, and repeated lookups pure memory
operations instead of per-call filesystem traffic.

Each file records the salt (cache schema version + package version) it was
written with; entries whose salt no longer matches are treated as misses,
so a code upgrade invalidates stale results instead of replaying them.

Integrity: fresh entries carry a checksum envelope — the byte length and
SHA-256 of the canonical result JSON — verified on every load.  An entry
that fails to decode or checksum is *corrupt* (torn write, bit rot), not
merely stale: the file is moved into ``<cache>/quarantine/`` (preserving
the evidence while getting it off the lookup path), counters
(``decode_failures``/``quarantined``) tick in :meth:`ResultCache.stats`,
and the caller sees a plain miss, so the job simply re-executes.
Envelope-less entries written before this scheme remain readable —
the envelope is versioned inside the payload precisely so its
introduction did not salt-invalidate every existing shard.
:meth:`ResultCache.verify` (CLI: ``python -m repro cache verify``) scans
every shard offline and optionally quarantines what it finds.

A :class:`ResultCache` always keeps an in-memory layer.  When constructed
without a directory it is memory-only (the behaviour the test suite wants);
with a directory it also persists every stored result, making repeated
figure runs incremental across processes.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import repro
from repro.experiments.engine import faults as faults_mod
from repro.experiments.engine.spec import CACHE_SCHEMA_VERSION
from repro.sim.metrics import SimulationResult

#: Environment variable selecting the default persistent cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Serialized payloads at least this large are gzip-compressed
#: (telemetry-bearing results run to megabytes; plain results are under
#: a kilobyte and stay human-readable).
COMPRESS_MIN_BYTES = 32 * 1024

#: Hex characters of the key used as the shard directory name.
_SHARD_CHARS = 2

#: Version of the checksum envelope written into fresh entries.  Lives
#: inside the payload — deliberately *not* part of the cache salt, so
#: introducing (or evolving) the envelope never invalidates old entries.
ENVELOPE_VERSION = 1

#: Directory (under the cache root) corrupt shard files are moved into.
#: Longer than ``_SHARD_CHARS``, so the index scan never looks inside.
QUARANTINE_DIR = "quarantine"


def _canonical_result_bytes(result_dict: dict) -> bytes:
    """The canonical byte form of a result dict the envelope covers."""
    return json.dumps(result_dict, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def cache_salt() -> str:
    """Salt mixed into every persisted entry (schema + code version)."""
    return f"{CACHE_SCHEMA_VERSION}:{repro.__version__}"


def default_cache_dir() -> Path:
    """The CLI's default persistent cache directory.

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro`` (or
    ``~/.cache/repro``).
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Observed traffic and current contents of one cache."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    memory_entries: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0
    #: Disk entries stored gzip-compressed.
    disk_compressed: int = 0
    #: Shard directories holding at least one disk entry.
    shards: int = 0
    #: Loads that failed to decode or checksum (corrupt entries seen).
    decode_failures: int = 0
    #: Corrupt files this cache moved into the quarantine directory.
    quarantined: int = 0
    #: Files currently sitting in ``<cache>/quarantine/``.
    quarantine_entries: int = 0


class CorruptEntryError(Exception):
    """A cache entry is damaged (torn write, bit rot) rather than stale."""


def _is_entry(name: str) -> bool:
    return name.endswith(".json") or name.endswith(".json.gz")


def _entry_key(name: str) -> str:
    return name[:-len(".json.gz")] if name.endswith(".json.gz") \
        else name[:-len(".json")]


class ResultCache:
    """Two-level (memory + optional sharded disk) cache of results."""

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._memory: dict[str, SimulationResult] = {}
        #: key -> (absolute Path, size in bytes); ``None`` until the first
        #: persistent operation triggers the one-time directory scan.
        self._index: dict[str, tuple[Path, int]] | None = None
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._decode_failures = 0
        self._quarantined = 0

    @property
    def persistent(self) -> bool:
        """Whether results survive the process (a directory is configured)."""
        return self.directory is not None

    # ------------------------------------------------------------------
    # Paths and the key index.
    # ------------------------------------------------------------------
    def _path(self, key: str, compressed: bool = False) -> Path:
        """The sharded path a fresh entry for ``key`` is written to."""
        name = f"{key}.json.gz" if compressed else f"{key}.json"
        return self.directory / key[:_SHARD_CHARS] / name

    def _scan_index(self) -> dict[str, tuple[Path, int]]:
        """One-time directory scan: every entry in every shard."""
        index: dict[str, tuple[Path, int]] = {}
        try:
            root_entries = list(os.scandir(self.directory))
        except OSError:
            return index
        for entry in root_entries:
            if not entry.is_dir() or len(entry.name) != _SHARD_CHARS:
                continue
            try:
                shard_entries = list(os.scandir(entry.path))
            except OSError:
                continue
            for sub in shard_entries:
                if sub.is_file() and _is_entry(sub.name):
                    index[_entry_key(sub.name)] = (Path(sub.path),
                                                   sub.stat().st_size)
        return index

    def index(self) -> dict[str, tuple[Path, int]]:
        """The in-memory key index (loaded on first use)."""
        if self._index is None:
            self._index = self._scan_index() if self.persistent else {}
        return self._index

    def refresh_index(self) -> None:
        """Rescan the directory (e.g. after another process wrote to it)."""
        self._index = None

    # ------------------------------------------------------------------
    # Lookup / store.
    # ------------------------------------------------------------------
    def get(self, key: str) -> SimulationResult | None:
        """Return the cached result for ``key``, or ``None`` on a miss."""
        result = self._memory.get(key)
        if result is None and self.directory is not None:
            result = self._load(key)
            if result is not None:
                self._memory[key] = result
        if result is None:
            self._misses += 1
        else:
            self._hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` (memory, and disk if persistent)."""
        self._memory[key] = result
        self._stores += 1
        if self.directory is not None:
            self._persist(key, result)

    def put_many(self, items: Iterable[tuple[str, SimulationResult]]) -> None:
        """Store a batch of ``(key, result)`` pairs.

        The executor drains worker chunks through this: one call per
        chunk, so every completed chunk is durable the moment it lands.
        """
        for key, result in items:
            self.put(key, result)

    def _persist(self, key: str, result: SimulationResult) -> None:
        result_dict = result.to_dict()
        canonical = _canonical_result_bytes(result_dict)
        payload = {"salt": cache_salt(), "key": key,
                   "envelope": ENVELOPE_VERSION,
                   "length": len(canonical),
                   "sha256": hashlib.sha256(canonical).hexdigest(),
                   "result": result_dict}
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        compressed = len(data) >= COMPRESS_MIN_BYTES
        if compressed:
            data = gzip.compress(data, compresslevel=6)
        plan = faults_mod.active_plan()
        if plan:
            spec = plan.cache_fault(key, faults_mod.next_cache_write())
            if spec is not None:
                data = faults_mod.corrupt_payload(spec, data)
        path = self._path(key, compressed=compressed)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        tmp.replace(path)
        self.index()[key] = (path, len(data))

    def _read_payload(self, path: Path) -> dict:
        """Read, decode, and checksum-verify one entry file.

        Raises :class:`CorruptEntryError` for anything that is provably
        damage rather than staleness: undecodable bytes (torn write), a
        non-dict payload, or an envelope whose length/SHA-256 no longer
        matches the result (bit rot).  ``OSError`` propagates — an
        unreadable file is a miss, not corruption.
        """
        data = path.read_bytes()
        try:
            if path.name.endswith(".gz"):
                data = gzip.decompress(data)
            payload = json.loads(data)
        except (json.JSONDecodeError, gzip.BadGzipFile, EOFError,
                UnicodeDecodeError, zlib.error) as exc:
            raise CorruptEntryError(f"undecodable entry: {exc}") from exc
        if not isinstance(payload, dict):
            raise CorruptEntryError("entry payload is not an object")
        if payload.get("envelope") is not None:
            try:
                canonical = _canonical_result_bytes(payload["result"])
            except (KeyError, TypeError) as exc:
                raise CorruptEntryError(
                    f"enveloped entry has no result: {exc!r}") from exc
            if (payload.get("length") != len(canonical)
                    or payload.get("sha256")
                    != hashlib.sha256(canonical).hexdigest()):
                raise CorruptEntryError("checksum mismatch")
        return payload

    def _quarantine(self, key: str, path: Path) -> None:
        """Move a corrupt entry into ``<cache>/quarantine/`` and drop it
        from the index (preserving the evidence, clearing the lookup
        path).  Best-effort: an unwritable filesystem leaves the file in
        place, and lookups keep treating it as a miss."""
        quarantine = self.directory / QUARANTINE_DIR
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            dest = quarantine / path.name
            serial = 0
            while dest.exists():
                serial += 1
                dest = quarantine / f"{path.name}.{serial}"
            path.replace(dest)
        except FileNotFoundError:
            pass  # the corrupt file vanished; nothing left to preserve
        except OSError:
            return
        self._quarantined += 1
        self.index().pop(key, None)

    def _load(self, key: str) -> SimulationResult | None:
        entry = self.index().get(key)
        if entry is None:
            return None
        path, _ = entry
        try:
            payload = self._read_payload(path)
        except OSError:
            return None
        except CorruptEntryError:
            self._decode_failures += 1
            self._quarantine(key, path)
            return None
        if payload.get("salt") != cache_salt():
            # Stale, not damaged: a plain miss (the entry is re-stored
            # with the current salt the next time the job runs).
            return None
        try:
            return SimulationResult.from_dict(payload["result"])
        except (KeyError, TypeError):
            # Current salt but unreconstructable: structural damage.
            self._decode_failures += 1
            self._quarantine(key, path)
            return None

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Drop every entry (memory and disk); returns distinct entries
        removed (an entry present in both layers counts once)."""
        keys = set(self._memory)
        self._memory.clear()
        if self.directory is not None and self.directory.is_dir():
            # The directory — not the possibly stale index — drives
            # removal, so entries written by other processes go too.
            for shard in self.directory.iterdir():
                if shard.is_dir() and len(shard.name) == _SHARD_CHARS:
                    for path in shard.iterdir():
                        if _is_entry(path.name):
                            keys.add(_entry_key(path.name))
                            path.unlink(missing_ok=True)
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
            self._index = {}
        return len(keys)

    def verify(self, repair: bool = False) -> dict:
        """Scan every disk entry; classify, and optionally quarantine.

        Returns a report dict: ``checked`` (entries examined), ``ok``
        (enveloped and checksum-clean), ``legacy`` (readable but written
        before the checksum envelope), ``stale_salt`` (readable but from
        another schema/code version), ``corrupt`` (list of damaged keys),
        and ``quarantined`` (files moved — nonzero only with
        ``repair=True``; without it corrupt files are left in place so a
        dry run stays side-effect free).
        """
        report: dict = {"checked": 0, "ok": 0, "legacy": 0,
                        "stale_salt": 0, "corrupt": [], "quarantined": 0}
        if not self.persistent:
            return report
        self.refresh_index()
        for key, (path, _) in sorted(self.index().items()):
            report["checked"] += 1
            try:
                payload = self._read_payload(path)
            except OSError:
                continue  # vanished mid-scan (another process cleaning)
            except CorruptEntryError:
                report["corrupt"].append(key)
                if repair:
                    self._decode_failures += 1
                    self._quarantine(key, path)
                    report["quarantined"] += 1
                continue
            if payload.get("salt") != cache_salt():
                report["stale_salt"] += 1
                continue
            try:
                SimulationResult.from_dict(payload["result"])
            except (KeyError, TypeError):
                report["corrupt"].append(key)
                if repair:
                    self._decode_failures += 1
                    self._quarantine(key, path)
                    report["quarantined"] += 1
                continue
            if payload.get("envelope") is None:
                report["legacy"] += 1
            else:
                report["ok"] += 1
        return report

    def stats(self) -> CacheStats:
        """Traffic counters plus current memory/disk occupancy.

        Disk occupancy comes from the in-memory index — no filesystem
        traffic after the initial scan (quarantine occupancy is the one
        exception: corrupt files can arrive from other processes, so it
        is counted live).
        """
        stats = CacheStats(hits=self._hits, misses=self._misses,
                           stores=self._stores,
                           memory_entries=len(self._memory),
                           decode_failures=self._decode_failures,
                           quarantined=self._quarantined)
        if self.persistent:
            shards = set()
            for key, (path, size) in self.index().items():
                stats.disk_entries += 1
                stats.disk_bytes += size
                if path.name.endswith(".gz"):
                    stats.disk_compressed += 1
                shards.add(path.parent)
            stats.shards = len(shards)
            quarantine = self.directory / QUARANTINE_DIR
            if quarantine.is_dir():
                stats.quarantine_entries = sum(
                    1 for entry in quarantine.iterdir()
                    if entry.is_file())
        return stats
