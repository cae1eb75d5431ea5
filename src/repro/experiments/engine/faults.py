"""Deterministic fault injection for the experiment engine.

The reliability layer (retries, the hung-worker watchdog, pool respawn,
cache quarantine) only earns its keep if every behaviour is
test-provable.  This module provides the probe: a declarative
:class:`FaultPlan` that injects failures at *chosen job indices and
attempt numbers*, so a chaos run is exactly reproducible — the same plan
against the same batch trips the same faults in the same places.

Fault sites and actions:

``worker`` (applied in the worker process, or the serial path, just
before a job's simulation runs; matched by the job's index in the
batch's *pending* list — the deduplicated, cache-missing jobs in
submission order — and the 1-based attempt number):

* ``raise`` — raise :class:`InjectedFault` (a transient job failure);
* ``exit``  — ``os._exit(exit_code)``: kill the worker process outright,
  breaking the pool (the serial path raises :class:`InjectedFault`
  instead of killing the test process);
* ``sleep`` — sleep ``seconds`` before running (a hung worker, when the
  sleep exceeds the watchdog deadline).

``cache-write`` (applied in :meth:`ResultCache._persist`, matched by the
0-based ordinal of the persisted write in this process or by a key
prefix):

* ``torn``    — write only a prefix of the payload (a partial write that
  was never completed: no atomic tmp+replace);
* ``bitflip`` — flip one byte in the middle of the payload (silent media
  corruption the checksum envelope must catch).

Activation: one process-wide plan, installed with :func:`install_plan`
(test API) or read from ``REPRO_FAULT_PLAN`` — inline JSON (anything
starting with ``{``) or a path to a JSON file:

.. code-block:: json

    {"faults": [
      {"site": "worker", "index": 1, "action": "exit", "attempts": [1]},
      {"site": "worker", "index": 3, "action": "raise", "attempts": [1]},
      {"site": "cache-write", "index": 2, "action": "torn"}
    ]}

``attempts: [1]`` makes a fault *transient*: it fires on the first
attempt and clears on the retry, which is how the test suite proves a
faulted sweep converges to results bit-identical to a fault-free run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable carrying a fault plan (inline JSON or a path).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Legal values per site.
WORKER_ACTIONS = ("raise", "exit", "sleep")
CACHE_ACTIONS = ("torn", "bitflip")


class InjectedFault(RuntimeError):
    """A failure raised on purpose by an active :class:`FaultPlan`."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where, when, and what."""

    #: ``"worker"`` or ``"cache-write"``.
    site: str
    #: ``worker``: index into the batch's pending list.  ``cache-write``:
    #: 0-based ordinal of the persisted write (ignored if ``key_prefix``
    #: is set).
    index: int = -1
    #: Action at the site (see module docstring).
    action: str = "raise"
    #: Attempt numbers (1-based) at which a worker fault fires; an empty
    #: tuple means every attempt.
    attempts: tuple[int, ...] = (1,)
    #: Sleep duration for ``action="sleep"``.
    seconds: float = 0.0
    #: Exit status for ``action="exit"``.
    exit_code: int = 1
    #: Cache-write matcher: fire on any key with this prefix.
    key_prefix: str = ""

    def __post_init__(self) -> None:
        if self.site == "worker":
            allowed = WORKER_ACTIONS
        elif self.site == "cache-write":
            allowed = CACHE_ACTIONS
        else:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(expected 'worker' or 'cache-write')")
        if self.action not in allowed:
            raise ValueError(f"unknown {self.site} action {self.action!r} "
                             f"(expected one of {allowed})")

    def to_dict(self) -> dict:
        out: dict = {"site": self.site, "action": self.action}
        if self.index >= 0:
            out["index"] = self.index
        if self.site == "worker":
            out["attempts"] = list(self.attempts)
            if self.action == "sleep":
                out["seconds"] = self.seconds
            if self.action == "exit":
                out["exit_code"] = self.exit_code
        elif self.key_prefix:
            out["key_prefix"] = self.key_prefix
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(site=data.get("site", "worker"),
                   index=int(data.get("index", -1)),
                   action=data.get("action", "raise"),
                   attempts=tuple(int(a) for a in
                                  data.get("attempts", [1])),
                   seconds=float(data.get("seconds", 0.0)),
                   exit_code=int(data.get("exit_code", 1)),
                   key_prefix=str(data.get("key_prefix", "")))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` injections.

    Frozen and picklable: the executor ships the active plan to worker
    processes alongside each chunk, so matching never depends on worker
    environment inheritance (``spawn`` contexts work too).
    """

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    # ------------------------------------------------------------------
    # Matching.
    # ------------------------------------------------------------------
    def worker_fault(self, index: int, attempt: int) -> FaultSpec | None:
        """The worker-site fault armed for (job ``index``, ``attempt``)."""
        for spec in self.faults:
            if spec.site != "worker" or spec.index != index:
                continue
            if spec.attempts and attempt not in spec.attempts:
                continue
            return spec
        return None

    def cache_fault(self, key: str, write_index: int) -> FaultSpec | None:
        """The cache-write fault armed for this persisted write."""
        for spec in self.faults:
            if spec.site != "cache-write":
                continue
            if spec.key_prefix:
                if key.startswith(spec.key_prefix):
                    return spec
            elif spec.index == write_index:
                return spec
        return None

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"faults": [spec.to_dict() for spec in self.faults]},
            sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        entries = data.get("faults", []) if isinstance(data, dict) else data
        return cls(faults=tuple(FaultSpec.from_dict(entry)
                                for entry in entries))

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        """Parse ``REPRO_FAULT_PLAN``: inline JSON or a file path."""
        text = value.strip()
        if not text.startswith("{") and not text.startswith("["):
            text = Path(text).read_text(encoding="utf-8")
        return cls.from_json(text)


# ----------------------------------------------------------------------
# Process-wide activation.
# ----------------------------------------------------------------------
_UNSET = object()
#: The installed plan: ``_UNSET`` until first use (then parsed from the
#: environment), or whatever :func:`install_plan` set.
_installed = _UNSET
#: Ordinal of the next cache write while a plan is active (the
#: ``cache-write`` matcher's ``index``); reset by :func:`install_plan`.
_cache_writes = 0


def active_plan() -> FaultPlan | None:
    """The process-wide fault plan, or ``None`` when chaos is off.

    Parsed once from ``REPRO_FAULT_PLAN`` on first call unless a plan
    was installed programmatically.  A malformed environment plan raises
    immediately — a chaos run silently running clean is worse than an
    error.
    """
    global _installed
    if _installed is _UNSET:
        value = os.environ.get(FAULT_PLAN_ENV)
        _installed = FaultPlan.from_env(value) if value else None
    return _installed


def install_plan(plan: FaultPlan | None) -> None:
    """Install (or with ``None`` clear) the process-wide plan; resets the
    cache-write ordinal so every installed plan starts counting at 0."""
    global _installed, _cache_writes
    _installed = plan
    _cache_writes = 0


def reset() -> None:
    """Forget any installed plan; the next :func:`active_plan` call
    re-reads the environment."""
    global _installed, _cache_writes
    _installed = _UNSET
    _cache_writes = 0


def next_cache_write() -> int:
    """Consume and return the current cache-write ordinal."""
    global _cache_writes
    ordinal = _cache_writes
    _cache_writes += 1
    return ordinal


# ----------------------------------------------------------------------
# Application (called from the executor / cache at the injection sites).
# ----------------------------------------------------------------------
def apply_worker_fault(plan: FaultPlan | None, index: int, attempt: int,
                       allow_exit: bool = True) -> None:
    """Trip the worker-site fault armed for (``index``, ``attempt``).

    ``allow_exit=False`` (the serial path, which runs in the caller's own
    process) converts an ``exit`` fault into a raised
    :class:`InjectedFault` so tests never kill themselves.
    """
    if plan is None:
        return
    spec = plan.worker_fault(index, attempt)
    if spec is None:
        return
    if spec.action == "sleep":
        time.sleep(spec.seconds)
        return
    if spec.action == "exit" and allow_exit:
        os._exit(spec.exit_code)
    raise InjectedFault(f"injected {spec.action!r} fault at job index "
                        f"{index}, attempt {attempt}")


def corrupt_payload(spec: FaultSpec, data: bytes) -> bytes:
    """The corrupted bytes a ``cache-write`` fault persists."""
    if spec.action == "torn":
        # A partial write: the first third of the payload, mid-token.
        return data[:max(1, len(data) // 3)]
    # bitflip: invert one byte in the middle of the payload.
    flipped = bytearray(data)
    position = len(flipped) // 2
    flipped[position] ^= 0xFF
    return bytes(flipped)
