"""Count the record objects and readiness calls of the request path.

Runs the jobs of the repository benchmark's ``single-sim`` and ``mix-sim``
passes for one seed (the jobs of ``scripts/idle_events.py``), each job
once, and counts per pass:

* requests: ``Channel.access`` calls, one per serviced request;
* record objects built: instances of the per-request record classes that
  earlier revisions of the request path built (``IssuedRequest``,
  ``AccessResult``, ``ServiceResult``, ``_OutstandingMiss``,
  ``RelocationResult``).  A checkout that returns plain tuples instead no
  longer defines them and reports 0;
* ``Bank.ready_for_next`` reads, whether they run a property (earlier
  revisions) or load a slot (now), and ``Channel.bank`` calls.

Run from the repository root, on any checkout::

    PYTHONPATH=src python3 scripts/request_path_counts.py --seed 1

docs/performance.md ("Plain tuples on the request path") reports the
counts before and after the change that removed the records.
"""

from __future__ import annotations

import argparse
import importlib

from idle_events import mix_sim_jobs, single_sim_jobs

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.sim.system import System

#: (module, class) of every per-request record class counted.
RECORD_CLASSES = (
    ("repro.cpu.core", "IssuedRequest"),
    ("repro.dram.bank", "AccessResult"),
    ("repro.core.mechanism", "ServiceResult"),
    ("repro.cpu.core", "_OutstandingMiss"),
    ("repro.dram.bank", "RelocationResult"),
)


def _count_constructions(cls, counts: dict, key: str) -> None:
    """Count every instance of ``cls`` built (a tuple subclass's ``__new__``
    or any other class's ``__init__``)."""
    if issubclass(cls, tuple):
        new = cls.__new__

        def counted_new(klass, *args, **kwargs):
            counts[key] += 1
            return new(klass, *args, **kwargs)
        cls.__new__ = staticmethod(counted_new)
        return
    init = cls.__init__

    def counted_init(self, *args, **kwargs):
        counts[key] += 1
        init(self, *args, **kwargs)
    cls.__init__ = counted_init


def _count_readiness_reads(counts: dict) -> None:
    """Count reads of ``Bank.ready_for_next``, property or slot."""
    descriptor = Bank.__dict__["ready_for_next"]
    if isinstance(descriptor, property):
        getter, setter = descriptor.fget, None
    else:
        getter, setter = descriptor.__get__, descriptor.__set__

    def counted_get(bank):
        counts["Bank.ready_for_next reads"] += 1
        return getter(bank)
    Bank.ready_for_next = property(counted_get, setter)


def install_counters() -> dict[str, int]:
    """Wrap the counted classes and methods; returns the live counts."""
    counts = {"requests": 0}
    for module, name in RECORD_CLASSES:
        counts[name] = 0
        cls = getattr(importlib.import_module(module), name, None)
        if cls is not None:
            _count_constructions(cls, counts, name)
    counts["Bank.ready_for_next reads"] = 0
    counts["Channel.bank calls"] = 0
    _count_readiness_reads(counts)
    access = Channel.access
    bank = Channel.bank

    def counted_access(channel, *args):
        counts["requests"] += 1
        return access(channel, *args)

    def counted_bank(channel, flat_bank):
        counts["Channel.bank calls"] += 1
        return bank(channel, flat_bank)
    Channel.access = counted_access
    Channel.bank = counted_bank
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    counts = install_counters()
    for workload, jobs in (("single-sim", single_sim_jobs(seed)),
                           ("mix-sim", mix_sim_jobs(seed))):
        counts.update(dict.fromkeys(counts, 0))
        for config, traces, name in jobs:
            System(config, traces).run(name)
        requests = counts["requests"]
        records = sum(counts[name] for _, name in RECORD_CLASSES)
        print(f"{workload} (seed {seed}, {len(jobs)} jobs): "
              f"{requests} requests, {records} records built "
              f"({records / requests:.2f} per request)")
        for name, value in counts.items():
            if name != "requests":
                print(f"  {name}: {value} ({value / requests:.2f} per "
                      f"request)")


if __name__ == "__main__":
    main()
