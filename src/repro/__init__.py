"""repro: a reproduction of FIGARO / FIGCache (MICRO 2020).

The package is organised as:

* :mod:`repro.dram` -- DRAM device/timing substrate, including the FIGARO
  ``RELOC`` command, and the multi-standard device catalog
  (:mod:`repro.dram.standards`: DDR4 speed grades, LPDDR4, HBM2, DDR5 —
  see ``docs/standards.md``).
* :mod:`repro.controller` -- memory controller substrate (queues, FR-FCFS).
* :mod:`repro.core` -- the paper's primary contribution: the FIGARO
  relocation engine and the FIGCache fine-grained in-DRAM cache.
* :mod:`repro.baselines` -- Base (no in-DRAM cache), LISA-VILLA, LL-DRAM.
* :mod:`repro.cpu` -- trace-driven cores and the cache hierarchy.
* :mod:`repro.workloads` -- synthetic workload/trace generators and the
  benchmark catalog.
* :mod:`repro.energy` -- DRAM and system energy models.
* :mod:`repro.circuit` -- lumped-RC analysis of the RELOC operation.
* :mod:`repro.analysis` -- hardware (area/power/storage) overhead models.
* :mod:`repro.sim` -- system assembly, the event-driven simulation loop,
  result metrics, and the unified telemetry pipeline
  (:mod:`repro.sim.telemetry`: per-request latency distributions and
  epoch-sampled time series — see ``docs/telemetry.md``).
* :mod:`repro.experiments` -- declarative runners, one per paper
  table/figure, on top of the experiment engine
  (:mod:`repro.experiments.engine`): parallel job execution plus a
  persistent content-addressed result cache.  ``python -m repro`` runs
  them from the command line (see ``docs/experiments.md``).
"""

#: The package version; pyproject.toml reads it from here.
__version__ = "1.2.0"

__all__ = ["__version__"]
