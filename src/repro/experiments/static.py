"""Runners for the non-figure experiments.

These cover the parts of the paper's evaluation that are analytical rather
than trace-driven: the simulated-system configuration (Table 1), the
workload catalog (Table 2), the RELOC timing study (Section 4.2), the
hardware overhead accounting (Section 8.3), and the qualitative
RowHammer-style activation-concentration study (Sections 6 and 8.1).  The
RowHammer study is the one entry that simulates; like the figures, it
runs its points through :func:`~repro.experiments.figures.run_points`,
so its runs share the parallel executor, the persistent result cache and
the figures' skipped-job rule.
"""

from __future__ import annotations

from repro.analysis.overhead import OverheadModel
from repro.circuit.reloc_timing import analyze_reloc_timing
from repro.dram.config import DRAMConfig
from repro.experiments.figures import run_points
from repro.experiments.runner import ExperimentScale
from repro.sim.config import make_system_config
from repro.workloads.catalog import BENCHMARKS
from repro.workloads.trace import trace_statistics


def table1_configuration() -> dict:
    """Table 1: the simulated system configuration."""
    config = make_system_config("FIGCache-Fast", channels=4)
    dram = config.dram
    figcache = config.figcache
    rows = [
        ["Processor", "8 cores, 3.2 GHz, 3-wide issue, 256-entry window, "
                      "8 MSHRs/core"],
        ["DRAM", f"DDR4, {dram.channels} channels, "
                 f"{dram.ranks_per_channel} rank, "
                 f"{dram.bankgroups_per_rank} bank groups x "
                 f"{dram.banks_per_bankgroup} banks, "
                 f"{dram.subarrays_per_bank} subarrays/bank, "
                 f"{dram.row_size_bytes // 1024} kB rows, "
                 f"{dram.channel_capacity_bytes // 2**30} GB/channel"],
        ["FIGARO", f"RELOC granularity {dram.block_size_bytes} B, "
                   f"RELOC latency {dram.timings.treloc_ns} ns"],
        ["FIGCache", f"row segment {figcache.segment_blocks} blocks "
                     f"({figcache.segment_blocks * dram.block_size_bytes} B), "
                     f"{figcache.cache_rows_per_bank} cache rows/bank, "
                     f"placement {figcache.placement}, "
                     f"{figcache.replacement_policy} replacement"],
        ["Fast subarray", "tRCD/tRP/tRAS reduced by 45.5%/38.2%/62.9%"],
        ["LISA-VILLA", "512 cache rows per bank, 16 fast subarrays"],
    ]
    return {
        "table": "Table 1",
        "columns": ["component", "configuration"],
        "rows": rows,
    }


def table2_workloads(records: int = 4000) -> dict:
    """Table 2: the benchmark catalog with measured trace statistics."""
    rows = []
    for name, spec in sorted(BENCHMARKS.items()):
        stats = trace_statistics(spec.make_trace(records))
        rows.append([
            name,
            spec.suite,
            "intensive" if spec.memory_intensive else "non-intensive",
            stats["accesses_per_kilo_instruction"],
            stats["write_fraction"],
            stats["footprint_bytes"] // 1024,
        ])
    return {
        "table": "Table 2",
        "columns": ["benchmark", "suite", "class", "accesses_per_kilo_instr",
                    "write_fraction", "footprint_kB"],
        "rows": rows,
    }


def section42_reloc_timing(iterations: int = 2000) -> dict:
    """Section 4.2: the RELOC latency study (paper: 0.57 ns -> 1 ns)."""
    analysis = analyze_reloc_timing(iterations=iterations)
    rows = [
        ["mean RELOC latency (ns)", analysis.mean_latency_ns],
        ["worst-case RELOC latency (ns)", analysis.worst_case_latency_ns],
        ["guardband", analysis.guardband],
        ["guardbanded RELOC latency (ns)", analysis.guardbanded_latency_ns],
        ["end-to-end one-block relocation (ns)", analysis.end_to_end_block_ns],
        ["one-block relocation, source row open (ns)",
         analysis.end_to_end_block_open_row_ns],
        ["Monte-Carlo success rate", analysis.success_rate],
    ]
    return {
        "section": "Section 4.2",
        "columns": ["quantity", "value"],
        "rows": rows,
        "analysis": analysis,
    }


def section83_overhead() -> dict:
    """Section 8.3: DRAM and memory-controller hardware overheads."""
    model = OverheadModel()
    dram = DRAMConfig()
    areas = model.mechanism_overheads(dram)
    fts = model.fts_overhead(dram)
    rows = [
        ["FIGARO peripheral logic (% of DRAM chip)",
         areas["FIGARO"] * 100.0],
        ["FIGCache-Fast cache rows (% of DRAM chip)",
         areas["FIGCache-Fast"] * 100.0],
        ["FIGCache-Slow reserved rows (% of DRAM chip)",
         areas["FIGCache-Slow"] * 100.0],
        ["LISA-VILLA fast subarrays (% of DRAM chip)",
         areas["LISA-VILLA"] * 100.0],
        ["FTS bits per entry", fts.bits_per_entry],
        ["FTS storage per channel (kB)", fts.storage_kb_per_channel],
        ["FTS area, 4 channels (mm^2)", fts.area_mm2],
        ["FTS area (% of LLC)", fts.area_fraction_of_llc * 100.0],
        ["FTS power (mW)", fts.power_mw],
        ["FTS power (% of LLC)", fts.power_fraction_of_llc * 100.0],
    ]
    return {
        "section": "Section 8.3",
        "columns": ["quantity", "value"],
        "rows": rows,
        "fts": fts,
        "areas": areas,
    }


def rowhammer_activation_study(scale: ExperimentScale | None = None,
                               benchmark: str = "mcf") -> dict:
    """Sections 6 / 8.1: activation concentration with and without FIGCache.

    FIGCache reduces how often distinct regular DRAM rows have to be opened
    and closed, because frequently-accessed segments collapse into a few
    cache rows.  The study reports the number of activations to regular
    (non-cache) rows and the maximum per-row activation count, which are the
    quantities a RowHammer-style disturbance attack cares about.
    """
    scale = scale or ExperimentScale()
    configurations = ("Base", "FIGCache-Fast")
    results = run_points([(configuration, configuration,
                           {"track_row_activations": True})
                          for configuration in configurations],
                         [benchmark], scale)
    rows = []
    for configuration in configurations:
        result = results[(configuration, benchmark)]
        counts = result.dram_counters.row_activation_counts
        dram = make_system_config(configuration).dram
        regular_limit = dram.regular_rows_per_bank
        regular = {key: value for key, value in counts.items()
                   if key[1] < regular_limit}
        total_regular = sum(regular.values())
        max_regular = max(regular.values()) if regular else 0
        distinct = len(regular)
        rows.append([configuration, total_regular, distinct, max_regular])
    return {
        "section": "Section 6 / 8.1 (RowHammer-style study)",
        "columns": ["configuration", "regular-row activations",
                    "distinct regular rows activated",
                    "max activations to one regular row"],
        "rows": rows,
    }


#: Name -> runner, for the ``python -m repro run-static`` CLI.  Runners
#: listed here take no required arguments.
STATIC_EXPERIMENTS = {
    "table1": table1_configuration,
    "table2": table2_workloads,
    "reloc-timing": section42_reloc_timing,
    "overhead": section83_overhead,
    "rowhammer": rowhammer_activation_study,
}
