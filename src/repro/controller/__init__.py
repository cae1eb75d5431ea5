"""Memory controller substrate.

The controller sits between the last-level cache and the DRAM device.  It
holds per-channel read and write request queues, schedules requests with the
FR-FCFS policy (row hits first, then oldest), drains writes in batches using
high/low watermarks, and consults the configured in-DRAM caching mechanism
(:mod:`repro.core` / :mod:`repro.baselines`) to decide where each request is
actually served and whether row-segment relocations must be performed.
"""

from repro.controller.channel_controller import ChannelController
from repro.controller.request import MemoryRequest
from repro.controller.scheduler import FRFCFSScheduler, SchedulerConfig

__all__ = [
    "ChannelController",
    "FRFCFSScheduler",
    "MemoryRequest",
    "SchedulerConfig",
]
