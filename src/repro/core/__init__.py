"""The paper's primary contribution: FIGCache, the cache built on FIGARO.

FIGARO's RELOC command sequence (column-granularity, distance-independent
relocation across the subarrays of a bank through the global row buffer) is
modelled in :meth:`repro.dram.bank.Bank.relocate`, entered through
:meth:`repro.dram.channel.Channel.relocate`.  This package holds the
controller side:

* :mod:`repro.core.tag_store` — the FIGCache Tag Store (FTS) kept in the
  memory controller.
* :mod:`repro.core.replacement` — cache replacement policies (RowBenefit,
  SegmentBenefit, LRU, Random).
* :mod:`repro.core.insertion` — row-segment insertion policies
  (insert-any-miss, miss-count threshold).
* :mod:`repro.core.figcache` — the FIGCache caching mechanism that ties the
  pieces together and plugs into the memory controller.
* :mod:`repro.core.mechanism` — the mechanism interface shared with the
  baselines.
"""

from repro.core.figcache import FIGCache, FIGCacheConfig
from repro.core.insertion import (InsertAnyMissPolicy, InsertionPolicy,
                                  MissCountThresholdPolicy)
from repro.core.mechanism import (CachingMechanism, MechanismStats,
                                  ServiceResult)
from repro.core.replacement import (LRUReplacement, RandomReplacement,
                                    ReplacementPolicy, RowBenefitReplacement,
                                    SegmentBenefitReplacement,
                                    make_replacement_policy)
from repro.core.tag_store import FigTagStore, TagEntry

__all__ = [
    "CachingMechanism",
    "FIGCache",
    "FIGCacheConfig",
    "FigTagStore",
    "InsertAnyMissPolicy",
    "InsertionPolicy",
    "LRUReplacement",
    "MechanismStats",
    "MissCountThresholdPolicy",
    "RandomReplacement",
    "ReplacementPolicy",
    "RowBenefitReplacement",
    "SegmentBenefitReplacement",
    "ServiceResult",
    "TagEntry",
    "make_replacement_policy",
]
