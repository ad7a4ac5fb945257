"""The *interleaved sequential* scheme (paper Figure 4, Section 3.1).

The I-cache is split into two banks and the next sequential block is
prefetched alongside the fetch block, so a fetch run may span a block
boundary.  Delivery still terminates at the first predicted-taken branch:
non-sequential accesses are not possible.  The interchange switch restores
bank order and the valid-select logic picks the valid instructions (their
logic-level cost models live in :mod:`repro.fetch.alignment`).
"""

from __future__ import annotations

from repro.check.rules import RULES
from repro.fetch.base import FetchUnit


class InterleavedSequentialFetch(FetchUnit):
    """Two-bank sequential fetch with next-block prefetch.

    Consecutive blocks always map to different banks, so the prefetch
    never conflicts; a prefetch miss ends the run at the block boundary
    (``cache_miss``) and fills the block for a later cycle.
    """

    name = "interleaved_sequential"
    num_banks = 2
    rules = RULES[name]
