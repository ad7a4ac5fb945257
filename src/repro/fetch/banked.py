"""The *banked sequential* scheme (paper Section 3.2).

Like interleaved sequential, but the second cache access targets the
BTB-predicted *successor block* rather than blindly the next sequential
block, so fetch may continue across one **inter-block** taken branch per
cycle.  Two failure modes remain:

* **bank conflict** — the successor block maps to the same bank as the
  fetch block; the successor is not fetched this cycle;
* **intra-block branches** — a taken branch whose target lies in the
  fetch block itself cannot be realigned; delivery stops at the branch.

The BTB need not be queried twice per cycle: the successor block's valid
bits come from the overlapped BTB access of the following fetch (paper
Section 3.2), which our single-cycle planning models directly.
"""

from __future__ import annotations

from repro.check.rules import RULES
from repro.fetch.base import FetchUnit


class BankedSequentialFetch(FetchUnit):
    """Two-bank fetch crossing one inter-block taken branch per cycle."""

    name = "banked_sequential"
    num_banks = 2
    rules = RULES[name]
