"""The *sequential* block-fetch scheme (paper Figure 2).

Fetches one cache block and masks from the fetch offset to the first
predicted-taken branch or the end of the block.  No hardware handles
branches inside the block, so only sequential instruction runs are
supplied.  This is the realistic lower bound of the paper's study.
"""

from __future__ import annotations

from repro.check.rules import RULES
from repro.fetch.base import FetchUnit


class SequentialFetch(FetchUnit):
    """Single-block, mask-based sequential fetch.

    A packet ends ``taken_branch`` at a predicted-taken branch,
    ``alignment`` at the block boundary, or ``full`` at the issue width.
    """

    name = "sequential"
    num_banks = 1
    rules = RULES[name]
