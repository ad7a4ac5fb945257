"""The *collapsing buffer* scheme — the paper's contribution (Section 3.3).

Extends banked sequential with a buffer that *collapses* the gap between
an intra-block taken branch and its target, so the target instruction
follows the branch in the decoder (merging).  The controller modelled in
the paper handles **forward** intra-block branches (multiple per block)
plus one inter-block branch per fetch; backward intra-block branches are
not supported (the crossbar implementation could, but the paper's
controller does not).

Two implementations are sketched in paper Figure 8 — a shifter and a
bus-based crossbar (cost models in :mod:`repro.fetch.alignment`).  The
crossbar keeps the fetch misprediction penalty at two cycles; the shifter
raises it to three (evaluated in paper Figure 11 via
``MachineConfig.with_fetch_penalty(3)``).
"""

from __future__ import annotations

from repro.check.rules import RULES
from repro.fetch.base import FetchUnit


class CollapsingBufferFetch(FetchUnit):
    """Finely-banked fetch with intra-block gap collapsing.

    Paper Figure 7 draws the collapsing buffer's cache with one bank per
    instruction slot (four at PI4), unlike the two-bank organisation of
    interleaved/banked sequential (Figure 4) — so successor-block bank
    interference is proportionally rarer here.
    """

    name = "collapsing_buffer"
    num_banks = 2  # class default; per-machine value set in __init__
    rules = RULES[name]

    def __init__(self, config, trace, **kwargs) -> None:
        self.num_banks = config.words_per_block
        super().__init__(config, trace, **kwargs)
