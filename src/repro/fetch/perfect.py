"""The *perfect* fetch bound (paper Section 3).

"The upper bound of instruction fetch bandwidth is when the pipeline is
never starved due to a lack of instructions ... perfect assumes that the
instruction memory bandwidth into the scheduling window is unlimited (in
the absence of instruction cache misses)."

Perfect is therefore an *alignment* bound, not a prediction oracle: it
follows the same BTB-predicted path as the hardware schemes, but delivers
a full issue group every cycle regardless of block boundaries, bank
conflicts, or how many taken branches the group crosses.  Branch
mispredictions cost the same as everywhere else, and I-cache misses still
stall fetch — which is why ``EIR(perfect)`` falls short of the ideal
issue rate (paper Section 3.4).
"""

from __future__ import annotations

from repro.check.rules import RULES
from repro.fetch.base import FetchUnit


class PerfectFetch(FetchUnit):
    """Upper-bound fetch: unlimited alignment capability.

    Each new block is accessed once per cycle; a missing one after the
    first truncates the group just before it (``cache_miss``).
    """

    name = "perfect"
    num_banks = 1
    rules = RULES[name]
