"""Declarative fetch-scheme capability model (paper Sections 2-3).

Each scheme is summarised by one :class:`SchemeRules` record stating what
a single fetch packet may legally contain; :func:`check_packet` verifies
any delivered packet against a record.  The rules transcribe the paper's
definitions:

* **sequential** (Figure 2): one cache block, run of consecutive
  addresses, ends at the first predicted-taken branch.
* **interleaved sequential** (Figure 4, Section 3.1): the run may
  continue into the *next sequential* block (two banks), but still no
  taken branch inside the packet.
* **banked sequential** (Section 3.2): at most one *inter-block* taken
  branch per cycle; the two blocks must map to different banks;
  intra-block branches cannot be realigned.
* **collapsing buffer** (Section 3.3): additionally merges *forward*
  intra-block branches (multiple per block); backward intra-block
  branches are not supported by the modelled controller.
* **perfect** (Section 3): unlimited alignment capability — any path the
  predictor produces is deliverable.

The trace-cache extension inherits perfect's packet rules: a hit
delivers a previously recorded dynamic run crossing any number of taken
branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.errors import CheckError

#: Sentinel for "no limit" in :class:`SchemeRules` count fields.
UNLIMITED = -1


@dataclass(frozen=True, slots=True)
class SchemeRules:
    """What one fetch packet of a scheme may legally contain.

    Attributes:
        scheme: Canonical scheme name (factory key).
        sequential_only: Every step inside the packet is ``+1`` — the
            scheme has no hardware to follow a taken branch mid-packet.
        max_blocks: Distinct cache blocks one packet may touch
            (:data:`UNLIMITED` for no bound).  A bounded scheme reads
            each block once, as one run of the packet.
        consecutive_blocks_only: When two blocks appear they must be
            sequential neighbours (the blind next-block prefetch).
        max_inter_block_crossings: Predicted-taken transfers *inside*
            the packet whose target lies in a different block.
        collapses_forward_intra: Forward intra-block taken branches are
            merged out (collapsing buffer).
        allows_backward_intra: Backward intra-block taken branches are
            deliverable (perfect/trace-cache only).
        banked_conflict_free: Distinct blocks in one packet must map to
            distinct cache banks.
    """

    scheme: str
    sequential_only: bool
    max_blocks: int
    consecutive_blocks_only: bool
    max_inter_block_crossings: int
    collapses_forward_intra: bool
    allows_backward_intra: bool
    banked_conflict_free: bool


#: The per-scheme rule table, keyed by factory name.
RULES: dict[str, SchemeRules] = {
    "sequential": SchemeRules(
        scheme="sequential",
        sequential_only=True,
        max_blocks=1,
        consecutive_blocks_only=False,
        max_inter_block_crossings=0,
        collapses_forward_intra=False,
        allows_backward_intra=False,
        banked_conflict_free=False,
    ),
    "interleaved_sequential": SchemeRules(
        scheme="interleaved_sequential",
        sequential_only=True,
        max_blocks=2,
        consecutive_blocks_only=True,
        max_inter_block_crossings=0,
        collapses_forward_intra=False,
        allows_backward_intra=False,
        banked_conflict_free=False,
    ),
    "banked_sequential": SchemeRules(
        scheme="banked_sequential",
        sequential_only=False,
        max_blocks=2,
        consecutive_blocks_only=False,
        max_inter_block_crossings=1,
        collapses_forward_intra=False,
        allows_backward_intra=False,
        banked_conflict_free=True,
    ),
    "collapsing_buffer": SchemeRules(
        scheme="collapsing_buffer",
        sequential_only=False,
        max_blocks=2,
        consecutive_blocks_only=False,
        max_inter_block_crossings=1,
        collapses_forward_intra=True,
        allows_backward_intra=False,
        banked_conflict_free=True,
    ),
    "perfect": SchemeRules(
        scheme="perfect",
        sequential_only=False,
        max_blocks=UNLIMITED,
        consecutive_blocks_only=False,
        max_inter_block_crossings=UNLIMITED,
        collapses_forward_intra=True,
        allows_backward_intra=True,
        banked_conflict_free=False,
    ),
}
#: Trace-cache hits replay recorded dynamic runs — perfect's rules apply.
RULES["trace_cache"] = SchemeRules(
    scheme="trace_cache",
    sequential_only=False,
    max_blocks=UNLIMITED,
    consecutive_blocks_only=False,
    max_inter_block_crossings=UNLIMITED,
    collapses_forward_intra=True,
    allows_backward_intra=True,
    banked_conflict_free=False,
)


def rules_for(scheme: str) -> SchemeRules:
    """The rule record for *scheme* (KeyError if unknown)."""
    try:
        return RULES[scheme]
    except KeyError:
        known = ", ".join(RULES)
        raise KeyError(f"no packet rules for {scheme!r}; known: {known}") from None


def check_packet(
    rules: SchemeRules,
    addresses: list[int],
    *,
    fetch_address: int,
    limit: int,
    words_per_block: int,
    num_banks: int,
    subject: str = "",
) -> list[CheckError]:
    """Verify one planned/delivered packet against *rules*.

    *addresses* are the packet's instruction-word addresses in delivery
    order; *limit* is the fetch-width cap the scheme was given.  Returns
    the (possibly empty) list of violations.
    """
    subject = subject or rules.scheme
    errors: list[CheckError] = []

    def flag(code: str, message: str) -> None:
        errors.append(CheckError(code, subject, message))

    if not addresses:
        flag("K001", "packet is empty but no stall was reported")
        return errors
    if len(addresses) > limit:
        flag("K002", f"{len(addresses)} addresses exceed the limit of {limit}")
    if addresses[0] != fetch_address:
        flag(
            "K003",
            f"packet starts at {addresses[0]}, fetch address is {fetch_address}",
        )
    if any(a < 0 for a in addresses):
        flag("K012", f"negative address in packet: {addresses}")
        return errors
    if rules.max_blocks != UNLIMITED and len(set(addresses)) != len(addresses):
        # An unbounded scheme may deliver an unrolled loop.
        flag("K011", f"duplicate address in packet: {addresses}")

    inter_block_crossings = 0
    for before, after in zip(addresses, addresses[1:]):
        if after == before + 1:
            continue
        # A non-sequential step: the slot at `before` was a predicted-
        # taken transfer whose target `after` is in the same packet.
        if rules.sequential_only:
            flag(
                "K004",
                f"taken transfer inside the packet: {before} -> {after}",
            )
            continue
        if after // words_per_block == before // words_per_block:
            if after > before:
                if not rules.collapses_forward_intra:
                    flag(
                        "K007",
                        "intra-block taken branch "
                        f"{before} -> {after} cannot be realigned",
                    )
            elif not rules.allows_backward_intra:
                flag(
                    "K008",
                    f"backward intra-block branch {before} -> {after} "
                    "is not collapsible",
                )
        else:
            inter_block_crossings += 1
    if (
        rules.max_inter_block_crossings != UNLIMITED
        and inter_block_crossings > rules.max_inter_block_crossings
    ):
        flag(
            "K009",
            f"{inter_block_crossings} inter-block taken crossings "
            f"(scheme allows {rules.max_inter_block_crossings})",
        )

    blocks = sorted({a // words_per_block for a in addresses})
    if rules.max_blocks != UNLIMITED:
        if len(blocks) > rules.max_blocks:
            flag(
                "K005",
                f"packet touches blocks {blocks} "
                f"(scheme accesses at most {rules.max_blocks} per cycle)",
            )
        # Each accessed block supplies one run: a packet that leaves a
        # block cannot come back to it in the same cycle.
        order = [a // words_per_block for a in addresses]
        runs = [b for i, b in enumerate(order) if i == 0 or b != order[i - 1]]
        if len(runs) != len(set(runs)):
            flag("K013", f"packet returns to a block it left: {runs}")
    if (
        rules.consecutive_blocks_only
        and len(blocks) == 2
        and blocks[1] != blocks[0] + 1
    ):
        flag(
            "K006",
            f"blocks {blocks} are not sequential neighbours",
        )
    if rules.banked_conflict_free and num_banks > 0 and len(blocks) > 1:
        banks = {block % num_banks for block in blocks}
        if len(banks) < len(blocks):
            flag(
                "K010",
                f"blocks {blocks} collide in {num_banks}-bank cache",
            )
    return errors
