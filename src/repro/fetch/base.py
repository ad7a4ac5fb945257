"""Fetch-unit framework shared by all alignment schemes.

Each scheme plans a *predicted path* for one fetch cycle from nothing but
addresses, the I-cache and the interleaved BTB — exactly the information
the hardware has.  The trace-driven harness then compares the plan with
the known dynamic trace:

* matching prefix -> delivered (correct-path) instructions;
* first divergence -> the immediately preceding control instruction was
  mispredicted; delivery truncates there, fetch stalls until the branch
  resolves in the core, and resumes ``fetch_penalty`` cycles later;
* a plan whose *continuation address* disagrees with the trace is equally
  a misprediction charged to the last delivered instruction.

This reproduces the paper's penalty model: the fetch misprediction
penalty (two cycles; three for the shifter collapsing buffer) plus the
instruction-stream-dependent time until the branch resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.branch.btb import BranchTargetBuffer, BTBPrediction
from repro.branch.predictors import DirectionPredictor
from repro.branch.ras import ReturnAddressStack
from repro.check.rules import UNLIMITED, SchemeRules
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.machines.config import MachineConfig
from repro.memory.icache import InstructionCache
from repro.workloads.trace import DynamicTrace

if TYPE_CHECKING:
    from repro.check.sanitizer import PacketChecker


@dataclass(slots=True)
class FetchPlan:
    """A scheme's plan for one cycle.

    Attributes:
        addresses: Predicted instruction addresses to deliver, in order.
        next_address: Where fetch believes the stream continues after the
            last planned address.
        stall_cycles: If positive, an I-cache miss: deliver nothing and
            stall this many cycles (the missing block has been filled).
        break_reason: Why the plan stopped short of the issue width —
            ``"full"`` (it didn't), ``"taken_branch"``, ``"alignment"``
            (block boundary / structural limit), ``"bank_conflict"``, or
            ``"cache_miss"`` (successor block missing).  Telemetry maps
            it to a slot-attribution cause
            (:mod:`repro.telemetry.attribution`).
    """

    addresses: list[int] = field(default_factory=list)
    next_address: int = -1
    stall_cycles: int = 0
    break_reason: str = ""


@dataclass(slots=True)
class FetchResult:
    """Outcome of one fetch cycle.

    Attributes:
        instructions: Correct-path instructions delivered to decode.
        mispredict: True if the last delivered instruction was a
            mispredicted control transfer; fetch must stall until it
            resolves.
        stall_cycles: I-cache miss stall (no delivery this cycle).
        break_reason: The plan's :attr:`FetchPlan.break_reason`, passed
            through for slot attribution.
    """

    instructions: list[Instruction]
    mispredict: bool = False
    stall_cycles: int = 0
    break_reason: str = ""

    @property
    def delivered(self) -> int:
        return len(self.instructions)


@dataclass(slots=True)
class FetchStats:
    """Aggregate fetch-unit statistics."""

    cycles: int = 0
    delivered: int = 0
    mispredicts: int = 0
    cache_stall_cycles: int = 0
    full_deliveries: int = 0  #: cycles delivering a full issue group


class FetchUnit:
    """Base class for the paper's fetch/alignment schemes.

    A scheme is its :attr:`name`, :attr:`num_banks` and :attr:`rules`;
    the one :meth:`plan` walk reads everything else from the rules.
    """

    #: Scheme name used in reports (overridden by subclasses).
    name: str = "abstract"
    #: I-cache banks the scheme requires.
    num_banks: int = 1
    #: What one packet may contain (:data:`repro.check.rules.RULES`);
    #: :meth:`plan` walks the predicted path as far as they allow.
    rules: SchemeRules
    #: Optional packet-legality checker (``repro.check``): when set,
    #: every delivered plan is verified against the scheme's declarative
    #: capability rules before it is compared with the trace.
    checker: "PacketChecker | None" = None

    def __init__(
        self,
        config: MachineConfig,
        trace: DynamicTrace,
        direction_predictor: DirectionPredictor | None = None,
        return_stack: ReturnAddressStack | None = None,
        num_banks: int | None = None,
    ) -> None:
        """Create the unit.

        The optional *direction_predictor* replaces the BTB's 2-bit
        counters for conditional-branch direction (targets still come
        from the BTB); the optional *return_stack* predicts return
        targets.  Both are extensions beyond the paper's baseline,
        used by the predictor ablations (the conclusion asks whether a
        better predictor makes the shifter collapsing buffer viable).
        *num_banks* overrides the scheme's cache banking (ablations).
        """
        self.config = config
        self.trace = trace
        self.direction_predictor = direction_predictor
        self.return_stack = return_stack
        if num_banks is not None:
            self.num_banks = num_banks
        self.block_words = config.words_per_block
        self.cache = InstructionCache(
            size_bytes=config.icache_bytes,
            block_bytes=config.icache_block_bytes,
            num_banks=self.num_banks,
            miss_latency=config.icache_miss_latency,
        )
        self.btb = BranchTargetBuffer(
            num_entries=config.btb_entries,
            interleave=config.words_per_block,
        )
        self.stats = FetchStats()
        #: Precomputed trace address array (the trace is complete by the
        #: time a unit is built); :meth:`fetch_cycle` compares plans
        #: against plain ints instead of touching Instruction objects.
        self._trace_addresses = trace.address_array()
        #: Per-slot prediction hook for :meth:`plan`.  Without the
        #: optional direction predictor and return stack (the paper's
        #: baseline) :meth:`predict_slot` reduces to a plain BTB lookup,
        #: so the walk skips the wrapper entirely.
        if direction_predictor is None and return_stack is None:
            self._slot_predictor = self.btb.predict
        else:
            self._slot_predictor = self.predict_slot

    # -- the planning step -------------------------------------------------

    def plan(self, fetch_address: int, limit: int) -> FetchPlan:
        """Plan one fetch cycle starting at *fetch_address*.

        Walks the BTB-predicted path as far as :attr:`rules` allow, at
        most *limit* addresses (window space and issue width), using
        only addresses, the cache and the BTB — never the trace.  Every
        planned address is predicted once, in order, and nothing else
        is.  A missing fetch block stalls the cycle; any other stop ends
        the packet and names its cause in ``break_reason``.
        """
        rules = self.rules
        cache = self.cache
        words = self.block_words
        block = fetch_address // words
        if not cache.access(block):
            cache.fill(block)
            return FetchPlan(stall_cycles=cache.miss_latency)
        # A bounded scheme reads at most max_blocks runs, one block each,
        # so it never comes back to a block it left; an unbounded one
        # reads each new block once per cycle and may come back to it.
        bounded = rules.max_blocks != UNLIMITED
        entered = [block]
        resident = {block: True}  # block -> this cycle's access hit
        if rules.consecutive_blocks_only:
            # The blind next-block prefetch: a miss fills the block for a
            # later cycle and ends this one's run at the block boundary.
            resident[block + 1] = cache.access(block + 1)
            if not resident[block + 1]:
                cache.fill(block + 1)
        addresses: list[int] = []
        append = addresses.append
        predict = self._slot_predictor
        address = fetch_address
        reason = "full"
        while len(addresses) < limit:
            if address // words != block:
                block = address // words
                if bounded:
                    if len(entered) == rules.max_blocks:
                        # Reached by a crossing or by running off the
                        # end of the last block the scheme may read.
                        if reason != "taken_branch":
                            reason = "alignment"
                        break
                    bank = cache.bank_of(block)
                    if rules.banked_conflict_free and bank in map(
                        cache.bank_of, entered
                    ):
                        reason = "bank_conflict"
                        break
                    entered.append(block)
                hit = resident.get(block)
                if hit is None:
                    hit = resident[block] = cache.access(block)
                    if not hit:
                        cache.fill(block)
                if not hit:
                    reason = "cache_miss"
                    break
                reason = "full"
            append(address)
            prediction = predict(address)
            if not prediction.taken:
                address += 1
                continue
            target = prediction.target
            if target // words != block and not rules.sequential_only:
                # An inter-block crossing, followed if the rules let the
                # packet enter the target's block.  It ends a bounded
                # scheme's run in this block even when the packet is full.
                if bounded:
                    reason = "taken_branch"
            elif rules.sequential_only or not (
                rules.collapses_forward_intra
                if target > address
                else rules.allows_backward_intra
            ):
                address = target
                reason = "taken_branch"
                break
            address = target
        return FetchPlan(addresses, address, 0, reason)

    # -- harness ------------------------------------------------------------

    def fetch_cycle(self, position: int, limit: int) -> FetchResult:
        """Run one fetch cycle at trace *position*; see module docstring."""
        trace = self.trace.instructions
        addresses = self._trace_addresses
        total = len(trace)
        if position >= total or limit <= 0:
            return FetchResult([])
        self.stats.cycles += 1
        fetch_address = addresses[position]
        width = min(limit, self.config.issue_rate)
        plan = self.plan(fetch_address, width)
        if plan.stall_cycles > 0:
            self.stats.cache_stall_cycles += plan.stall_cycles
            return FetchResult([], stall_cycles=plan.stall_cycles)
        if self.checker is not None:
            self.checker.check_plan(self, fetch_address, plan, width)

        matched = 0
        mispredict = False
        plan_addresses = plan.addresses
        count = len(plan_addresses)
        if (
            position + count <= total
            and addresses[position : position + count] == plan_addresses
        ):
            # Common case — the whole plan matches (one C-level compare).
            matched = count
        else:
            for planned_address in plan_addresses:
                index = position + matched
                if index >= total:
                    break
                if addresses[index] != planned_address:
                    mispredict = True
                    break
                matched += 1
        if not mispredict:
            cont = position + matched
            if cont < total and plan.next_address != addresses[cont]:
                mispredict = True
        if matched == 0:
            # The plan always starts at the actual fetch address.
            raise AssertionError("fetch plan diverged at its own fetch address")

        delivered = trace[position : position + matched]
        self.stats.delivered += matched
        if mispredict:
            self.stats.mispredicts += 1
        if matched == self.config.issue_rate:
            self.stats.full_deliveries += 1
        return FetchResult(
            delivered, mispredict=mispredict, break_reason=plan.break_reason
        )

    def wrong_path_cycle(self, address: int, limit: int) -> int:
        """Fetch one *wrong-path* cycle starting at *address*.

        Used by the optional wrong-path-fetch simulation mode: after a
        misprediction real hardware keeps fetching down the predicted
        (wrong) path until the branch resolves, touching — and polluting
        — the instruction cache.  The planned instructions are discarded;
        only the cache side effects and the continuation address matter.
        Returns the next wrong-path fetch address (or -1 to stop, e.g. on
        a cache-miss stall).
        """
        if address < 0:
            return -1
        plan = self.plan(address, min(limit, self.config.issue_rate))
        if plan.stall_cycles > 0:
            # The miss fill was already triggered; hardware would wait —
            # stop following this path (resolution usually wins the race).
            return -1
        return plan.next_address

    def train(
        self,
        instruction: Instruction,
        taken: bool,
        target: int,
    ) -> None:
        """Train the predictors with a resolved control transfer
        (called by the core at branch resolution)."""
        self.btb.update(
            instruction.address,
            taken,
            target,
            is_unconditional=instruction.is_unconditional,
            is_call=instruction.op is OpClass.CALL,
            is_return=instruction.op is OpClass.RET,
        )
        if (
            self.direction_predictor is not None
            and instruction.is_conditional_branch
        ):
            self.direction_predictor.update(
                instruction.address, instruction.target, taken
            )

    def predict_slot(self, address: int) -> BTBPrediction:
        """Predict one instruction slot, combining BTB, the optional
        direction predictor, and the optional return stack.

        The return stack is speculative and unrepaired: capacity-cut
        walks may pop/push without the instructions being delivered,
        exactly as wrong-path fetch would perturb real hardware.
        """
        prediction = self.btb.predict(address)
        if not prediction.hit:
            return prediction
        if prediction.is_conditional and self.direction_predictor is not None:
            taken = self.direction_predictor.predict(
                address, prediction.target
            )
            prediction = BTBPrediction(
                hit=True,
                taken=taken,
                target=prediction.target,
                is_conditional=True,
            )
        if self.return_stack is not None and prediction.taken:
            if prediction.is_return:
                predicted = self.return_stack.pop()
                if predicted >= 0:
                    prediction = BTBPrediction(
                        hit=True,
                        taken=True,
                        target=predicted,
                        is_return=True,
                    )
            elif prediction.is_call:
                self.return_stack.push(address + 1)
        return prediction
