"""Nop padding for branch-target alignment (paper Section 4.1).

* **pad-trace** pads the end of each selected trace with nops so the next
  trace begins at a cache-block boundary.  Trace-ending branches are
  likely taken (Fisher's selection places them there), so the pads are
  seldom executed — code grows only a few percent (paper Table 4).
* **pad-all** pads after *every* basic block, without regard for trace
  membership — no profile needed, but code expands dramatically at large
  block sizes (up to ~255% in the paper), wrecking cache locality.

A pass first plans its pads (positions and lengths, one walk of the
block order), which is all the expansion statistics need.  The padded
program is built from the plan on demand: pads become nop-only
fall-through blocks spliced into the layout; when the preceding block
can fall through, its fall edge is rewired through the pad so semantics
are preserved (the nops execute on that path, exactly as in real padded
code).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.layout_opt import ReorderResult
from repro.isa.instruction import nop
from repro.program.basic_block import BasicBlock, TermKind
from repro.program.program import Program, clone_cfg

#: Terminators whose sequential successor is reached by falling through.
_FALLS_THROUGH = (TermKind.FALLTHROUGH, TermKind.COND, TermKind.CALL)


@dataclass(slots=True)
class PaddingResult:
    """A padding plan plus expansion statistics.

    The plan — which order positions get a pad, and how long — costs one
    walk of the block order.  The padded :attr:`program` (a CFG clone
    and a full layout) is built on first access only, so expansion
    statistics (paper Table 4) never pay for it.
    """

    source: Program
    #: ``(order position, nop count)`` per pad, in layout order.
    pads: tuple[tuple[int, int], ...]
    nops_inserted: int
    original_size: int
    _program: Program | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def program(self) -> Program:
        """The padded program, built from the plan on first access."""
        if self._program is None:
            self._program = _build_padded(self.source, self.pads)
        return self._program

    @property
    def expansion(self) -> float:
        """Inserted nops as a fraction of the original code size
        (paper Table 4 reports this as a percentage)."""
        return self.nops_inserted / self.original_size if self.original_size else 0.0


def pad_all(program: Program, block_words: int) -> PaddingResult:
    """Align every basic block to a cache-block boundary."""
    boundaries = set(range(len(program.block_order)))
    return _insert_pads(program, boundaries, block_words)


def pad_trace(
    reordered: ReorderResult,
    block_words: int,
    heat_fraction: float = 0.05,
) -> PaddingResult:
    """Align each *hot* trace of a reordered program to a block boundary.

    Only traces whose profiled heat reaches *heat_fraction* of the hottest
    trace are padded: cold code (which in the paper's SPEC binaries never
    forms meaningful traces) is left untouched, keeping the static cost an
    order of magnitude below pad-all (paper Table 4).
    """
    program = reordered.program
    heats = reordered.trace_heats or [1] * len(reordered.traces)
    threshold = max(1, int(heat_fraction * max(heats, default=1)))
    # Pad the end of trace i when the *following* trace is hot: the point
    # is to make hot traces begin at block boundaries.
    boundaries: set[int] = set()
    index = -1
    for position, trace in enumerate(reordered.traces):
        index += len(trace)
        if position + 1 < len(heats) and heats[position + 1] >= threshold:
            boundaries.add(index)
    return _insert_pads(program, boundaries, block_words)


def _insert_pads(
    program: Program,
    boundaries: set[int],
    block_words: int,
) -> PaddingResult:
    """Plan alignment pads after the order positions in *boundaries*."""
    if block_words <= 0:
        raise ValueError("block_words must be positive")
    cfg = program.cfg
    order = program.block_order
    last = len(order) - 1
    pads: list[tuple[int, int]] = []
    address = program.base_address
    nops_inserted = 0
    for index, block_id in enumerate(order):
        block = cfg.block(block_id)
        address += block.size
        if index not in boundaries or index >= last:
            continue
        pad_len = (block_words - address % block_words) % block_words
        if pad_len == 0:
            continue
        if (
            block.term_kind in _FALLS_THROUGH
            and block.fall_id != order[index + 1]
        ):
            raise AssertionError("fall-through invariant broken before padding")
        pads.append((index, pad_len))
        address += pad_len
        nops_inserted += pad_len
    return PaddingResult(
        source=program,
        pads=tuple(pads),
        nops_inserted=nops_inserted,
        original_size=program.num_instructions,
    )


def _build_padded(program: Program, pads: tuple[tuple[int, int], ...]) -> Program:
    """Materialise a padding plan: splice a nop-only fall-through block
    after each planned position of a clone of *program*'s CFG."""
    cfg = clone_cfg(program.cfg)
    old_order = program.block_order
    pad_at = dict(pads)
    new_order: list[int] = []
    for index, block_id in enumerate(old_order):
        new_order.append(block_id)
        pad_len = pad_at.get(index)
        if pad_len is None:
            continue
        block = cfg.block(block_id)
        successor = old_order[index + 1]
        pad = BasicBlock(
            body=[nop() for _ in range(pad_len)],
            term_kind=TermKind.FALLTHROUGH,
            fall_id=successor,
        )
        cfg.add_block(pad, cfg.function(block.func_id))
        # Reroute the preceding block's sequential path through the pad so
        # a not-taken branch (or plain fall-through) executes the nops.
        if block.term_kind in _FALLS_THROUGH:
            block.fall_id = pad.block_id
        new_order.append(pad.block_id)
    return Program.from_order(
        cfg,
        new_order,
        base_address=program.base_address,
        name=program.name,
    )
