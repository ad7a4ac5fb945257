"""Direct-mapped instruction cache with banking.

All three machine models use a direct-mapped I-cache whose block holds
exactly the issue rate in instructions (paper Table 1): PI4 32KB/16B,
PI8 64KB/32B, PI12 128KB/64B.  The interleaved/banked fetch schemes view
the cache as ``num_banks`` banks; consecutive blocks live in consecutive
banks (low-order block-index interleaving, paper Figure 4).

Addresses are instruction-word indices (4 bytes each); a *block index* is
``word_address // words_per_block``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instruction import BYTES_PER_INSTRUCTION


@dataclass(slots=True)
class CacheStats:
    """Access counters for an instruction cache."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.misses = 0


class InstructionCache:
    """A direct-mapped, banked instruction cache.

    Args:
        size_bytes: Total capacity.
        block_bytes: Block (line) size.
        num_banks: Bank count for interleaved access (2 for the paper's
            interleaved/banked/collapsing schemes, 1 for plain sequential).
        miss_latency: Cycles to fill a block from the next memory level.
    """

    def __init__(
        self,
        size_bytes: int,
        block_bytes: int,
        num_banks: int = 1,
        miss_latency: int = 10,
    ) -> None:
        if size_bytes <= 0 or block_bytes <= 0:
            raise ValueError("cache and block sizes must be positive")
        if size_bytes % block_bytes:
            raise ValueError("cache size must be a multiple of the block size")
        if block_bytes % BYTES_PER_INSTRUCTION:
            raise ValueError("block size must hold whole instructions")
        if num_banks < 1:
            raise ValueError("need at least one bank")
        self.size_bytes = size_bytes
        self.block_bytes = block_bytes
        self.num_banks = num_banks
        self.miss_latency = miss_latency
        self.words_per_block = block_bytes // BYTES_PER_INSTRUCTION
        self.num_sets = size_bytes // block_bytes
        self._tags: list[int] = [-1] * self.num_sets
        self.stats = CacheStats()

    # -- address helpers ----------------------------------------------------

    def block_index(self, word_address: int) -> int:
        """Block index containing *word_address*."""
        return word_address // self.words_per_block

    def block_start(self, block_index: int) -> int:
        """First word address of *block_index*."""
        return block_index * self.words_per_block

    def bank_of(self, block_index: int) -> int:
        """Bank holding *block_index* (low-order interleaving)."""
        return block_index % self.num_banks

    def set_of(self, block_index: int) -> int:
        return block_index % self.num_sets

    # -- operations ---------------------------------------------------------

    def probe(self, block_index: int) -> bool:
        """Non-recording lookup: True if the block is resident."""
        return self._tags[self.set_of(block_index)] == block_index

    def access(self, block_index: int) -> bool:
        """Look up a block, recording statistics.  Returns hit/miss.

        A miss does *not* fill the block; callers model the fill delay and
        then call :meth:`fill`.
        """
        self.stats.accesses += 1
        if self.probe(block_index):
            return True
        self.stats.misses += 1
        return False

    def fill(self, block_index: int) -> None:
        """Install a block, evicting the direct-mapped victim."""
        self._tags[self.set_of(block_index)] = block_index

    def prewarm(self, addresses) -> None:
        """Sweep the blocks spanned by the word *addresses* (non-empty)
        through the cache in layout order, as a steady-state start: a
        footprint larger than the cache keeps only the last-filled
        conflicting blocks.  Records no statistics."""
        for block in range(
            self.block_index(min(addresses)),
            self.block_index(max(addresses)) + 1,
        ):
            self.fill(block)

    def access_and_fill(self, block_index: int) -> bool:
        """Access and immediately fill on miss; returns the hit/miss result."""
        hit = self.access(block_index)
        if not hit:
            self.fill(block_index)
        return hit

    def flush(self) -> None:
        """Invalidate all blocks (statistics are preserved)."""
        self._tags = [-1] * self.num_sets

    def resident_blocks(self) -> list[int]:
        """Block indices currently resident (for tests/inspection)."""
        return [tag for tag in self._tags if tag >= 0]
