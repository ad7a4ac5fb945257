"""Compiled execution kernel: table-driven fetch + flattened trace replay.

The reference loop (:meth:`repro.sim.simulator.Simulator.run_reference`)
dispatches through ``FetchUnit``/``ExecutionCore`` objects on every
cycle.  This module
compiles a (trace, machine, fetch scheme) triple into dense tables once
and then replays the dynamic trace as plain array lookups:

* **Trace table** (:func:`compile_trace`, cached per trace): per dynamic
  instruction, its latency, functional-unit id, control/branch flags and
  — the key insight — its *register dependencies as trace indices*.
  Dispatch is in trace order and every instruction dispatches exactly
  once, so the Tomasulo producer table is a pure function of the trace:
  the dependency of instruction *i* on source register *r* is the last
  writer of *r* before *i*, live iff that writer has not yet written
  back.  The same argument precomputes the conservative memory-ordering
  edge (last store before each load/store).  The op-derived arrays
  are one ``bytes.translate`` each over the trace's ops lowered to
  ``bytes``.

* **Fetch outcome table** (built lazily during the run): with the BTB
  as the only predictor, fetch plans are pure functions of (fetch
  address, BTB effective state, I-cache tags).
  Each planned packet — its delivered addresses, continuation address
  and statistic deltas — is memoized per fetch address together with the
  BTB slots and cache sets it read: the slots of its own addresses
  (the predicted-addresses invariant at :data:`_SUPPORTED_SCHEMES`) and
  the sets recorded by ``cache.access`` / ``cache.fill`` wrappers
  installed for the duration of the run.  The entry is invalidated only
  when a dependency *effectively* changes: a BTB train whose slot
  ``BranchTargetBuffer.update`` reports as changed (its (tag, target)
  while predicting taken), or a cache fill that replaces a depended-on
  set.  Saturating-counter re-trains and same-block refills invalidate
  nothing, so steady-state fetch is a dict hit.  Plans that performed a
  fill themselves (prefetch/successor misses) are never memoized — their
  outcome is not reusable once the block is resident.  The
  packet-legality rules of :mod:`repro.check` are honoured at
  table-build time: when a ``PacketChecker`` hangs off the fetch unit,
  every *distinct* packet is checked once as its table entry is built
  (K-codes per entry instead of per cycle).  A direction predictor or
  return stack carries per-lookup state outside that dependency model,
  so such a unit plans *live*: no memo, no wrappers, one ``fetch.plan()``
  per fetch, and training updates the direction predictor after the BTB
  exactly as ``FetchUnit.train`` does.  Wrong-path fetch runs live in
  either mode: while a misprediction resolves, each gated cycle calls
  ``FetchUnit.wrong_path_cycle``, whose fills pass through the memo's
  fill wrapper and so invalidate the plans that depended on the set.
  The memo and its matching rule are one fetch step, ``deliver`` of
  :func:`plan_memo`, which fetch-only EIR (:mod:`repro.sim.eir`) calls
  too; there a packet checker also turns the memo off, so it sees every
  fetched packet.

* **Fetch-outcome tape** (recorded on the first compiled run): a run is
  a pure function of (trace, config, the fetch unit's starting state,
  prewarm) — no RNG, no wall clock — so the first run records every
  fetch invocation's resolved outcome (position, stall, delivered
  count, mispredict flag, cumulative BTB/cache stat deltas, the cause
  of a short delivery), one entry per wrong-path cycle (position -1),
  plus the unit's end state, and
  later runs from the same starting state replay the tape with *zero*
  predictor object work: no plan builds, no memo lookups, no BTB
  training, no I-cache prewarm.  A replay installs the recorded end
  state (the BTB's slot arrays with its prediction memo cleared, cache
  tags, predictor and return stack attributes), so the unit ends as a
  live run leaves it.
  :func:`_tape_key` alone decides eligibility: no packet checker,
  zeroed fetch/BTB/cache counters, an empty cache, and predictor /
  return stack state made only of plain values (it joins the key, as
  does the wrong-path mode).  Tapes live in memory, on their trace's
  tables, and only the :data:`TAPE_LIMIT` most recently recorded are
  kept process-wide: a rerun follows its recording closely, and a cold
  paper report records a tape per cell and replays none, so an
  unbounded store would only hold tapes nobody replays.

The replay loop then mirrors ``Simulator.run_reference()`` — same phase
order, same warmup-snapshot placement — and jumps over cycles that
provably cannot change state (the event skip, see
``docs/performance.md``).  Its state is flat integers: a ``done`` byte
per instruction retired via C-level scans, static consumer lists with
pending-producer counts (a producer's writeback decrements its
consumers; count zero at dispatch means ready), and completion buckets
bounded to the two possible result cycles (all latencies are 1 or 2),
producing bit-identical
:class:`~repro.sim.stats.SimStats` (``tests/test_equivalence.py`` is the
oracle).

A telemetry run stays in the kernel, which charges its slot ledger
(``sim.slot_ledger``) in every mode with the one rule of
:mod:`repro.telemetry.attribution`.  A cycle that fetched is charged by
the cause its plan record or tape entry carries; a gated cycle by
:func:`~repro.telemetry.attribution.gate_cause` over the flat state the
loop holds (queue length, window/ROB occupancy, the queue head against
the speculation depth, ``waiting``, ``fetch_blocked_until`` and the
cause that last set it); an event-skipped span in bulk, split at
``fetch_blocked_until``.  With telemetry off the loop pays one ``None``
test per iterated cycle.

The kernel *declines* configurations it cannot reproduce exactly —
the sanitizer's per-cycle checks of the reference loop's objects,
schemes with mutable planning state (the trace cache) — and
``Simulator.run()`` runs the reference loop for them instead (see
:func:`decline_reason`).  ``REPRO_KERNEL=0`` disables it globally; the
fault site ``sim.kernel`` degrades to the reference loop under chaos
testing.

``KERNEL_TABLE_VERSION`` is salted into persistent result-cache keys
(:mod:`repro.sim.cache`) so cached statistics never outlive a table
format or replay-semantics change.
"""

from __future__ import annotations

import dataclasses
import weakref
from array import array
from collections import deque
from time import perf_counter

from repro import knobs
from repro.fetch.banked import BankedSequentialFetch
from repro.fetch.collapsing import CollapsingBufferFetch
from repro.fetch.interleaved import InterleavedSequentialFetch
from repro.fetch.perfect import PerfectFetch
from repro.fetch.sequential import SequentialFetch
from repro.isa.opcodes import (
    CONTROL_OPS,
    LATENCY_FOR_OP,
    UNCONDITIONAL_OPS,
    UNIT_FOR_OP,
    OpClass,
)
from repro.telemetry.attribution import (
    ICACHE_MISS,
    MISPREDICT_RESOLVE,
    break_cause,
    fetch_cause,
    gate_cause,
)

__all__ = [
    "KERNEL_TABLE_VERSION",
    "TAPE_LIMIT",
    "TraceTable",
    "compile_trace",
    "decline_reason",
    "kernel_enabled",
    "plan_memo",
    "run_compiled",
    "stats",
    "train_flags",
]

#: Bumped whenever the table format or replay semantics change; salted
#: into :mod:`repro.sim.cache` keys so stale cached results are never
#: served across kernel revisions.
KERNEL_TABLE_VERSION = 2

#: Schemes whose ``plan()`` — the one rules walk, ``FetchUnit.plan`` —
#: is a pure function of (address, BTB effective state, cache tags),
#: guarded by the equivalence suite.  Exact-type matched: subclasses
#: (the trace cache, which keeps mutable planning state; Figure 10's
#: crossing ablation, which walks other rules) are *not* vetted.
#:
#: The predicted-addresses invariant: the walk asks the BTB about
#: exactly the addresses it plans (it appends an address, then predicts
#: it), so :func:`plan_memo` reads a plan's BTB dependencies off
#: ``plan.addresses`` (guarded by ``tests/test_fetch.py``).
_SUPPORTED_SCHEMES = frozenset(
    {
        SequentialFetch,
        InterleavedSequentialFetch,
        BankedSequentialFetch,
        CollapsingBufferFetch,
        PerfectFetch,
    }
)

#: Module-level counters (reset with :func:`reset_stats`): how often the
#: kernel ran, reused a cached trace table, compiled or replayed fetch
#: plans, and how many memo entries dependency tracking invalidated.
stats: dict[str, int] = {}


def reset_stats() -> None:
    stats.update(
        runs=0,
        tables_compiled=0,
        table_hits=0,
        plans_compiled=0,
        plan_replays=0,
        plan_invalidations=0,
        tapes_recorded=0,
        tape_replays=0,
        tapes_evicted=0,
    )


reset_stats()


def kernel_enabled() -> bool:
    """Environment default for the kernel (``REPRO_KERNEL``, on unless
    explicitly disabled)."""
    return knobs.enabled("REPRO_KERNEL")


def decline_reason(sim) -> str | None:
    """Why the kernel cannot run *sim* exactly, or ``None`` if it can.

    Mirrored in docs/performance.md: the sanitizer checks the reference
    loop's objects every cycle; non-vetted schemes (trace cache) keep
    planning state outside the (BTB, cache-tags) dependency model and
    outside the tape's end state.  Telemetry, direction predictors,
    return stacks and wrong-path fetch are not a reason: the kernel
    keeps the slot ledger itself.  A declined run executes
    :meth:`~repro.sim.simulator.Simulator.run_reference`.
    """
    if sim.sanitizer is not None:
        return "sanitize"
    fetch = sim.fetch_unit
    if type(fetch) not in _SUPPORTED_SCHEMES:
        return f"scheme:{fetch.name}"
    if not sim.trace.instructions:
        return "empty-trace"
    return None


# -- fetch-outcome tape eligibility, bound and unit state --------------------

#: Fetch-outcome tapes held at once, process-wide (see the module
#: docstring).
TAPE_LIMIT = 8


class _TraceTables(dict):
    """``DynamicTrace._kernel_tables``: a dict the tape index can refer
    to weakly, so it never keeps a dead trace's tapes alive."""

    __slots__ = ("__weakref__",)


#: ``(weak reference to a trace's tables, tape key)`` per recorded tape,
#: oldest first.  An entry whose trace died, or whose tape a staleness
#: sweep dropped, ages out like any other.
_tape_order: deque = deque()


def _trace_tables(trace) -> _TraceTables:
    tables = trace._kernel_tables
    if tables is None:
        tables = trace._kernel_tables = _TraceTables()
    return tables


def _hold_tape(tables: _TraceTables, key: tuple, tape: tuple) -> None:
    """Store *tape* under *key* on its trace's *tables* and drop the
    oldest tape process-wide once more than :data:`TAPE_LIMIT` are held."""
    tables[key] = tape
    stats["tapes_recorded"] += 1
    _tape_order.append((weakref.ref(tables), key))
    if len(_tape_order) > TAPE_LIMIT:
        ref, old_key = _tape_order.popleft()
        owner = ref()
        if owner is not None and owner.pop(old_key, None) is not None:
            stats["tapes_evicted"] += 1


_PLAIN_TYPES = frozenset({int, bool, float, str, type(None)})


def _plain_state(obj) -> tuple | None:
    """*obj*'s type and attribute values, lists as tuples: ``()`` for an
    absent extension, ``None`` when some value is not a plain value (so
    the state cannot be compared, and the unit gets no tape)."""
    if obj is None:
        return ()
    try:
        attrs = vars(obj)
    except TypeError:
        return None
    items = []
    for name, value in attrs.items():
        if type(value) is list:
            value = tuple(value)
        if type(value) is tuple:
            if not all(type(v) in _PLAIN_TYPES for v in value):
                return None
        elif type(value) not in _PLAIN_TYPES:
            return None
        items.append((name, value))
    return (type(obj), tuple(items))


def _tape_key(sim) -> tuple | None:
    """The fetch-outcome tape key of *sim*, or ``None`` when its fetch
    unit may not use a tape.

    The one eligibility rule, for factory-built and caller-built units
    alike: no packet checker (K-codes must actually run), zeroed fetch,
    BTB and cache counters, and every cache tag -1 — the unit has never
    planned, trained or filled.  Its remaining starting state is the
    configuration it was built with plus the direction predictor's and
    return stack's attribute values, all of which join the key, as does
    the wrong-path mode (it changes what the run fetches).
    ``warmup`` is left out on purpose: it moves the snapshot, never the
    fetch dynamics.
    """
    fetch = sim.fetch_unit
    cache = fetch.cache
    if fetch.checker is not None:
        return None
    for counters in (fetch.stats, fetch.btb.stats, cache.stats):
        if any(getattr(counters, f.name) for f in dataclasses.fields(counters)):
            return None
    tags = cache._tags
    if tags.count(-1) != len(tags):
        return None
    predictor = _plain_state(fetch.direction_predictor)
    stack = _plain_state(fetch.return_stack)
    if predictor is None or stack is None:
        return None
    return (
        "tape",
        sim.config,
        fetch.config,
        type(fetch),
        fetch.num_banks,
        predictor,
        stack,
        sim._prewarmed,
        sim.wrong_path_fetch,
        len(sim.trace.instructions),
    )


def _end_state(fetch) -> tuple:
    """What a run leaves in *fetch* beyond its counted statistics: the
    BTB's slot arrays and update/allocation counts, cache tags, and
    predictor and return stack attributes."""
    btb = fetch.btb
    return (
        # Arrays and bytes: no int object per slot or set.
        array("q", btb.tags),
        array("q", btb.targets),
        bytes(btb.states),
        bytes(btb.flags),
        btb.stats.updates,
        btb.stats.allocations,
        array("q", fetch.cache._tags),
        _plain_state(fetch.direction_predictor),
        _plain_state(fetch.return_stack),
    )


def _install_end_state(fetch, end: tuple) -> None:
    """Leave *fetch* — in the starting state its tape was recorded from —
    as the recorded run left it (see :func:`_end_state`)."""
    btb_tags, targets, states, flags, updates, allocations, tags, predictor, stack = end
    btb = fetch.btb
    btb.tags[:] = btb_tags
    btb.targets[:] = targets
    btb.states[:] = states
    btb.flags[:] = flags
    btb.predictions[:] = [None] * btb.num_entries
    btb.stats.updates = updates
    btb.stats.allocations = allocations
    fetch.cache._tags = list(tags)
    for obj, state in (
        (fetch.direction_predictor, predictor),
        (fetch.return_stack, stack),
    ):
        for name, value in state[1] if state else ():
            if type(getattr(obj, name)) is list:
                value = list(value)
            setattr(obj, name, value)


# -- trace table ------------------------------------------------------------

_OPS = list(map(OpClass, range(len(OpClass))))


def _lut(byte_of) -> bytes:
    """A 256-byte ``bytes.translate`` table: an op's value to
    ``byte_of(op)``."""
    return bytes(byte_of(op) for op in _OPS).ljust(256, b"\0")


_LAT_LUT = _lut(LATENCY_FOR_OP.__getitem__)
_UNIT_LUT = _lut(UNIT_FOR_OP.__getitem__)
_CONTROL_LUT = _lut(lambda op: op in CONTROL_OPS)
_UNCOND_LUT = _lut(lambda op: op in UNCONDITIONAL_OPS)
_BRCOND_LUT = _lut(lambda op: op is OpClass.BR_COND)
_CALL_LUT = _lut(lambda op: op is OpClass.CALL)
_RET_LUT = _lut(lambda op: op is OpClass.RET)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)


class TraceTable:
    """Per-trace compiled arrays (see module docstring).

    ``lat``/``unit`` are ``bytes`` (O(1) int reads, immutable, compact)
    like the flag arrays of :func:`train_flags`; the dependency arrays
    are plain int lists (values are trace indices or -1).
    """

    __slots__ = (
        "length",
        "conservative",
        "lat",
        "unit",
        "ndeps",
        "consumers",
        "final_writer",
    )


def _op_arrays(instrs, luts) -> list[bytes]:
    """One byte array per 256-byte table in *luts*, indexed by each
    instruction's op: the ops are lowered to ``bytes`` once, then
    translated per table."""
    ops = bytes([i.op for i in instrs])
    return [ops.translate(lut) for lut in luts]


#: The flag tables :func:`train_flags` returns, in its order.
_FLAG_LUTS = (_CONTROL_LUT, _UNCOND_LUT, _CALL_LUT, _RET_LUT, _BRCOND_LUT)


def train_flags(trace) -> list[bytes]:
    """``[control, unconditional, call, return, conditional]`` byte flags
    per dynamic instruction of *trace*: what training reads, without the
    dependency tables of :func:`compile_trace`.  Cached on the trace
    beside them, under the same length-suffixed key scheme."""
    n = len(trace.instructions)
    tables = _trace_tables(trace)
    key = ("train_flags", n)
    flags = tables.get(key)
    if flags is None:
        flags = tables[key] = _op_arrays(trace.instructions, _FLAG_LUTS)
    return flags


def compile_trace(trace, conservative: bool) -> TraceTable:
    """Compile (and cache on the trace) the dependency/flag tables.

    The cache key includes the trace length (the staleness test the
    trace's own lazy arrays use) and the memory-ordering mode, which
    adds the store edge.
    """
    instrs = trace.instructions
    n = len(instrs)
    tables = _trace_tables(trace)
    key = (conservative, n)
    table = tables.get(key)
    if table is not None:
        stats["table_hits"] += 1
        return table
    # Both table keys and tape keys end with the trace length, so one
    # staleness sweep drops everything compiled against an older stream.
    for stale in [k for k in tables if k[-1] != n]:
        del tables[stale]

    table = TraceTable()
    table.length = n
    table.conservative = conservative
    # One pass over the ops for this table and :func:`train_flags`.
    table.lat, table.unit, *flags = _op_arrays(
        instrs, (_LAT_LUT, _UNIT_LUT, *_FLAG_LUTS)
    )
    tables.setdefault(("train_flags", n), flags)

    # Dependencies as a *static consumer graph*: dispatch is in trace
    # order, so instruction i's producers are the last writers of its
    # sources before i (plus, under conservative memory ordering, the
    # last store before a load/store — the store's own dispatch-time
    # check precedes its pending-store update, so a store waits on the
    # *previous* store).  ``ndeps[i]`` counts i's producers; a producer's
    # writeback decrements every consumer's count, so at dispatch the
    # count *is* the number of still-in-flight producers — no per-dep
    # checks remain in the replay loop.
    ndeps = bytearray(n)
    consumers: list = [()] * n
    last_writer = [-1] * 64  # NUM_REGS; src/dest are flat ids or -1
    last_store = -1
    for i, ins in enumerate(instrs):
        s = ins.src1
        if s >= 0:
            d = last_writer[s]
            if d >= 0:
                ndeps[i] += 1
                c = consumers[d]
                if c:
                    c.append(i)
                else:
                    consumers[d] = [i]
        s = ins.src2
        if s >= 0:
            d = last_writer[s]
            if d >= 0:
                ndeps[i] += 1
                c = consumers[d]
                if c:
                    c.append(i)
                else:
                    consumers[d] = [i]
        if conservative:
            o = int(ins.op)
            if o == _LOAD or o == _STORE:
                if last_store >= 0:
                    ndeps[i] += 1
                    c = consumers[last_store]
                    if c:
                        c.append(i)
                    else:
                        consumers[last_store] = [i]
                if o == _STORE:
                    last_store = i
        d = ins.dest
        if d >= 0:
            last_writer[d] = i
    table.ndeps = bytes(ndeps)
    table.consumers = consumers
    # Last architectural writer per register over the whole trace — the
    # Future file's precise state after a run that retires everything.
    table.final_writer = last_writer

    tables[key] = table
    stats["tables_compiled"] += 1
    return table


# -- fetch-plan memo ----------------------------------------------------------


def plan_memo(fetch, trace, width: int, memoize: bool = True) -> tuple:
    """The fetch step of *fetch* on *trace* at plan width *width*, over
    its fetch-plan memo, as closures.

    Returns ``(deliver, train, install, remove, tally)``:

    * ``deliver(position)`` fetches once at trace index *position*: it
      replays the memoised packet of the fetch address, adding its BTB
      and cache statistic deltas to the live counters, or plans it
      (memoising it when reusable), then matches it against the trace
      exactly as ``FetchUnit.fetch_cycle`` does.  Returns ``(stall,
      matched, mispredict, record)``; ``record`` is the packet ``(stall,
      addrs, count, next, d_lookups, d_hits, d_acc, d_miss, cause)``,
      whose ``cause`` is the slot-attribution cause index of a short
      delivery (:func:`repro.telemetry.attribution.break_cause`).
    * ``train(index)`` trains the unit with the resolved control
      instruction at trace index *index*, as ``FetchUnit.train`` does,
      and invalidates the plans that read a BTB slot whose
      planning-effective state changed (the slot
      ``BranchTargetBuffer.update`` returns).
    * ``install()`` / ``remove()`` put the dependency-recording
      ``cache.access`` / ``cache.fill`` wrappers on the unit and take
      them off again.
    * ``tally(fetches)`` adds the plan counters of *fetches* delivered
      fetches to :data:`stats`.

    A plan's BTB dependencies are the slots of its own addresses: the one
    rules walk predicts exactly the addresses it plans, for every vetted
    scheme (the predicted-addresses invariant at
    :data:`_SUPPORTED_SCHEMES`).  With
    *memoize* false (a unit whose plans depend on a direction predictor
    or return stack, or whose packet checker must see every fetched
    packet) every fetch plans live and ``install`` / ``remove`` do
    nothing.  Closures rather than an object: the loops read them
    through closure cells.
    """
    btb = fetch.btb
    cache = fetch.cache
    bstats = btb.stats
    cstats = cache.stats
    memo: dict[int, tuple] = {}
    memo_get = memo.get
    btb_rev: dict[int, set[int]] = {}  # BTB slot -> memoized fetch addrs
    cache_rev: dict[int, set[int]] = {}  # cache set -> memoized fetch addrs
    dep_sets: set[int] = set()
    filled = False
    n_builds = 0
    n_invalidated = 0

    instrs = trace.instructions
    total = len(instrs)
    addr_ = trace.address_array()
    taken_ = trace.taken_array()
    next_ = trace.next_address_array()
    _, uncond_, call_, ret_, brcond_ = train_flags(trace)
    interleave = btb.interleave
    epb = btb.entries_per_bank
    num_sets = cache.num_sets
    tags = cache._tags
    plan_fn = fetch.plan
    checker = fetch.checker
    btb_update = btb.update
    direction = fetch.direction_predictor
    direction_update = direction.update if direction is not None else None
    real_access = cache.access
    real_fill = cache.fill

    def rec_access(block):
        dep_sets.add(block % num_sets)
        return real_access(block)

    def rec_fill(block):
        nonlocal filled, n_invalidated
        filled = True
        s = block % num_sets
        if tags[s] != block:
            deps = cache_rev.pop(s, None)
            if deps:
                for a in deps:
                    if memo.pop(a, None) is not None:
                        n_invalidated += 1
        real_fill(block)

    def build(address):
        """Plan one packet live, memoize it if reusable, return its
        record.  A stall plan delivers nothing and is never memoized (the
        miss fill it triggered changes its own outcome); the packet
        checker, when attached, runs once per built packet.  A plan that
        filled the cache (prefetch/successor miss) is planned again next
        time rather than memoized.
        """
        nonlocal filled, n_builds
        n_builds += 1
        dep_sets.clear()
        filled = False
        lk0 = bstats.lookups
        ht0 = bstats.hits
        ac0 = cstats.accesses
        ms0 = cstats.misses
        plan = plan_fn(address, width)
        stall = plan.stall_cycles
        if stall > 0:
            return (
                stall,
                None,
                0,
                -1,
                bstats.lookups - lk0,
                bstats.hits - ht0,
                cstats.accesses - ac0,
                cstats.misses - ms0,
                ICACHE_MISS,
            )
        if checker is not None:
            checker.check_plan(fetch, address, plan, width)
        addrs = plan.addresses
        rec = (
            0,
            addrs,
            len(addrs),
            plan.next_address,
            bstats.lookups - lk0,
            bstats.hits - ht0,
            cstats.accesses - ac0,
            cstats.misses - ms0,
            break_cause(plan.break_reason),
        )
        if memoize and not filled:
            memo[address] = rec
            for a in addrs:
                s = (a % interleave) * epb + (a // interleave) % epb
                members = btb_rev.get(s)
                if members is None:
                    btb_rev[s] = {address}
                else:
                    members.add(address)
            for s in dep_sets:
                members = cache_rev.get(s)
                if members is None:
                    cache_rev[s] = {address}
                else:
                    members.add(address)
        return rec

    def deliver(position):
        rec = memo_get(addr_[position])
        if rec is None:
            rec = build(addr_[position])
        else:
            bstats.lookups += rec[4]
            bstats.hits += rec[5]
            cstats.accesses += rec[6]
            cstats.misses += rec[7]
        stall = rec[0]
        if stall:
            return stall, 0, False, rec
        plan_addrs = rec[1]
        count = rec[2]
        end = position + count
        mispredict = False
        if end <= total and addr_[position:end] == plan_addrs:
            matched = count
        else:
            matched = 0
            for planned in plan_addrs:
                index = position + matched
                if index >= total:
                    break
                if addr_[index] != planned:
                    mispredict = True
                    break
                matched += 1
        if not mispredict:
            cont = position + matched
            if cont < total and rec[3] != addr_[cont]:
                mispredict = True
        if matched == 0:
            # The plan always starts at the actual fetch address.
            raise AssertionError("fetch plan diverged at its own fetch address")
        return 0, matched, mispredict, rec

    def train(j):
        nonlocal n_invalidated
        slot = btb_update(
            addr_[j], taken_[j], next_[j], uncond_[j], call_[j], ret_[j]
        )
        if slot >= 0:
            deps = btb_rev.pop(slot, None)
            if deps:
                for a in deps:
                    if memo.pop(a, None) is not None:
                        n_invalidated += 1
        if direction_update is not None and brcond_[j]:
            direction_update(addr_[j], instrs[j].target, taken_[j])

    def install():
        if memoize:
            cache.access = rec_access  # type: ignore[method-assign]
            cache.fill = rec_fill  # type: ignore[method-assign]

    def remove():
        if memoize:
            del cache.access  # type: ignore[method-assign]
            del cache.fill  # type: ignore[method-assign]

    def tally(fetches):
        stats["plans_compiled"] += n_builds
        stats["plan_replays"] += fetches - n_builds
        stats["plan_invalidations"] += n_invalidated

    return deliver, train, install, remove, tally


# -- compiled run -----------------------------------------------------------


def _warmup_snapshot(
    cycle,
    retired,
    delivered,
    mispredicts,
    cstats,
    bstats,
    last_e,
    spec_stalls,
    wf_stalls,
) -> dict[str, int]:
    """:meth:`Simulator._counters` from the kernel's locals, taken on the
    first cycle with ``retired >= warmup``.  A tape replay's BTB and
    I-cache totals are the live stat objects plus the last consumed
    entry's cumulative deltas, *last_e* (all zero while planning live)."""
    return {
        "cycles": cycle,
        "retired": retired,
        "delivered": delivered,
        "fetch_mispredicts": mispredicts,
        "fetch_cache_accesses": cstats.accesses + last_e[6],
        "fetch_cache_misses": cstats.misses + last_e[7],
        "btb_lookups": bstats.lookups + last_e[4],
        "btb_hits": bstats.hits + last_e[5],
        "speculation_stalls": spec_stalls,
        "window_full_stalls": wf_stalls,
    }


def run_compiled(sim):
    """Replay *sim* through the compiled kernel; returns ``SimStats``.

    Caller (``Simulator.run``) guarantees :func:`decline_reason` is
    ``None``.  Bit-identical to the reference loop by construction;
    every phase below cites the invariant it replicates.

    A telemetry run's slot ledger (``sim.slot_ledger``) is charged
    here, with the rule of :mod:`repro.telemetry.attribution`: each
    iterated cycle after its fetch phase, each event-skipped span in
    bulk.  The run's registry gets two phase timers: ``compile_trace``
    and the loop under its kernel mode.
    """
    from repro.sim.simulator import SimulationDeadlock

    stats["runs"] += 1
    config = sim.config
    fetch = sim.fetch_unit
    trace = sim.trace
    total = len(trace.instructions)
    conservative = config.memory_ordering == "conservative"
    compile_start = perf_counter()
    table = compile_trace(trace, conservative)
    compile_end = perf_counter()
    tables = trace._kernel_tables

    # -- fetch-outcome tape (see the module docstring) ------------------------
    # The first run from an eligible starting state records each fetch's
    # (position, stall, delivered count, mispredict flag, cumulative
    # BTB/cache stat deltas, short-delivery cause) and the unit's end
    # state; later runs from the same state replay it, then install that
    # end state.
    tape_key = _tape_key(sim)
    recorded = tables.get(tape_key) if tape_key is not None else None
    live = recorded is None
    if live:
        # A tape replay never reads the I-cache; only live planning does.
        sim._ensure_prewarmed()
    else:
        tape, end_state = recorded
    tape_rec: list[tuple] | None = [] if (live and tape_key is not None) else None
    tape_i = 0
    # Execution-mode attribute for the tracing layer (and tests): how
    # this compiled run actually executed.
    sim.kernel_mode = (
        "replay" if not live else ("record" if tape_rec is not None else "compile")
    )

    # -- hoisted config / tables --------------------------------------------
    issue_rate = config.issue_rate
    queue_capacity = config.fetch_queue_groups * issue_rate
    fetch_penalty = config.fetch_penalty
    recovery_at_retire = config.recovery_at_retire
    speculation_depth = config.speculation_depth
    retire_width = config.retire_width
    window_size = config.window_size
    rob_capacity = sim.core.rob.capacity
    num_buses = sim.core.buses.num_buses
    cap = [0] * 5
    for unit_type, count in sim.core.units.capacity.items():
        cap[int(unit_type)] = count
    warmup = sim.warmup
    max_cycles = max(10_000, sim.MAX_CPI * total)

    instrs = trace.instructions
    addr_ = trace.address_array()
    lat_ = table.lat
    unit_ = table.unit
    control_, _, _, _, brcond_ = train_flags(trace)
    cons_ = table.consumers

    # -- flattened core state -----------------------------------------------
    done_ = bytearray(total)
    # Live-producer count per instruction (the compiled ``ndeps`` counts,
    # decremented through the static consumer graph at writeback).
    count_ = bytearray(table.ndeps)
    ready: list[int] = []
    # Writeback structure replacing the per-entry heap: completions
    # bucket by result cycle.  Latencies are 1 or 2, and the event skip
    # never jumps past the earliest bucket, so at most two buckets are
    # live at once — two (cycle, list) slots with ``wbc1 < wbc2`` replace
    # dict and heap entirely (``_WB_IDLE`` marks an empty slot).  Buckets
    # fill in fire order == seq order; ``carry`` holds bus-overflow
    # surplus (older result cycles, already ordered), so serving carry
    # first and then buckets in cycle order replays the reference heap's
    # (result_cycle, seq) arbitration exactly.
    _WB_IDLE = max_cycles + 10
    wbc1 = wbc2 = _WB_IDLE
    wbl1: list[int] = []
    wbl2: list[int] = []
    carry: list[int] = []
    occupied = 0
    unresolved = 0
    safe_cap = min(cap)  # below this many ready, unit caps cannot bind

    # -- counters (locals authoritative; written back at the end) -----------
    fstats = fetch.stats
    fs_cycles = fs_cycles_start = fstats.cycles
    fs_delivered = fstats.delivered
    fs_mispredicts = fstats.mispredicts
    fs_stall = fstats.cache_stall_cycles
    fs_full = fstats.full_deliveries
    core_stats = sim.core.stats
    retired = core_stats.retired
    wf_stalls = core_stats.window_full_stalls
    spec_stalls = core_stats.speculation_stalls
    bstats = fetch.btb.stats
    cstats = fetch.cache.stats
    # A live run's BTB/cache statistics land in the live stat objects
    # (``deliver`` adds a memo hit's deltas there).  Tape entries carry
    # *cumulative* run-relative deltas, so tape replay only keeps a
    # reference to the last consumed entry, ``last_e``, and adds its
    # deltas on demand (:func:`_warmup_snapshot` and the final
    # write-back): current totals are always `object + last_e`, whose
    # deltas stay zero while planning live.  The run-start baselines
    # below turn live-object totals into run-relative values while
    # recording.
    lk0_run = bstats.lookups
    ht0_run = bstats.hits
    ac0_run = cstats.accesses
    ms0_run = cstats.misses
    last_e = (0, 0, 0, 0, 0, 0, 0, 0)

    # -- the fetch step over the plan memo ----------------------------------
    # A direction predictor or return stack makes a plan depend on state
    # outside the (BTB slot, cache set) dependency model: such a unit
    # plans live on every fetch.
    if live:
        deliver, train, install, remove, tally = plan_memo(
            fetch,
            trace,
            issue_rate,
            fetch.direction_predictor is None and fetch.return_stack is None,
        )

    # -- main loop ----------------------------------------------------------
    cycle = 0
    position = 0  # next trace index to fetch
    dispatch_head = 0  # next trace index to dispatch (== dispatched count)
    flagged_index = -1
    fetch_blocked_until = 0
    waiting = False
    #: Wrong-path fetch address while a misprediction resolves, else -1
    #: (a replay only tracks whether the path is live: 0 or -1).
    wp_addr = -1
    wp_cycles = 0
    wrong_path_fetch = sim.wrong_path_fetch
    wrong_path_cycle = fetch.wrong_path_cycle
    predict_slot = fetch.predict_slot
    snapshot = sim._snapshot
    snapshot_taken = snapshot is not None
    # Telemetry: the slot ledger (``None`` when off), the fetches it has
    # charged, and the cause of the last fetch block — set wherever
    # ``fetch_blocked_until`` is (a branch restart or a miss stall).
    ledger = sim.slot_ledger
    ledger_fetches = fs_cycles
    blocked_cause = MISPREDICT_RESOLVE
    # ``ready`` keeps one identity for the whole run (cleared/overwritten
    # in place) so its bound append survives hoisting.
    ready_append = ready.append

    if live:
        install()
    try:
        while retired < total:
            if cycle > max_cycles:
                raise SimulationDeadlock(
                    f"no forward progress after {cycle} cycles "
                    f"({retired}/{total} retired)"
                )
            if not snapshot_taken and retired >= warmup:
                snapshot = _warmup_snapshot(
                    cycle,
                    retired,
                    fs_delivered,
                    fs_mispredicts,
                    cstats,
                    bstats,
                    last_e,
                    spec_stalls,
                    wf_stalls,
                )
                snapshot_taken = True
                if ledger is not None:
                    ledger.restart()

            # retire (== ExecutionCore.do_retire; the first not-done
            # entry is located with a C-level byte scan)
            if retired < dispatch_head and done_[retired]:
                limit = retired + retire_width
                if limit > dispatch_head:
                    limit = dispatch_head
                r = done_.find(0, retired, limit)
                if r < 0:
                    r = limit
                if recovery_at_retire and retired <= flagged_index < r:
                    waiting = False
                    wp_addr = -1
                    blocked_cause = MISPREDICT_RESOLVE
                    restart = cycle + fetch_penalty
                    if restart > fetch_blocked_until:
                        fetch_blocked_until = restart
                retired = r

            # writeback (== do_writeback + the reference loop's
            # train/restart).
            # ``carry`` holds earlier result cycles (already ordered);
            # newly due buckets have strictly later result cycles and are
            # seq-sorted on pop, so ``carry + buckets`` replays the
            # reference heap's (result_cycle, seq) pop order exactly.
            if carry or wbc1 <= cycle:
                due = carry
                while wbc1 <= cycle:
                    bucket = wbl1
                    if len(bucket) > 1:
                        bucket.sort()
                    due += bucket
                    wbc1 = wbc2
                    wbl1 = wbl2
                    wbc2 = _WB_IDLE
                    wbl2 = []
                if len(due) > num_buses:
                    carry = due[num_buses:]
                    del due[num_buses:]
                else:
                    carry = []
                for j in due:
                    done_[j] = 1
                    for k in cons_[j]:
                        c = count_[k] - 1
                        count_[k] = c
                        # Wake only consumers already in the window
                        # (dispatch order == trace order, so dispatched
                        # means k < dispatch_head); the rest read a zero
                        # count when they dispatch.
                        if not c and k < dispatch_head:
                            ready_append(k)
                    if brcond_[j]:
                        unresolved -= 1
                    if live and control_[j]:
                        train(j)
                    if j == flagged_index and not recovery_at_retire:
                        waiting = False
                        wp_addr = -1
                        blocked_cause = MISPREDICT_RESOLVE
                        restart = cycle + fetch_penalty
                        if restart > fetch_blocked_until:
                            fetch_blocked_until = restart

            # fire (== do_fire: oldest-ready-first, per-type capacity;
            # fewer ready than the smallest unit cap ⇒ all of them fire,
            # skipping per-entry capacity accounting)
            if ready:
                n_rdy = len(ready)
                if n_rdy > 1:
                    ready.sort()
                if n_rdy <= safe_cap:
                    for j in ready:
                        rc = cycle + lat_[j]
                        if rc == wbc1:
                            wbl1.append(j)
                        elif rc == wbc2:
                            wbl2.append(j)
                        elif wbc1 == _WB_IDLE:
                            wbc1 = rc
                            wbl1.append(j)
                        elif rc > wbc1:
                            wbc2 = rc
                            wbl2.append(j)
                        else:  # lat-1 result arriving before a lat-2 slot
                            wbc2 = wbc1
                            wbl2 = wbl1
                            wbc1 = rc
                            wbl1 = [j]
                    occupied -= n_rdy
                    del ready[:]
                else:
                    used = [0, 0, 0, 0, 0]
                    leftover = []
                    for j in ready:
                        u = unit_[j]
                        if used[u] < cap[u]:
                            used[u] += 1
                            rc = cycle + lat_[j]
                            if rc == wbc1:
                                wbl1.append(j)
                            elif rc == wbc2:
                                wbl2.append(j)
                            elif wbc1 == _WB_IDLE:
                                wbc1 = rc
                                wbl1.append(j)
                            elif rc > wbc1:
                                wbc2 = rc
                                wbl2.append(j)
                            else:
                                wbc2 = wbc1
                                wbl2 = wbl1
                                wbc1 = rc
                                wbl1 = [j]
                            occupied -= 1
                        else:
                            leftover.append(j)
                    ready[:] = leftover

            # dispatch (== the reference loop's dispatch, with
            # precompiled renaming).
            # Window/ROB room is hoisted out of the loop: neither
            # ``occupied`` (fire-phase only) nor ``retired`` change
            # mid-phase, so per-entry capacity checks reduce to a burst
            # bound; the one-per-blocked-cycle stall charges are kept.
            if dispatch_head < position:
                room = window_size - occupied
                rr = rob_capacity - dispatch_head + retired
                if rr < room:
                    room = rr
                burst_end = dispatch_head + room
                if burst_end > position:
                    burst_end = position
                i = start = dispatch_head
                stalled = False
                while i < burst_end:
                    if brcond_[i]:
                        if unresolved >= speculation_depth:
                            spec_stalls += 1
                            stalled = True
                            break
                        unresolved += 1
                    if not count_[i]:
                        ready_append(i)
                    i += 1
                occupied += i - start
                dispatch_head = i
                if not stalled and i < position:
                    wf_stalls += 1

            # fetch (== fetch_cycle replayed from the outcome table, or —
            # on a repeat run of the same configuration — from the tape)
            if (
                position < total
                and not waiting
                and cycle >= fetch_blocked_until
                and position - dispatch_head + issue_rate <= queue_capacity
            ):
                fs_cycles += 1
                if not live:
                    entry = tape[tape_i]
                    if entry[0] != position:
                        raise AssertionError(
                            "fetch-outcome tape diverged from replay state"
                        )
                    tape_i += 1
                    last_e = entry
                    stall = entry[1]
                    if stall:
                        fetch_blocked_until = cycle + stall
                        blocked_cause = ICACHE_MISS
                        fs_stall += stall
                    else:
                        matched = entry[2]
                        fs_delivered += matched
                        if entry[3]:
                            fs_mispredicts += 1
                            flagged_index = position + matched - 1
                            waiting = True
                            if wrong_path_fetch:
                                wp_addr = 0  # the recorded path begins
                        if matched == issue_rate:
                            fs_full += 1
                        position += matched
                else:
                    stall, matched, mispredict, rec = deliver(position)
                    if stall:
                        fetch_blocked_until = cycle + stall
                        blocked_cause = ICACHE_MISS
                        fs_stall += stall
                    else:
                        fs_delivered += matched
                        if mispredict:
                            fs_mispredicts += 1
                            flagged_index = position + matched - 1
                            waiting = True
                            if wrong_path_fetch:
                                # Follow the predicted (wrong) path for
                                # its cache side effects only.
                                last = addr_[flagged_index]
                                prediction = predict_slot(last)
                                wp_addr = (
                                    prediction.target
                                    if prediction.taken
                                    else last + 1
                                )
                        if matched == issue_rate:
                            fs_full += 1
                        position += matched
                    if tape_rec is not None:
                        # After predict_slot, so its lookup joins the
                        # deltas.
                        tape_rec.append((
                            position - matched,
                            stall,
                            matched,
                            1 if mispredict else 0,
                            bstats.lookups - lk0_run,
                            bstats.hits - ht0_run,
                            cstats.accesses - ac0_run,
                            cstats.misses - ms0_run,
                            rec[8],
                        ))
            elif wp_addr >= 0:
                # Gated while a misprediction resolves: one wrong-path
                # fetch cycle (``wp_addr`` is -1 whenever not waiting).
                # Each is its own tape entry, position -1, so a snapshot
                # taken mid-resolution materializes the right counters.
                wp_cycles += 1
                if live:
                    wp_addr = wrong_path_cycle(wp_addr, issue_rate)
                    if tape_rec is not None:
                        tape_rec.append((
                            -1,
                            0 if wp_addr >= 0 else -1,
                            0,
                            0,
                            bstats.lookups - lk0_run,
                            bstats.hits - ht0_run,
                            cstats.accesses - ac0_run,
                            cstats.misses - ms0_run,
                        ))
                else:
                    entry = tape[tape_i]
                    if entry[0] != -1:
                        raise AssertionError(
                            "fetch-outcome tape diverged from replay state"
                        )
                    tape_i += 1
                    last_e = entry
                    wp_addr = entry[1]

            # slot ledger (telemetry only): the cycle's fetch by its
            # record's cause, else the gate that held fetch
            if ledger is not None:
                if fs_cycles != ledger_fetches:
                    ledger_fetches = fs_cycles
                    # ``waiting`` was clear before this fetch: it is now
                    # set exactly when the fetch mispredicted.
                    ledger.fetched(
                        0 if stall else matched,
                        fetch_cause(stall, waiting, (rec if live else entry)[8]),
                    )
                else:
                    queued = position - dispatch_head
                    ledger.charge(
                        0,
                        gate_cause(
                            queued + issue_rate > queue_capacity,
                            occupied >= window_size
                            or dispatch_head - retired >= rob_capacity
                            or (
                                queued > 0
                                and brcond_[dispatch_head]
                                and unresolved >= speculation_depth
                            ),
                            waiting,
                            cycle < fetch_blocked_until,
                            blocked_cause,
                        )[1],
                    )

            cycle += 1

            # -- event skip: jump over provably idle cycles ---------------
            # A cycle is idle when every phase is a no-op: no wrong path
            # is being followed, nothing can retire (ROB head not done),
            # nothing is due on the result buses, nothing can fire,
            # dispatch is impossible (queue empty) or provably blocked,
            # and fetch is gated.  None of that changes before the next
            # event: the earliest writeback or the fetch-restart cycle
            # (docs/performance.md lists the invariants).
            if (
                retired < total
                and wp_addr < 0
                and not ready
                and not (retired < dispatch_head and done_[retired])
            ):
                if dispatch_head == position:
                    blocked = 0
                elif (
                    occupied >= window_size
                    or dispatch_head - retired >= rob_capacity
                ):
                    blocked = 1
                elif brcond_[dispatch_head] and unresolved >= speculation_depth:
                    blocked = 2
                else:
                    continue  # dispatch would progress next cycle
                target = max_cycles + 1
                if carry:
                    # Bus-overflow writebacks are due immediately: the
                    # reference heap's top is ≤ cycle, so it never skips.
                    target = cycle
                elif wbc1 < target:
                    target = wbc1
                if (
                    position < total
                    and not waiting
                    and position - dispatch_head + issue_rate
                    <= queue_capacity
                    and fetch_blocked_until < target
                ):
                    target = fetch_blocked_until
                if target > cycle:
                    # Replicate the reference loop over the skipped span:
                    # the warmup snapshot lands on its first cycle, and
                    # each cycle with a blocked dispatch head charges one
                    # stall.
                    if not snapshot_taken and retired >= warmup:
                        snapshot = _warmup_snapshot(
                            cycle,
                            retired,
                            fs_delivered,
                            fs_mispredicts,
                            cstats,
                            bstats,
                            last_e,
                            spec_stalls,
                            wf_stalls,
                        )
                        snapshot_taken = True
                        if ledger is not None:
                            ledger.restart()
                    if ledger is not None:
                        # Charge the span in bulk: its gate state holds
                        # throughout except the penalty, which ends at
                        # ``fetch_blocked_until``.  That need not bound
                        # the skip: not once the trace is fully fetched,
                        # nor while a full queue (ranked first) holds
                        # fetch.  A full queue is backpressure exactly
                        # when dispatch is blocked (an empty queue is
                        # never full).
                        queue_full = (
                            position - dispatch_head + issue_rate
                            > queue_capacity
                        )
                        split = min(max(fetch_blocked_until, cycle), target)
                        for penalty, cycles in (
                            (True, split - cycle),
                            (False, target - split),
                        ):
                            if cycles:
                                ledger.charge(
                                    0,
                                    gate_cause(
                                        queue_full,
                                        blocked != 0,
                                        waiting,
                                        penalty,
                                        blocked_cause,
                                    )[1],
                                    cycles,
                                )
                    skipped = target - cycle
                    if blocked == 1:
                        wf_stalls += skipped
                    elif blocked == 2:
                        spec_stalls += skipped
                    cycle = target
    finally:
        if live:
            remove()

    # -- write the authoritative locals back into the live objects ----------
    fstats.cycles = fs_cycles
    fstats.delivered = fs_delivered
    fstats.mispredicts = fs_mispredicts
    fstats.cache_stall_cycles = fs_stall
    fstats.full_deliveries = fs_full
    bstats.lookups += last_e[4]
    bstats.hits += last_e[5]
    cstats.accesses += last_e[6]
    cstats.misses += last_e[7]
    core_stats.retired = retired
    core_stats.dispatched = dispatch_head
    core_stats.window_full_stalls = wf_stalls
    core_stats.speculation_stalls = spec_stalls
    sim.wrong_path_cycles += wp_cycles
    if live:
        tally(fs_cycles - fs_cycles_start)
        if tape_rec is not None:
            _hold_tape(tables, tape_key, (tape_rec, _end_state(fetch)))
    else:
        _install_end_state(fetch, end_state)
        sim._prewarm_pending = False  # the installed tags include it
        stats["tape_replays"] += fs_cycles - fs_cycles_start
    # Precise architectural state: the Future file holds the last
    # *retired* writer per register, exactly as retire updates it in
    # order.  A pure function of the retired prefix, so it is applied
    # once here instead of per retirement.
    fwriter = sim.core.future_file._last_retired_writer
    if retired == total:
        final = table.final_writer
        for r, w in enumerate(final):
            if w >= 0:
                fwriter[r] = w
    else:  # max_cycles cut the run short; scan the retired prefix
        for i in range(retired):
            d = instrs[i].dest
            if d >= 0:
                fwriter[d] = i
    sim._snapshot = snapshot
    if ledger is not None:
        sim.telemetry.add_time("compile_trace", compile_end - compile_start)
        sim.telemetry.add_time(sim.kernel_mode, perf_counter() - compile_end)
    return sim._collect_stats(cycle)
