"""Phase 3 — resource allocation (paper §VI-C, Fig. 5).

    function ResourceAllocation(G) {
        for each level in G do Allocate(level);
    }
    function Allocate(currentLevel) {
        Allocate ALUs of the current clock cycle
        for each output do store it to a memory;
        for each input of current level
        do try to move it to proper register at the clock cycle which
           is four steps before; If failed, do it three steps before;
           then two steps before; one step before.
        if some inputs are not moved successfully
        then insert one or more clock cycles before the current one to
             load inputs
    }

The allocator walks the schedule level by level and builds the
per-cycle tile program under every resource limit the paper names
(§VI-C): register bank sizes, memory sizes, crossbar buses and
memory/register-bank ports.  Exactly as in Fig. 5:

* each level becomes one execute cycle; its clusters' ALUs are
  configured on their scheduled PPs;
* every live cluster result is stored to a memory in its execute
  cycle — the memory is chosen in the first consumer's PP (*locality
  of reference*), never a word that still holds live input data;
* every leaf operand must sit in the *proper* register bank (leaf i
  feeds ALU input i, so bank Ra..Rd) before the cycle starts.  The
  allocator tries, in order: (1) *reuse* — the value already resides
  in the right bank; (2) *direct write-back* — the producing ALU
  latches its result straight into the consumer's input register via
  the crossbar (Fig. 1: "the crossbar enables an ALU to write back
  their result to any register or memory within a tile"); (3) a
  *staging move* from memory (or an immediate from the control unit)
  placed 4, then 3, 2, 1 cycles ahead of the consumer;
* when an operand cannot be staged, the level is rolled back, a stall
  (load) cycle is inserted before it, and the level is replanned —
  "insert one or more clock cycles before the current one".

Backtracking is journal-based: every mutation a level attempt makes
to state that outlives it (a claimed register, a booked bus or port,
a drafted move, a residency entry) pushes one ``(op, container, key,
old)`` record onto :class:`_Journal`, and a failed attempt undoes
those records newest-first.  The attempt's own execute cycle is a
single record: popping the cycle drops everything planned into it.
A retry therefore costs O(changes the attempt made) — not O(whole
allocator state) — and the per-level retry loop copies nothing and
builds no closures.

The planning state is kept in interned integers, so the hot loop
hashes small ints rather than tuples of locations: every value
(constant, input word, cluster result) gets an id once, when the
allocator is set up; a register bank is a list of ``(value id,
write_cycle, busy_until)`` tuples at index ``pp * banks_per_pp +
bank``; a memory is index ``pp * memories_per_pp + mem``; and a
crossbar source gets an int bus token when its location is fixed
(an ALU result's token is ``-1 - pp``).  Token sets are only tested
with ``in`` and ``len``, so their order never reaches the program.

Options ``enable_bypass`` / ``enable_reuse`` / ``stage_window`` exist
for the locality ablation (EXT-C): disabling them yields the
memory-only staging baseline.

Invariants
----------
* The emitted program respects *every* per-cycle resource limit of
  :class:`repro.arch.params.TileParams` — bank/memory sizes, bus
  count, read/write ports; the fully-checked simulator would raise
  on any violation, and the property tests drive it across random
  tiles.
* A value is never read in the cycle it is written (end-of-cycle
  commit), and a staged operand is staged at most
  ``stage_window`` cycles ahead.
* Allocation is deterministic: candidate locations are tried in a
  fixed order, so the same schedule and params always yield the
  same program, stall count and move count.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

from repro.arch.control import (
    AluConfig,
    Cycle,
    ImmSource,
    MemLoc,
    Move,
    RegLoc,
    TileProgram,
)
from repro.arch.params import TileParams
from repro.cdfg.ops import Address
from repro.core.clustering import Cluster, ClusterGraph
from repro.core.scheduling import Schedule
from repro.core.taskgraph import Operand, OperandKind
from repro.obs import trace


class AllocationError(Exception):
    """Raised when a schedule cannot be allocated at all."""


class _LevelRetry(Exception):
    """Internal: the pending level needs a stall cycle inserted.

    ``cause`` says what failed: ``"stage"`` (an operand could not be
    staged in the window) or ``"store"`` (no memory could take a
    result)."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


#: Journal operations: ``container.pop()``, ``container.discard(key)``,
#: ``container[key] = old`` and ``del container[key]``.
_POP, _DISCARD, _SET, _DEL = range(4)


class _Journal:
    """Undo log for one level attempt.

    Each entry is an ``(op, container, key, old)`` tuple reverting one
    mutation (see ``_POP`` .. ``_DEL``).  ``rollback(mark)`` undoes
    entries newest-first until the journal is back at *mark*,
    restoring exactly the state the attempt started from in
    O(changes).  The hot loop appends to ``entries`` directly.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple] = []

    def mark(self) -> int:
        return len(self.entries)

    def rollback(self, mark: int) -> int:
        """Undo back to *mark*; returns the number of entries undone."""
        entries = self.entries
        undone = len(entries) - mark
        while len(entries) > mark:
            op, container, key, old = entries.pop()
            if op == _SET:
                container[key] = old
            elif op == _POP:
                container.pop()
            elif op == _DISCARD:
                container.discard(key)
            else:
                del container[key]
        return undone

    def commit(self) -> None:
        """Drop all entries (the attempt succeeded; nothing to undo)."""
        self.entries.clear()


#: Identity of a value for residency tracking.
ValueKey = tuple

#: A register that never held a value: (value id, write_cycle,
#: busy_until).
_EMPTY_SLOT = (-1, -1, -1)


def _value_key(operand: Operand, owner: dict[int, int]) -> ValueKey:
    if operand.kind is OperandKind.CONST:
        return ("const", operand.value)
    if operand.kind is OperandKind.MEM:
        return ("mem", operand.value)
    return ("cluster", owner[operand.task_id])


def _free_slot(slots: list) -> tuple[int, int]:
    """The first cycle a register of the bank *slots* is free in, and
    the register free the longest (the first such).

    A register's ``busy_until`` is never below its ``write_cycle``
    (a value is written before it is used), so a register is free for
    writing from its ``busy_until`` on."""
    busy = [slot[2] for slot in slots]
    free_from = min(busy)
    return free_from, busy.index(free_from)


class _CycleDraft:
    """Mutable bookkeeping for one cycle being planned.

    ``bus`` holds the tokens of the values on the crossbar;
    ``mem_reads`` maps a memory index to the source tokens it serves,
    ``mem_writes`` to the words it takes; ``bank_writes`` maps a bank
    index to the writes it takes."""

    __slots__ = ("alu_configs", "moves", "bus", "mem_reads",
                 "mem_writes", "bank_writes", "is_stall")

    def __init__(self, is_stall: bool = False):
        self.alu_configs: dict[int, AluConfig] = {}
        self.moves: list[Move] = []
        self.bus: set[int] = set()
        self.mem_reads: dict[int, set[int]] = {}
        self.mem_writes: dict[int, set[Address]] = {}
        self.bank_writes: dict[int, int] = {}
        self.is_stall = is_stall


@dataclass
class AllocationStats:
    """What the allocator did (feeds the locality experiment)."""

    reuse_hits: int = 0
    bypasses: int = 0
    staged_moves: int = 0
    copy_moves: int = 0
    stall_cycles: int = 0
    stores: int = 0

    def operand_events(self) -> int:
        return self.reuse_hits + self.bypasses + self.staged_moves


class Allocator:
    """Allocates one schedule onto one tile."""

    def __init__(self, clustered: ClusterGraph, schedule: Schedule,
                 params: TileParams | None = None, *,
                 enable_bypass: bool = True, enable_reuse: bool = True,
                 stage_window: int | None = None,
                 max_stalls_per_level: int = 64):
        self.clustered = clustered
        self.schedule = schedule
        self.params = params or TileParams()
        self.enable_bypass = enable_bypass
        self.enable_reuse = enable_reuse
        self.stage_window = stage_window or self.params.max_stage_ahead
        self.max_stalls_per_level = max_stalls_per_level
        self.stats = AllocationStats()

        params = self.params
        self._n_banks = params.banks_per_pp
        self._n_mems = params.memories_per_pp
        self._pp_prefs = [
            [pp] + [other for other in range(params.n_pps) if other != pp]
            for pp in range(params.n_pps)]

        # -- mutable planning state (journal-rolled-back on retries) --
        self._journal = _Journal()
        self.cycles: list[_CycleDraft] = []
        self.banks: list[list[tuple[int, int, int]]] = [
            [_EMPTY_SLOT] * params.regs_per_bank
            for _ in range(params.n_pps * params.banks_per_pp)]
        self.mem_words: list[set[Address]] = [
            set() for _ in range(params.n_pps * params.memories_per_pp)]
        self.cluster_exec_cycle: dict[int, int] = {}
        self.data_layout: dict[Address, MemLoc] = {}
        self.output_layout: dict[Address, MemLoc] = {}
        #: Value id -> its key, and -> where it can be read from:
        #: ``(source, available, bus token, memory index or -1)``, or
        #: None while it is nowhere yet.
        self._value_ids: dict[ValueKey, int] = {}
        self._value_keys: list[ValueKey] = []
        self._where: list[tuple | None] = []
        self._tokens: dict = {}

        self._prepare()

    # -- setup ------------------------------------------------------------

    def _intern(self, key: ValueKey) -> int:
        """The id of value *key*; a constant is readable from the
        start, from the control unit."""
        value_id = self._value_ids.get(key)
        if value_id is None:
            value_id = self._value_ids[key] = len(self._value_keys)
            self._value_keys.append(key)
            self._where.append(self._residency(ImmSource(key[1]), 0)
                               if key[0] == "const" else None)
        return value_id

    def _residency(self, source, available: int) -> tuple:
        token = self._tokens.setdefault(source, len(self._tokens))
        memory = (source.pp * self._n_mems + source.mem
                  if isinstance(source, MemLoc) else -1)
        return (source, available, token, memory)

    def _prepare(self) -> None:
        """Compute per-cluster output addresses, consumers, layout,
        and the per-level plans the allocation loop walks."""
        owner = self.clustered.owner
        self.cluster_outputs: dict[int, list[Address]] = {}
        for store in self.clustered.stores:
            if store.source.kind is OperandKind.TASK:
                cluster_id = owner[store.source.task_id]
                self.cluster_outputs.setdefault(cluster_id, []).append(
                    store.address)
        successors = self.clustered.successors()
        placement = self.schedule.placement
        self.first_consumer_pp: dict[int, int | None] = {}
        for cluster_id in self.clustered.clusters:
            consumers = successors[cluster_id]
            self.first_consumer_pp[cluster_id] = (
                placement[min(consumers, key=lambda cid: (
                    placement[cid].level, placement[cid].pp))].pp
                if consumers else None)
        self._layout_inputs()
        self._labels = {cluster_id: f"Clu{cluster_id}"
                        for cluster_id in self.clustered.clusters}
        # Per level, per cluster: (pp, cluster, operands, store plan);
        # an operand is (value id, producer cluster or None).
        self._levels = []
        value_ids = self._value_ids
        for level in self.schedule.levels:
            plans = []
            for item in level:
                operands = []
                for operand in item.cluster.operands:
                    producer = None
                    if operand.kind is OperandKind.TASK:
                        producer = owner[operand.task_id]
                        key = ("cluster", producer)
                    else:
                        key = _value_key(operand, owner)
                    value_id = value_ids.get(key)
                    if value_id is None:
                        value_id = self._intern(key)
                    operands.append((value_id, producer))
                plans.append((item.pp, item.cluster, operands,
                              self._store_plan(item.cluster, item.pp)))
            self._levels.append(plans)

    def _layout_inputs(self) -> None:
        """Place every initial-memory word near its first consumer."""
        wanted: dict[Address, int] = {}
        for level in self.schedule.levels:
            for item in level:
                for operand in item.cluster.operands:
                    if operand.kind is OperandKind.MEM and \
                            operand.value not in wanted:
                        wanted[operand.value] = item.pp
        for store in self.clustered.stores:
            if store.source.kind is OperandKind.MEM and \
                    store.source.value not in wanted:
                wanted[store.source.value] = 0
        toggle: dict[int, int] = {}
        n_mems = self._n_mems
        for address in sorted(wanted):
            placed = False
            for pp in self._pp_prefs[wanted[address]]:
                start = toggle.get(pp, 0)
                for offset in range(n_mems):
                    candidate = (start + offset) % n_mems
                    words = self.mem_words[pp * n_mems + candidate]
                    if len(words) < self.params.memory_words:
                        loc = MemLoc(pp, candidate, address)
                        self.data_layout[address] = loc
                        words.add(address)
                        self._where[self._intern(("mem", address))] = \
                            self._residency(loc, 0)
                        toggle[pp] = (candidate + 1) % n_mems
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                raise AllocationError(
                    f"tile memories cannot hold input word {address}")

    def _store_plan(self, cluster: Cluster, pp: int) -> tuple | None:
        """What storing *cluster*'s result needs, fixed before
        allocation: ``(value id, output address or None, preferred
        PP, candidate words)``; each candidate word comes with the
        memory index it must avoid (or -1).  None when the result is
        neither an output nor consumed."""
        outputs = self.cluster_outputs.get(cluster.id, [])
        preferred_pp = self.first_consumer_pp[cluster.id]
        if not outputs and preferred_pp is None:
            return None
        address = outputs[0] if outputs else Address(f"$t{cluster.id}")
        forbidden = self.data_layout.get(address)
        if forbidden is None:
            words = [(address, -1)]
        else:
            # fallback: a shadow word may share even the input's own
            # memory (needed on tiles with a single memory)
            words = [(address,
                      forbidden.pp * self._n_mems + forbidden.mem),
                     (self._shadow(address), -1)]
        return (self._intern(("cluster", cluster.id)),
                address if outputs else None,
                pp if preferred_pp is None else preferred_pp, words)

    # -- the undo journal ----------------------------------------------------
    #
    # A failed level attempt only ever mutates: the appended execute
    # cycle, the `window` cycles before it (staging moves and direct
    # write-backs are both window-bounded), a handful of register
    # slots, and a few residency entries.  Each mutation of state that
    # outlives the attempt appends its exact inverse to the journal;
    # `_LevelRetry` rolls the journal back.  Everything planned into
    # the attempt's own execute cycle goes with that cycle's one
    # record.  A retry is therefore O(changes the attempt made) —
    # whole-program allocation stays linear in the number of clusters
    # (the paper's §VI-C complexity claim) with no per-retry copies.

    def _j_set_item(self, table: dict, key, value) -> None:
        if key in table:
            self._journal.entries.append((_SET, table, key, table[key]))
        else:
            self._journal.entries.append((_DEL, table, key, None))
        table[key] = value

    # -- main ------------------------------------------------------------------

    def allocate(self) -> TileProgram:
        """Run the Fig. 5 procedure over every scheduled level."""
        for plans in self._levels:
            self._allocate_level(plans)
        self._emit_copy_stores()
        return self._to_program()

    def _allocate_level(self, plans: list[tuple]) -> None:
        journal = self._journal
        stalls = 0
        while True:
            mark = journal.mark()
            stats_before = copy.copy(self.stats)
            try:
                # Fig. 5 stages 4..1 cycles ahead; when inserted load
                # cycles pile up, the window widens with them so the
                # fresh bus/port capacity is actually reachable (else
                # a level needing more moves than window x buses could
                # never complete).
                self._plan_level(plans, self.stage_window + stalls)
                journal.commit()
                return
            except _LevelRetry as retry:
                undone = journal.rollback(mark)
                if trace.enabled():
                    trace.count(f"allocation.retries.{retry.cause}")
                    trace.count("allocation.retries.undone", undone)
                self.stats = stats_before
                # The inserted stall outlives this attempt's rollback
                # scope — the next attempt plans over it — so it is
                # appended outside the journal.
                self.cycles.append(_CycleDraft(is_stall=True))
                self.stats.stall_cycles += 1
                stalls += 1
                if stalls > self.max_stalls_per_level:
                    raise AllocationError(
                        f"level with clusters "
                        f"{[plan[1].id for plan in plans]} cannot "
                        f"be staged within {stalls} inserted cycles")

    def _plan_level(self, plans: list[tuple], window: int) -> None:
        cycles = self.cycles
        exec_cycle = len(cycles)
        draft = _CycleDraft()
        cycles.append(draft)
        self._journal.entries.append((_POP, cycles, None, None))
        n_banks = self._n_banks
        for pp, cluster, operands, store in plans:
            operand_locs = []
            for bank, (value_id, producer) in enumerate(operands):
                if bank >= n_banks:
                    raise AllocationError(
                        f"cluster needs leaf {bank}, tile has only "
                        f"{n_banks} input banks")
                operand_locs.append(self._stage_operand(
                    value_id, producer, pp, bank, exec_cycle, window))
            dests = ([] if store is None
                     else self._plan_store(store, draft, exec_cycle))
            draft.alu_configs[pp] = AluConfig(
                pp=pp, shape=cluster.shape, ops=cluster.ops,
                operands=operand_locs, dests=dests,
                label=self._labels[cluster.id])
            if dests:
                draft.bus.add(-1 - pp)
            self._j_set_item(self.cluster_exec_cycle, cluster.id,
                             exec_cycle)

    # -- operand staging -------------------------------------------------------

    def _stage_operand(self, value_id: int, producer: int | None,
                       pp: int, bank: int, exec_cycle: int,
                       window: int) -> RegLoc:
        bank_index = pp * self._n_banks + bank
        if self.enable_reuse:
            slots = self.banks[bank_index]
            for index, slot in enumerate(slots):
                if slot[0] == value_id and slot[1] < exec_cycle:
                    self._journal.entries.append(
                        (_SET, slots, index, slot))
                    slots[index] = (value_id, slot[1],
                                    max(slot[2], exec_cycle))
                    self.stats.reuse_hits += 1
                    return RegLoc(pp, bank, index)

        if producer is not None and self.enable_bypass:
            bypass = self._try_bypass(producer, value_id, pp, bank,
                                      bank_index, exec_cycle, window)
            if bypass is not None:
                self.stats.bypasses += 1
                return bypass

        return self._stage_via_move(value_id, pp, bank, bank_index,
                                    exec_cycle, window)

    def _try_bypass(self, producer_id: int, value_id: int, pp: int,
                    bank: int, bank_index: int, exec_cycle: int,
                    window: int) -> RegLoc | None:
        """Latch the producer's result straight into the input bank.

        Like memory staging, write-back is window-bounded: a result
        needed further ahead than the staging window comes back from
        memory instead of squatting in a register (and level retries
        stay O(window))."""
        producer_cycle = self.cluster_exec_cycle.get(producer_id)
        if producer_cycle is None or producer_cycle >= exec_cycle:
            return None
        if producer_cycle < exec_cycle - window:
            return None
        draft = self.cycles[producer_cycle]
        producer_pp = self.schedule.placement[producer_id].pp
        config = draft.alu_configs.get(producer_pp)
        if config is None or config.label != self._labels[producer_id]:
            return None
        used = draft.bank_writes.get(bank_index, 0)
        if used >= self.params.bank_write_ports:
            return None
        slots = self.banks[bank_index]
        free_from, slot_index = _free_slot(slots)
        if free_from > producer_cycle:
            return None
        record = self._journal.entries.append
        record((_SET, slots, slot_index, slots[slot_index]))
        slots[slot_index] = (value_id, producer_cycle, exec_cycle)
        loc = RegLoc(pp, bank, slot_index)
        config.dests.append(loc)
        record((_POP, config.dests, None, None))
        token = -1 - producer_pp
        if token not in draft.bus:
            draft.bus.add(token)
            record((_DISCARD, draft.bus, token, None))
        self._j_set_item(draft.bank_writes, bank_index, used + 1)
        return loc

    def _stage_via_move(self, value_id: int, pp: int, bank: int,
                        bank_index: int, exec_cycle: int,
                        window: int) -> RegLoc:
        """Fig. 5: try 4, 3, 2, then 1 cycles ahead of the consumer."""
        source, available, token, memory = self._source_of(value_id)
        slots = self.banks[bank_index]
        # The bank does not change while the window is searched.
        free_from, slot_index = _free_slot(slots)
        n_buses = self.params.n_buses
        read_ports = self.params.mem_read_ports
        write_ports = self.params.bank_write_ports
        cycles = self.cycles
        for cycle in range(max(available, exec_cycle - window, free_from),
                           exec_cycle):
            draft = cycles[cycle]
            bus = draft.bus
            new_token = token not in bus
            if new_token and len(bus) >= n_buses:
                continue
            reads = None
            if memory >= 0:
                reads = draft.mem_reads.get(memory)
                if reads is None:
                    reads = draft.mem_reads[memory] = set()
                elif token not in reads and len(reads) >= read_ports:
                    continue
            used = draft.bank_writes.get(bank_index, 0)
            if used >= write_ports:
                continue
            record = self._journal.entries.append
            record((_SET, slots, slot_index, slots[slot_index]))
            slots[slot_index] = (value_id, cycle, exec_cycle)
            loc = RegLoc(pp, bank, slot_index)
            draft.moves.append(Move(source=source, dest=loc))
            record((_POP, draft.moves, None, None))
            if new_token:
                bus.add(token)
                record((_DISCARD, bus, token, None))
            if reads is not None and token not in reads:
                reads.add(token)
                record((_DISCARD, reads, token, None))
            self._j_set_item(draft.bank_writes, bank_index, used + 1)
            self.stats.staged_moves += 1
            return loc
        raise _LevelRetry("stage")

    def _source_of(self, value_id: int) -> tuple:
        where = self._where[value_id]
        if where is None:
            raise AllocationError(
                f"value {self._value_keys[value_id]} is nowhere in "
                f"memory")
        return where

    # -- result stores -----------------------------------------------------------

    @staticmethod
    def _shadow(address: Address) -> Address:
        """A distinct word key for an output whose logical address
        also holds live input data (the data_layout word must stay
        readable; output_layout redirects readers to the shadow)."""
        return Address(f"$out${address.name}", address.offset)

    def _plan_store(self, store: tuple, draft: _CycleDraft,
                    exec_cycle: int) -> list:
        """Store a result in its execute cycle *draft* (this attempt's
        own cycle, so its port bookkeeping needs no journal)."""
        value_id, output, preferred_pp, words = store
        n_mems = self._n_mems
        write_ports = self.params.mem_write_ports
        capacity = self.params.memory_words
        for word, forbidden in words:
            for candidate_pp in self._pp_prefs[preferred_pp]:
                for mem in range(n_mems):
                    memory = candidate_pp * n_mems + mem
                    if memory == forbidden:
                        continue
                    writes = draft.mem_writes.get(memory)
                    if writes is not None and len(writes) >= write_ports:
                        continue
                    held = self.mem_words[memory]
                    if word in held:
                        pass
                    elif len(held) >= capacity:
                        continue
                    else:
                        held.add(word)
                        self._journal.entries.append(
                            (_DISCARD, held, word, None))
                    draft.mem_writes.setdefault(memory, set()).add(word)
                    loc = MemLoc(candidate_pp, mem, word)
                    self._journal.entries.append(
                        (_SET, self._where, value_id,
                         self._where[value_id]))
                    self._where[value_id] = self._residency(
                        loc, exec_cycle + 1)
                    if output is not None:
                        self._j_set_item(self.output_layout, output, loc)
                    self.stats.stores += 1
                    return [loc]
        raise _LevelRetry("store")

    def _emit_copy_stores(self) -> None:
        """Outputs whose value is not a fresh cluster result (constants,
        copied inputs, secondary addresses of a multiply-stored result)
        become plain crossbar moves after/between the compute cycles."""
        owner = self.clustered.owner
        for store in self.clustered.stores:
            if store.source.kind is OperandKind.TASK:
                cluster_id = owner[store.source.task_id]
                primary = self.cluster_outputs[cluster_id][0]
                if store.address == primary:
                    continue  # written by the execute-cycle store
                key = ("cluster", cluster_id)
            else:
                key = _value_key(store.source, owner)
            self._emit_copy_move(store.address,
                                 self._source_of(self._intern(key)))

    def _emit_copy_move(self, address: Address, where: tuple) -> None:
        source, available, token, memory = where
        forbidden = self.data_layout.get(address)
        for attempt, cycle_index in enumerate(
                itertools.count(available)):
            if attempt > len(self.cycles) + 1000:
                raise AllocationError(
                    f"cannot place copy store of {address}")
            if cycle_index >= len(self.cycles):
                self.cycles.append(_CycleDraft(is_stall=False))
            draft = self.cycles[cycle_index]
            if token not in draft.bus and \
                    len(draft.bus) >= self.params.n_buses:
                continue
            if memory >= 0:
                reads = draft.mem_reads.setdefault(memory, set())
                if token not in reads and \
                        len(reads) >= self.params.mem_read_ports:
                    continue
            if self._try_copy_dest(draft, address, where, forbidden):
                return

    def _try_copy_dest(self, draft: _CycleDraft, address: Address,
                       where: tuple, forbidden: MemLoc | None) -> bool:
        source, _, token, memory = where
        n_mems = self._n_mems
        candidate_words = [(address, True), (self._shadow(address), False)]
        for word, respect_forbidden in candidate_words:
            for pp in self._pp_prefs[0]:
                for mem in range(n_mems):
                    if respect_forbidden and forbidden is not None and \
                            (pp, mem) == (forbidden.pp, forbidden.mem):
                        continue
                    if isinstance(source, MemLoc) and \
                            (pp, mem, word) == (source.pp, source.mem,
                                                source.addr):
                        continue
                    writes = draft.mem_writes.setdefault(
                        pp * n_mems + mem, set())
                    if word in writes or \
                            len(writes) >= self.params.mem_write_ports:
                        continue
                    words = self.mem_words[pp * n_mems + mem]
                    if word not in words and \
                            len(words) >= self.params.memory_words:
                        continue
                    loc = MemLoc(pp, mem, word)
                    draft.moves.append(Move(source=source, dest=loc))
                    draft.bus.add(token)
                    if memory >= 0:
                        draft.mem_reads[memory].add(token)
                    writes.add(word)
                    words.add(word)
                    self.output_layout[address] = loc
                    self.stats.copy_moves += 1
                    return True
        return False

    # -- emission -------------------------------------------------------------------

    def _to_program(self) -> TileProgram:
        cycles = []
        for draft in self.cycles:
            configs = [draft.alu_configs[pp]
                       for pp in sorted(draft.alu_configs)]
            cycles.append(Cycle(alu_configs=configs, moves=draft.moves,
                                is_stall=draft.is_stall))
        # Drop trailing fully idle cycles (can appear when a stall was
        # inserted and the replan no longer needed its slots).
        while cycles and not cycles[-1].alu_configs \
                and not cycles[-1].moves:
            cycles.pop()
        return TileProgram(params=self.params, cycles=cycles,
                           data_layout=dict(self.data_layout),
                           output_layout=dict(self.output_layout))


def allocate(clustered: ClusterGraph, schedule: Schedule,
             params: TileParams | None = None,
             **options) -> tuple[TileProgram, AllocationStats]:
    """Allocate *schedule*; returns (program, stats)."""
    allocator = Allocator(clustered, schedule, params, **options)
    program = allocator.allocate()
    return program, allocator.stats
