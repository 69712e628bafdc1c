//! The dense struct-of-arrays hot-path engine.
//!
//! [`FastEngine`] implements exactly the protocol semantics of
//! [`DirectoryEngine`](crate::DirectoryEngine) — same Table 1 charges,
//! same Figure 3 detection hooks (it calls the *same* [`DirEntry`]
//! methods), same checker, same event stream — but stores all per-block
//! state in parallel `Vec`s indexed by a dense slot id, reached through
//! one open-addressing probe per reference instead of three `HashMap`
//! lookups:
//!
//! * `copyset[slot]` — the holder bitset (residency ground truth: a
//!   node holds a block iff the directory says so);
//! * `flags[slot]` — one packed `u32` carrying the directory entry
//!   (dirty/migratory/overflowed bits, copies-created counter,
//!   hysteresis evidence, last invalidator) plus the single-holder line
//!   state;
//! * `line_version[slot]` / `mem_version[slot]` / `latest[slot]` — the
//!   coherence checker's version slots.
//!
//! Finite caches add one [`SetAssocCache`] per node beside the dense
//! rows, so the LRU policy stays in `mcc-cache` and replacement
//! decisions match the reference engine's exactly. Each cache line
//! holds only the block's slot id: the copyset stays the residency
//! ground truth, and the caches exist to pick eviction victims. A
//! victim is handled like the reference engine's `insert_line`: §3.3
//! eviction traffic, a write-back of dirty data or a clean drop, and the
//! directory's copy-dropped rule. With infinite caches the per-node
//! cache list is empty and every cache hook is one untaken branch.
//!
//! One `line_version` per block is exact because all simultaneous
//! holders carry the same version in any non-erroring run: a write
//! invalidates every other copy, and every service path checks the
//! served version against the latest write. Evictions keep this true:
//! an eviction only removes a copy, never creates or rewrites one, so
//! the surviving holders still carry the latest version, and a dirty
//! victim's version is written back to `mem_version`, where the next
//! fill is served from and checked against the latest write. The
//! single-slot representation also collapses per-node line state:
//! multiple holders are all `Shared`; a single holder's state is stored
//! in two flag bits.
//!
//! Observability events are batched into a pending buffer and flushed
//! once per step (on both success and error exits), preserving the
//! reference engine's emission order.

use mcc_cache::{CacheConfig, SetAssocCache};
use mcc_obs::{Event as ObsEvent, Rule, SharedSink};
use mcc_placement::PagePlacement;
use mcc_trace::{BlockAddr, BlockSize, MemOp, MemRef, NodeId};

use crate::checkpoint::EngineSnapshot;
use crate::directory::{CopiesCreated, CopySet, DirEntry, ReadMissAction, Reclassification};
use crate::engine::Engine;
use crate::error::{SimError, Violation, ViolationKind};
use crate::faults::{
    jittered_backoff_units, AttemptOutcome, FaultInjector, FaultPlan, TransactionShape,
};
use crate::msg::{charge, charge_eviction, MessageCount, OpKind};
use crate::policy::{AdaptivePolicy, Protocol};
use crate::repr::DirectoryRepr;
use crate::result::{EventCounts, MessageBreakdown, SimResult};
use crate::sim::{obs_node, DirectorySimConfig, LineState, StepInfo, StepKind, NEVER_ADAPT};

// Packed per-block flag word layout (16 bits used):
//   bit 0      directory dirty bit
//   bit 1      migratory classification
//   bit 2      limited-pointer overflow
//   bit 3      last-invalidator present
//   bits 4-5   single-holder line state (Exclusive/MigratoryClean/Dirty/Shared)
//   bits 6-7   copies-created counter (Zero/One/Two/ThreeOrMore)
//   bits 8-15  hysteresis evidence counter
// The last-invalidator *identity* lives in the parallel `last_inv`
// array (a full u16, so thousand-node machines fit); only its presence
// bit is packed here.
const F_DIRTY: u32 = 1 << 0;
const F_MIGRATORY: u32 = 1 << 1;
const F_OVERFLOWED: u32 = 1 << 2;
const F_LAST_INV_PRESENT: u32 = 1 << 3;
const SSTATE_SHIFT: u32 = 4;
const CREATED_SHIFT: u32 = 6;
const EVIDENCE_SHIFT: u32 = 8;

const fn sstate_bits(state: LineState) -> u32 {
    match state {
        LineState::Exclusive => 0,
        LineState::MigratoryClean => 1,
        LineState::Dirty => 2,
        LineState::Shared => 3,
    }
}

const fn sstate_decode(bits: u32) -> LineState {
    match bits & 0b11 {
        0 => LineState::Exclusive,
        1 => LineState::MigratoryClean,
        2 => LineState::Dirty,
        _ => LineState::Shared,
    }
}

const fn created_bits(created: CopiesCreated) -> u32 {
    match created {
        CopiesCreated::Zero => 0,
        CopiesCreated::One => 1,
        CopiesCreated::Two => 2,
        CopiesCreated::ThreeOrMore => 3,
    }
}

const fn created_decode(bits: u32) -> CopiesCreated {
    match bits & 0b11 {
        0 => CopiesCreated::Zero,
        1 => CopiesCreated::One,
        2 => CopiesCreated::Two,
        _ => CopiesCreated::ThreeOrMore,
    }
}

/// SplitMix64 finalizer: the block-index hash for the open-addressing
/// table. Full-avalanche, so sequential block indices scatter evenly.
const fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The dense struct-of-arrays hot path behind
/// [`AnyEngine`](crate::AnyEngine).
///
/// Construct through [`AnyEngine::new`](crate::AnyEngine::new) with
/// [`EngineKind::Fast`](crate::EngineKind::Fast); drive it through the
/// [`Engine`] trait. Bit-exact with the reference engine (see
/// `tests/fast_engine_parity.rs` and DESIGN.md §13).
#[derive(Clone, Debug)]
pub struct FastEngine {
    protocol: Protocol,
    policy: AdaptivePolicy,
    pure_migratory: bool,
    nodes: u16,
    block_size: BlockSize,
    repr: DirectoryRepr,
    placement: PagePlacement,
    /// Open-addressing index: `block.index() + 1` (0 = empty slot) →
    /// position in `slot_ids`. Linear probing, power-of-two capacity.
    keys: Vec<u64>,
    slot_ids: Vec<u32>,
    table_mask: usize,
    /// Parallel arrays, one row per block ever referenced.
    blocks: Vec<BlockAddr>,
    /// The block's home node, resolved once at slot creation: placement
    /// is fixed at construction, so caching it here turns the per-step
    /// page-table lookup into a direct index.
    home: Vec<NodeId>,
    copyset: Vec<CopySet>,
    flags: Vec<u32>,
    /// Last-invalidator node id per block; meaningful only while the
    /// `F_LAST_INV_PRESENT` bit is set in `flags`.
    last_inv: Vec<u16>,
    line_version: Vec<u64>,
    mem_version: Vec<u64>,
    latest: Vec<u64>,
    /// One LRU cache per node holding resident lines' slot ids, for
    /// finite configurations; empty with infinite caches, where the
    /// copyset alone is residency and nothing is ever evicted.
    caches: Vec<SetAssocCache<u32>>,
    rwitm: bool,
    faults: Option<FaultInjector>,
    steps: u64,
    messages: MessageBreakdown,
    events: EventCounts,
    sink: Option<SharedSink>,
    /// Events buffered during the current step, flushed once at every
    /// exit of `try_step`. Only filled while a sink is attached.
    pending: Vec<ObsEvent>,
}

impl FastEngine {
    /// Creates a fast engine for any cache configuration.
    pub(crate) fn new(
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
    ) -> Self {
        let policy = protocol.policy().unwrap_or(NEVER_ADAPT);
        FastEngine {
            protocol,
            policy,
            pure_migratory: protocol == Protocol::PureMigratory,
            nodes: config.nodes,
            block_size: config.block_size,
            repr: config.directory,
            placement,
            keys: Vec::new(),
            slot_ids: Vec::new(),
            table_mask: 0,
            blocks: Vec::new(),
            home: Vec::new(),
            copyset: Vec::new(),
            flags: Vec::new(),
            last_inv: Vec::new(),
            line_version: Vec::new(),
            mem_version: Vec::new(),
            latest: Vec::new(),
            caches: match config.cache {
                CacheConfig::Finite(geometry) => (0..config.nodes)
                    .map(|_| SetAssocCache::new(geometry))
                    .collect(),
                CacheConfig::Infinite => Vec::new(),
            },
            rwitm: false,
            faults: None,
            steps: 0,
            messages: MessageBreakdown::default(),
            events: EventCounts::default(),
            sink: None,
            pending: Vec::new(),
        }
    }

    /// Subjects every demand transaction to the unreliable-interconnect
    /// model described by `plan`.
    #[must_use]
    pub(crate) fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultInjector::new(plan));
        self
    }

    pub(crate) fn set_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// Emits `event` immediately (run framing between steps; in-step
    /// events go through the pending buffer instead).
    pub(crate) fn emit_obs(&self, event: &ObsEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(event);
        }
    }

    // ---- index ----------------------------------------------------

    #[inline]
    fn lookup(&self, block: BlockAddr) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let key = block.index().wrapping_add(1);
        let mut i = (mix(key) as usize) & self.table_mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.slot_ids[i] as usize);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.table_mask;
        }
    }

    fn raw_insert(&mut self, key: u64, id: u32) {
        let mut i = (mix(key) as usize) & self.table_mask;
        while self.keys[i] != 0 {
            i = (i + 1) & self.table_mask;
        }
        self.keys[i] = key;
        self.slot_ids[i] = id;
    }

    fn grow_table(&mut self) {
        let new_cap = self.keys.len().max(32) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_ids = std::mem::replace(&mut self.slot_ids, vec![0; new_cap]);
        self.table_mask = new_cap - 1;
        for (k, id) in old_keys.into_iter().zip(old_ids) {
            if k != 0 {
                self.raw_insert(k, id);
            }
        }
    }

    /// Appends a fresh row for `block` — the moment the reference
    /// engine's `entry_mut` would create a directory entry.
    fn create_slot(&mut self, block: BlockAddr, home: NodeId) -> usize {
        let slot = self.blocks.len();
        self.blocks.push(block);
        self.home.push(home);
        self.copyset.push(CopySet::new());
        self.flags.push(pack_entry(&DirEntry::new(self.policy), 0));
        self.last_inv.push(0);
        self.line_version.push(0);
        self.mem_version.push(0);
        self.latest.push(0);
        // Grow at 50% load so probe chains stay short.
        if (self.blocks.len() + 1) * 2 > self.keys.len() {
            self.grow_table();
        }
        self.raw_insert(block.index().wrapping_add(1), slot as u32);
        slot
    }

    fn ensure_slot(&mut self, block: BlockAddr) -> usize {
        match self.lookup(block) {
            Some(slot) => slot,
            None => {
                let home = self.placement.home_of_block(block, self.block_size);
                self.create_slot(block, home)
            }
        }
    }

    // ---- packed state accessors -----------------------------------

    /// Materialises the directory entry from the packed row.
    fn entry_at(&self, slot: usize) -> DirEntry {
        let f = self.flags[slot];
        DirEntry {
            copyset: self.copyset[slot].clone(),
            created: created_decode(f >> CREATED_SHIFT),
            migratory: f & F_MIGRATORY != 0,
            dirty: f & F_DIRTY != 0,
            last_invalidator: (f & F_LAST_INV_PRESENT != 0)
                .then(|| NodeId::new(self.last_inv[slot])),
            evidence: ((f >> EVIDENCE_SHIFT) & 0xff) as u8,
            overflowed: f & F_OVERFLOWED != 0,
        }
    }

    /// Writes a (possibly hook-mutated) directory entry back into the
    /// packed row, preserving the line-state bits.
    fn store_entry(&mut self, slot: usize, e: DirEntry) {
        let sstate = (self.flags[slot] >> SSTATE_SHIFT) & 0b11;
        self.flags[slot] = pack_entry(&e, sstate);
        self.last_inv[slot] = e.last_invalidator.map_or(0, |n| n.index() as u16);
        self.copyset[slot] = e.copyset;
    }

    fn set_sstate(&mut self, slot: usize, state: LineState) {
        self.flags[slot] =
            (self.flags[slot] & !(0b11 << SSTATE_SHIFT)) | (sstate_bits(state) << SSTATE_SHIFT);
    }

    /// The line state every current holder of the slot's block sees.
    /// Only meaningful while the copyset is non-empty.
    #[inline]
    fn holder_state(&self, slot: usize) -> LineState {
        if self.copyset[slot].len() > 1 {
            LineState::Shared
        } else {
            sstate_decode(self.flags[slot] >> SSTATE_SHIFT)
        }
    }

    fn dirty_at(&self, slot: usize) -> bool {
        self.flags[slot] & F_DIRTY != 0
    }

    fn overflowed_at(&self, slot: usize) -> bool {
        self.flags[slot] & F_OVERFLOWED != 0
    }

    // ---- stepping -------------------------------------------------

    /// Processes one reference; see
    /// [`DirectoryEngine::try_step`](crate::DirectoryEngine::try_step)
    /// for the error contract (identical).
    ///
    /// # Errors
    ///
    /// After an error the engine's state is not rolled back; a failed
    /// simulation should be discarded, not resumed.
    pub(crate) fn try_step(&mut self, r: MemRef) -> Result<StepInfo, SimError> {
        let block = r.addr.block(self.block_size);
        if r.node.index() >= usize::from(self.nodes) {
            return Err(SimError::NodeOutOfRange {
                node: r.node,
                nodes: self.nodes,
            });
        }
        self.steps += 1;
        let result = self.step_inner(r.node, block, r.op);
        // Flush on both exits: the reference engine emits fault events
        // before reporting a delivery error, so the buffered stream
        // must survive the error path too.
        self.flush_pending();
        result
    }

    fn step_inner(&mut self, n: NodeId, block: BlockAddr, op: MemOp) -> Result<StepInfo, SimError> {
        let slot = self.lookup(block);
        let home = match slot {
            Some(s) => self.home[s],
            None => self.placement.home_of_block(block, self.block_size),
        };
        let backoff = self.deliver_transaction(n, block, home, op)?;
        let before = self.critical_path_messages();
        let kind = match slot {
            Some(s) if self.copyset[s].contains(n) => self.hit(s, n, block, home, op)?,
            _ => self.miss(slot, n, block, home, op)?,
        };
        let after = self.critical_path_messages();
        let info = StepInfo {
            kind,
            home,
            messages: MessageCount::new(after.control - before.control, after.data - before.data),
            backoff_units: backoff,
        };
        if self.sink.is_some() {
            self.pending.push(ObsEvent::Step {
                step: self.steps,
                block: block.index(),
                node: obs_node(n),
                kind: kind.obs(),
                control: info.messages.control,
                data: info.messages.data,
            });
        }
        Ok(info)
    }

    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if let Some(sink) = &self.sink {
            for event in &self.pending {
                sink.emit(event);
            }
        }
        self.pending.clear();
    }

    fn critical_path_messages(&self) -> MessageCount {
        self.messages.read_miss + self.messages.write_miss + self.messages.write_hit
    }

    /// Fault-injection replay; mirrors the reference engine's
    /// `deliver_transaction` exactly, buffering fault events instead of
    /// emitting them inline.
    fn deliver_transaction(
        &mut self,
        n: NodeId,
        block: BlockAddr,
        home: NodeId,
        op: MemOp,
    ) -> Result<u64, SimError> {
        if self.faults.is_none() {
            return Ok(0);
        }
        let Some(shape) = self.transaction_shape(n, block, home, op) else {
            return Ok(0);
        };
        let has_sink = self.sink.is_some();
        let step = self.steps;
        let (ob, on) = (block.index(), obs_node(n));
        let plan = *self.faults.as_ref().expect("checked is_none above").plan();
        let mut attempt = 0u32;
        let mut backoff_total = 0u64;
        loop {
            let report = self
                .faults
                .as_mut()
                .expect("checked is_none above")
                .attempt(shape);
            backoff_total += report.delay_units;
            match report.outcome {
                AttemptOutcome::Delivered => {
                    self.messages.retries += report.wasted;
                    break;
                }
                AttemptOutcome::Delayed => {
                    self.messages.retries += report.wasted;
                    if backoff_total > plan.max_total_backoff {
                        return Err(SimError::Livelock {
                            block,
                            node: n,
                            backoff_units: backoff_total,
                            step: self.steps,
                        });
                    }
                    continue;
                }
                AttemptOutcome::Dropped => {
                    self.messages.retries += report.wasted;
                    self.events.retries += 1;
                    if has_sink {
                        self.pending.push(ObsEvent::Retry {
                            step,
                            block: ob,
                            node: on,
                            attempt: attempt + 1,
                        });
                    }
                }
                AttemptOutcome::Nacked => {
                    self.messages.nacks += report.wasted;
                    self.events.nacks += 1;
                    self.events.retries += 1;
                    if has_sink {
                        self.pending.push(ObsEvent::Nack {
                            step,
                            block: ob,
                            node: on,
                            attempt: attempt + 1,
                        });
                        self.pending.push(ObsEvent::Retry {
                            step,
                            block: ob,
                            node: on,
                            attempt: attempt + 1,
                        });
                    }
                }
            }
            if attempt >= plan.max_retries {
                return Err(SimError::RetryExhausted {
                    block,
                    node: n,
                    attempts: attempt + 1,
                    step: self.steps,
                });
            }
            backoff_total += jittered_backoff_units(plan.seed, self.steps, attempt);
            if backoff_total > plan.max_total_backoff {
                return Err(SimError::Livelock {
                    block,
                    node: n,
                    backoff_units: backoff_total,
                    step: self.steps,
                });
            }
            attempt += 1;
        }
        if backoff_total > 0 && has_sink {
            self.pending.push(ObsEvent::Backoff {
                step,
                block: ob,
                node: on,
                units: backoff_total,
            });
        }
        self.events.backoff_units += backoff_total;
        Ok(backoff_total)
    }

    /// The wire shape of the transaction this reference would issue;
    /// mirrors the reference engine's `transaction_shape`. Never
    /// creates a slot: the reference version only reads the directory.
    fn transaction_shape(
        &self,
        n: NodeId,
        block: BlockAddr,
        home: NodeId,
        op: MemOp,
    ) -> Option<TransactionShape> {
        let local = home == n;
        let slot = self.lookup(block);
        let resident = slot.is_some_and(|s| self.copyset[s].contains(n));
        if resident {
            let s = slot.expect("resident implies a slot");
            match op {
                MemOp::Read => None,
                MemOp::Write => match self.holder_state(s) {
                    LineState::Dirty | LineState::MigratoryClean => None,
                    LineState::Exclusive => {
                        let msgs = charge(OpKind::WriteHit, local, false, 0);
                        (msgs.total() > 0).then_some(TransactionShape {
                            has_data_response: false,
                            invalidations: 0,
                        })
                    }
                    LineState::Shared => {
                        let dc = self.repr.charged_distant_copies(
                            &self.copyset[s],
                            self.overflowed_at(s),
                            n,
                            home,
                            self.nodes,
                        );
                        let msgs = charge(OpKind::WriteHit, local, false, dc);
                        (msgs.total() > 0).then_some(TransactionShape {
                            has_data_response: false,
                            invalidations: dc,
                        })
                    }
                },
            }
        } else {
            let (dirty, dc) = match slot {
                Some(s) => {
                    let dirty = self.dirty_at(s);
                    (
                        dirty,
                        if dirty {
                            self.copyset[s].distant_count(n, home)
                        } else {
                            self.repr.charged_distant_copies(
                                &self.copyset[s],
                                self.overflowed_at(s),
                                n,
                                home,
                                self.nodes,
                            )
                        },
                    )
                }
                None => (false, 0),
            };
            let write_like = matches!(op, MemOp::Write) || self.rwitm;
            let kind = if write_like {
                OpKind::WriteMiss
            } else {
                OpKind::ReadMiss
            };
            let msgs = charge(kind, local, dirty, dc);
            (msgs.total() > 0).then_some(TransactionShape {
                has_data_response: msgs.data > 0,
                invalidations: if write_like { dc } else { 0 },
            })
        }
    }

    fn hit(
        &mut self,
        slot: usize,
        n: NodeId,
        block: BlockAddr,
        home: NodeId,
        op: MemOp,
    ) -> Result<StepKind, Violation> {
        if let Some(cache) = self.caches.get_mut(n.index()) {
            cache.touch(block);
        }
        let state = self.holder_state(slot);
        let version = self.line_version[slot];
        self.observe(slot, block, version, "cache hit")?;
        Ok(match op {
            MemOp::Read => {
                self.events.read_hits += 1;
                StepKind::ReadHit
            }
            MemOp::Write => {
                let kind = match state {
                    LineState::Dirty => {
                        self.events.silent_write_hits += 1;
                        StepKind::SilentWrite
                    }
                    LineState::MigratoryClean => {
                        self.events.write_grants_used += 1;
                        self.flags[slot] |= F_DIRTY;
                        self.set_sstate(slot, LineState::Dirty);
                        StepKind::GrantedWrite
                    }
                    LineState::Exclusive => {
                        self.events.exclusive_upgrades += 1;
                        self.messages.write_hit += charge(OpKind::WriteHit, home == n, false, 0);
                        let mut e = self.entry_at(slot);
                        let rc = if self.pure_migratory {
                            e.last_invalidator = Some(n);
                            e.dirty = true;
                            Reclassification::Unchanged
                        } else {
                            e.on_write_hit_clean_exclusive(self.policy, n)
                        };
                        self.store_entry(slot, e);
                        self.record_reclass(rc, block, n, Rule::WriteHitCleanExclusive);
                        self.set_sstate(slot, LineState::Dirty);
                        StepKind::ExclusiveUpgrade
                    }
                    LineState::Shared => {
                        self.events.shared_upgrades += 1;
                        let mut e = self.entry_at(slot);
                        let dc = self.repr.charged_distant_copies(
                            &e.copyset,
                            e.overflowed,
                            n,
                            home,
                            self.nodes,
                        );
                        let was_overflowed = e.overflowed;
                        let others = e.copyset.clone();
                        let rc = if self.pure_migratory {
                            e.created = CopiesCreated::One;
                            e.last_invalidator = Some(n);
                            e.dirty = true;
                            Reclassification::Unchanged
                        } else {
                            e.on_write_hit_shared(self.policy, n)
                        };
                        e.copyset = CopySet::only(n);
                        e.overflowed = false;
                        self.store_entry(slot, e);
                        if was_overflowed {
                            self.events.broadcast_invalidations += 1;
                        }
                        self.messages.write_hit += charge(OpKind::WriteHit, home == n, false, dc);
                        for m in others.iter() {
                            if m == n {
                                continue;
                            }
                            self.drop_line(m, block);
                            self.events.invalidations += 1;
                            self.push_invalidation(block, m);
                        }
                        self.record_reclass(rc, block, n, Rule::WriteHitShared);
                        self.set_sstate(slot, LineState::Dirty);
                        StepKind::SharedUpgrade
                    }
                };
                self.latest[slot] += 1;
                self.line_version[slot] = self.latest[slot];
                kind
            }
        })
    }

    fn miss(
        &mut self,
        slot: Option<usize>,
        n: NodeId,
        block: BlockAddr,
        home: NodeId,
        op: MemOp,
    ) -> Result<StepKind, Violation> {
        // The reference engine's entry_mut creates the directory entry
        // here, before the snapshot of pre-transaction state.
        let slot = match slot {
            Some(s) => s,
            None => self.create_slot(block, home),
        };
        let pure = self.pure_migratory;
        let dirty = self.dirty_at(slot);
        let was_overflowed = self.overflowed_at(slot);
        let copyset_before = self.copyset[slot].clone();
        let dc = if dirty {
            copyset_before.distant_count(n, home)
        } else {
            self.repr
                .charged_distant_copies(&copyset_before, was_overflowed, n, home, self.nodes)
        };
        debug_assert!(!copyset_before.contains(n), "missing node holds a copy");
        // A single holder's copy is dirty iff its line state says so;
        // multiple holders are all Shared (clean) by representation.
        let single_dirty =
            copyset_before.single().is_some() && self.holder_state(slot) == LineState::Dirty;
        Ok(match op {
            MemOp::Read if self.rwitm => {
                self.events.read_misses += 1;
                self.events.migrations += 1;
                self.messages.read_miss += charge(OpKind::WriteMiss, home == n, dirty, dc);
                let mut served_from_owner = None;
                for m in copyset_before.iter() {
                    if single_dirty {
                        let v = self.line_version[slot];
                        self.mem_version[slot] = v;
                        served_from_owner = Some(v);
                    }
                    self.drop_line(m, block);
                    self.events.invalidations += 1;
                    self.push_invalidation(block, m);
                }
                let served = served_from_owner.unwrap_or(self.mem_version[slot]);
                self.observe(slot, block, served, "read-with-ownership")?;
                let mut e = self.entry_at(slot);
                e.created = CopiesCreated::One;
                e.last_invalidator = Some(n);
                e.copyset = CopySet::only(n);
                e.overflowed = false;
                e.dirty = false;
                self.store_entry(slot, e);
                self.set_sstate(slot, LineState::MigratoryClean);
                self.line_version[slot] = served;
                self.fill(n, slot);
                StepKind::ReadMissMigrate
            }
            MemOp::Read => {
                self.events.read_misses += 1;
                self.messages.read_miss += charge(OpKind::ReadMiss, home == n, dirty, dc);
                let (action, rc) = if pure && dirty {
                    (ReadMissAction::Migrate, Reclassification::Unchanged)
                } else {
                    let mut e = self.entry_at(slot);
                    let out = e.on_read_miss(self.policy);
                    self.store_entry(slot, e);
                    out
                };
                self.record_reclass(rc, block, n, Rule::ReadMiss);
                match action {
                    ReadMissAction::Migrate => {
                        self.events.migrations += 1;
                        let served = if let Some(owner) = copyset_before.single() {
                            let v = self.line_version[slot];
                            if single_dirty {
                                self.mem_version[slot] = v;
                            }
                            self.drop_line(owner, block);
                            self.events.invalidations += 1;
                            self.push_invalidation(block, owner);
                            v
                        } else {
                            debug_assert!(copyset_before.is_empty());
                            self.mem_version[slot]
                        };
                        self.observe(slot, block, served, "migration")?;
                        let mut e = self.entry_at(slot);
                        e.copyset = CopySet::only(n);
                        e.overflowed = false;
                        e.dirty = false;
                        self.store_entry(slot, e);
                        self.set_sstate(slot, LineState::MigratoryClean);
                        self.line_version[slot] = served;
                        self.fill(n, slot);
                        StepKind::ReadMissMigrate
                    }
                    ReadMissAction::Replicate => {
                        self.events.replications += 1;
                        let mut served_from_owner = None;
                        if copyset_before.single().is_some() {
                            // Demote the exclusive holder to Shared in
                            // place; a dirty copy is written back.
                            if single_dirty {
                                served_from_owner = Some(self.line_version[slot]);
                            }
                            self.set_sstate(slot, LineState::Shared);
                        }
                        if let Some(v) = served_from_owner {
                            self.mem_version[slot] = v;
                        }
                        let served = served_from_owner.unwrap_or(self.mem_version[slot]);
                        self.observe(slot, block, served, "replication")?;
                        // Clear dirty, add the reader, maybe overflow —
                        // directly on the packed row (equivalent to an
                        // entry_at/store_entry round trip, which touches
                        // nothing else here).
                        self.copyset[slot].insert(n);
                        let mut f = self.flags[slot] & !F_DIRTY;
                        if self.repr.overflows(self.copyset[slot].len()) {
                            f |= F_OVERFLOWED;
                        }
                        self.flags[slot] = f;
                        if copyset_before.is_empty() {
                            self.set_sstate(slot, LineState::Exclusive);
                        }
                        self.line_version[slot] = served;
                        self.fill(n, slot);
                        StepKind::ReadMissReplicate
                    }
                }
            }
            MemOp::Write => {
                self.events.write_misses += 1;
                self.messages.write_miss += charge(OpKind::WriteMiss, home == n, dirty, dc);
                let mut served_from_owner = None;
                for m in copyset_before.iter() {
                    if single_dirty {
                        let v = self.line_version[slot];
                        self.mem_version[slot] = v;
                        served_from_owner = Some(v);
                    }
                    self.drop_line(m, block);
                    self.events.invalidations += 1;
                    self.push_invalidation(block, m);
                }
                let served = served_from_owner.unwrap_or(self.mem_version[slot]);
                self.observe(slot, block, served, "write miss")?;
                if was_overflowed {
                    self.events.broadcast_invalidations += 1;
                }
                let mut e = self.entry_at(slot);
                let rc = if pure {
                    e.created = CopiesCreated::One;
                    e.last_invalidator = Some(n);
                    e.dirty = true;
                    Reclassification::Unchanged
                } else {
                    e.on_write_miss(self.policy, n)
                };
                e.copyset = CopySet::only(n);
                e.overflowed = false;
                self.store_entry(slot, e);
                self.record_reclass(rc, block, n, Rule::WriteMiss);
                self.latest[slot] += 1;
                self.set_sstate(slot, LineState::Dirty);
                self.line_version[slot] = self.latest[slot];
                self.fill(n, slot);
                StepKind::WriteMiss
            }
        })
    }

    /// Places `slot`'s block in node `n`'s finite cache after a miss,
    /// evicting the set's LRU line if it was full. No-op with infinite
    /// caches.
    #[inline]
    fn fill(&mut self, n: NodeId, slot: usize) {
        let Some(cache) = self.caches.get_mut(n.index()) else {
            return;
        };
        if let Some((_, victim)) = cache.insert(self.blocks[slot], slot as u32) {
            self.evict(n, victim as usize);
        }
    }

    /// Drops node `n`'s copy of the victim row: mirrors the reference
    /// engine's `insert_line` victim handling — §3.3 eviction traffic,
    /// a write-back of dirty data or a clean drop, and the directory's
    /// copy-dropped rule.
    fn evict(&mut self, n: NodeId, victim: usize) {
        debug_assert!(
            self.copyset[victim].contains(n),
            "evicted line not in copyset"
        );
        let dirty = self.copyset[victim].single().is_some()
            && self.holder_state(victim) == LineState::Dirty;
        self.messages.eviction += charge_eviction(self.home[victim] == n, dirty);
        if dirty {
            self.mem_version[victim] = self.line_version[victim];
            self.events.writebacks += 1;
        } else {
            self.events.clean_drops += 1;
        }
        let mut e = self.entry_at(victim);
        let rc = e.on_copy_dropped(self.policy, n);
        self.store_entry(victim, e);
        if self.copyset[victim].single().is_some() {
            // One of two Shared holders left; the survivor stays Shared.
            self.set_sstate(victim, LineState::Shared);
        }
        self.record_reclass(rc, self.blocks[victim], n, Rule::CopyDropped);
    }

    /// Removes node `m`'s copy of `block` from its finite cache (an
    /// invalidation). No-op with infinite caches.
    #[inline]
    fn drop_line(&mut self, m: NodeId, block: BlockAddr) {
        if let Some(cache) = self.caches.get_mut(m.index()) {
            let removed = cache.remove(block);
            debug_assert!(removed.is_some(), "copyset out of sync with caches");
        }
    }

    fn record_reclass(&mut self, rc: Reclassification, block: BlockAddr, node: NodeId, rule: Rule) {
        match rc {
            Reclassification::Unchanged => {}
            Reclassification::BecameMigratory => {
                self.events.became_migratory += 1;
                if self.sink.is_some() {
                    self.pending.push(ObsEvent::Promote {
                        step: self.steps,
                        block: block.index(),
                        node: obs_node(node),
                        rule,
                    });
                }
            }
            Reclassification::BecameOther => {
                self.events.became_other += 1;
                if self.sink.is_some() {
                    self.pending.push(ObsEvent::Demote {
                        step: self.steps,
                        block: block.index(),
                        node: obs_node(node),
                        rule,
                    });
                }
            }
        }
    }

    fn push_invalidation(&mut self, block: BlockAddr, node: NodeId) {
        if self.sink.is_some() {
            self.pending.push(ObsEvent::Invalidation {
                step: self.steps,
                block: block.index(),
                node: obs_node(node),
            });
        }
    }

    fn observe(
        &self,
        slot: usize,
        block: BlockAddr,
        observed: u64,
        context: &'static str,
    ) -> Result<(), Violation> {
        let latest = self.latest[slot];
        if observed == latest {
            Ok(())
        } else {
            Err(Violation {
                block,
                step: self.steps,
                kind: ViolationKind::StaleRead { observed, latest },
                context,
                entry: Some(self.entry_at(slot)),
            })
        }
    }

    // ---- inspection -----------------------------------------------

    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    pub(crate) fn protocol(&self) -> Protocol {
        self.protocol
    }

    pub(crate) fn messages(&self) -> MessageBreakdown {
        self.messages
    }

    pub(crate) fn events(&self) -> EventCounts {
        self.events
    }

    pub(crate) fn line_state(&self, node: NodeId, block: BlockAddr) -> Option<LineState> {
        let slot = self.lookup(block)?;
        self.copyset[slot]
            .contains(node)
            .then(|| self.holder_state(slot))
    }

    pub(crate) fn line_version(&self, node: NodeId, block: BlockAddr) -> Option<u64> {
        let slot = self.lookup(block)?;
        self.copyset[slot]
            .contains(node)
            .then(|| self.line_version[slot])
    }

    pub(crate) fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        self.lookup(block).map(|slot| self.entry_at(slot))
    }

    pub(crate) fn latest_version(&self, block: BlockAddr) -> u64 {
        self.lookup(block).map_or(0, |slot| self.latest[slot])
    }

    pub(crate) fn memory_version(&self, block: BlockAddr) -> u64 {
        self.lookup(block).map_or(0, |slot| self.mem_version[slot])
    }

    pub(crate) fn resident_lines(&self) -> Vec<(NodeId, BlockAddr, LineState, u64)> {
        // One pass over the rows into per-node buckets: node-major, slot
        // order within a node, at O(blocks + lines) rather than one pass
        // over every row per node.
        let mut by_node = vec![Vec::new(); usize::from(self.nodes)];
        for slot in 0..self.blocks.len() {
            for node in self.copyset[slot].iter() {
                by_node[node.index()].push((
                    node,
                    self.blocks[slot],
                    self.holder_state(slot),
                    self.line_version[slot],
                ));
            }
        }
        by_node.concat()
    }

    /// Testing hook mirroring
    /// [`DirectoryEngine::poison_line_version`]
    /// (crate::DirectoryEngine::poison_line_version). The fast engine
    /// stores one version per block, so poisoning any holder poisons
    /// every holder of that block.
    pub(crate) fn poison_line_version(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        version: u64,
    ) -> bool {
        match self.lookup(block) {
            Some(slot) if self.copyset[slot].contains(node) => {
                self.line_version[slot] = version;
                true
            }
            _ => false,
        }
    }

    /// Testing hook mirroring
    /// [`DirectoryEngine::poison_latest_version`]
    /// (crate::DirectoryEngine::poison_latest_version).
    pub(crate) fn poison_latest_version(&mut self, block: BlockAddr, version: u64) {
        let slot = self.ensure_slot(block);
        self.latest[slot] = version;
    }

    /// Sweeps the global invariants; same checks as
    /// [`DirectoryEngine::verify`](crate::DirectoryEngine::verify).
    /// The single-writer invariant holds by representation (multiple
    /// holders are Shared by construction). With infinite caches the
    /// copyset *is* residency; with finite caches every cache line must
    /// name a row whose copyset holds that node, and every holder must
    /// have the line in its cache.
    pub(crate) fn verify(&self) -> Result<(), Violation> {
        let sweep = "invariant sweep";
        let desync = |block: BlockAddr| Violation {
            block,
            step: self.steps,
            kind: ViolationKind::CopysetMismatch,
            context: sweep,
            entry: self.lookup(block).map(|slot| self.entry_at(slot)),
        };
        for (node, cache) in NodeId::first(self.nodes).zip(&self.caches) {
            for (block, &slot) in cache.iter() {
                let slot = slot as usize;
                if self.blocks.get(slot) != Some(&block) || !self.copyset[slot].contains(node) {
                    return Err(desync(block));
                }
            }
        }
        if !self.caches.is_empty() {
            for (slot, &block) in self.blocks.iter().enumerate() {
                for m in self.copyset[slot].iter() {
                    if self.caches[m.index()].get(block) != Some(&(slot as u32)) {
                        return Err(desync(block));
                    }
                }
            }
        }
        for slot in 0..self.blocks.len() {
            let holders = &self.copyset[slot];
            let any_dirty =
                holders.single().is_some() && self.holder_state(slot) == LineState::Dirty;
            if self.dirty_at(slot) != any_dirty {
                return Err(Violation {
                    block: self.blocks[slot],
                    step: self.steps,
                    kind: ViolationKind::DirtyBitMismatch,
                    context: sweep,
                    entry: Some(self.entry_at(slot)),
                });
            }
            if !any_dirty && self.mem_version[slot] != self.latest[slot] {
                return Err(Violation {
                    block: self.blocks[slot],
                    step: self.steps,
                    kind: ViolationKind::StaleMemory {
                        memory: self.mem_version[slot],
                        latest: self.latest[slot],
                    },
                    context: sweep,
                    entry: Some(self.entry_at(slot)),
                });
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> SimResult {
        let result = SimResult {
            protocol: self.protocol,
            messages: self.messages,
            events: self.events,
        };
        result.debug_assert_consistent();
        result
    }

    // ---- snapshot conversion --------------------------------------

    /// Captures the engine's state as the engine-agnostic
    /// [`EngineSnapshot`], byte-identical to what the reference engine
    /// would capture in the same state: directory, memory-version and
    /// latest-version rows in block order (version rows only where the
    /// reference engine's maps would hold a key — every insertion there
    /// carries a version ≥ 1), cache rows per node in the reference
    /// caches' `snapshot_lines` order: least-recently-used first for
    /// finite caches, block order for infinite ones.
    pub(crate) fn snapshot(&self) -> EngineSnapshot {
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_unstable_by_key(|&s| self.blocks[s].index());
        let dir = order
            .iter()
            .map(|&s| (self.blocks[s].index(), self.entry_at(s)))
            .collect();
        let mem_version = order
            .iter()
            .filter(|&&s| self.mem_version[s] > 0)
            .map(|&s| (self.blocks[s].index(), self.mem_version[s]))
            .collect();
        let latest = order
            .iter()
            .filter(|&&s| self.latest[s] > 0)
            .map(|&s| (self.blocks[s].index(), self.latest[s]))
            .collect();
        let line = |s: usize| {
            (
                self.blocks[s].index(),
                self.holder_state(s),
                self.line_version[s],
            )
        };
        let caches = if self.caches.is_empty() {
            (0..self.nodes)
                .map(|node| {
                    let node = NodeId::new(node);
                    order
                        .iter()
                        .filter(|&&s| self.copyset[s].contains(node))
                        .map(|&s| line(s))
                        .collect()
                })
                .collect()
        } else {
            self.caches
                .iter()
                .map(|cache| {
                    cache
                        .iter_lru_first()
                        .into_iter()
                        .map(|(_, &slot)| line(slot as usize))
                        .collect()
                })
                .collect()
        };
        EngineSnapshot {
            rwitm: self.rwitm,
            steps: self.steps,
            injector_rng: self.faults.as_ref().map(|f| f.rng_state()),
            messages: self.messages,
            events: self.events,
            caches,
            dir,
            mem_version,
            latest,
        }
    }

    /// Rebuilds a fast engine from a snapshot (captured by either
    /// implementation). The dense representation cannot express a
    /// directory/cache desync or holders that disagree on a version —
    /// states no correct engine produces — so such snapshots are
    /// rejected with an error rather than restored inexactly.
    pub(crate) fn from_snapshot(
        snap: &EngineSnapshot,
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
        faults: Option<FaultPlan>,
    ) -> Result<FastEngine, String> {
        let mut engine = FastEngine::new(protocol, config, placement);
        if snap.caches.len() != usize::from(config.nodes) {
            return Err(format!(
                "snapshot has {} node caches but the configuration has {} nodes",
                snap.caches.len(),
                config.nodes
            ));
        }
        for (block, entry) in &snap.dir {
            let slot = engine.ensure_slot(BlockAddr::new(*block));
            engine.store_entry(slot, entry.clone());
        }
        for &(block, version) in &snap.mem_version {
            let slot = engine.ensure_slot(BlockAddr::new(block));
            engine.mem_version[slot] = version;
        }
        for &(block, version) in &snap.latest {
            let slot = engine.ensure_slot(BlockAddr::new(block));
            engine.latest[slot] = version;
        }
        let mut restored: Vec<CopySet> = vec![CopySet::new(); engine.blocks.len()];
        for (node_idx, lines) in snap.caches.iter().enumerate() {
            let node = NodeId::new(node_idx as u16);
            for &(block, state, version) in lines {
                let block = BlockAddr::new(block);
                let slot = engine.ensure_slot(block);
                if restored.len() < engine.blocks.len() {
                    restored.resize(engine.blocks.len(), CopySet::new());
                }
                if restored[slot].contains(node) {
                    return Err(format!(
                        "duplicate cache line for {block} at node {node_idx}"
                    ));
                }
                if restored[slot].is_empty() {
                    engine.set_sstate(slot, state);
                    engine.line_version[slot] = version;
                } else {
                    if engine.line_version[slot] != version {
                        return Err(format!(
                            "cache lines for {block} disagree on version; the fast \
                             engine stores one version per block"
                        ));
                    }
                    if state != LineState::Shared
                        || sstate_decode(engine.flags[slot] >> SSTATE_SHIFT) != LineState::Shared
                    {
                        return Err(format!(
                            "multiple cache lines for {block} are not all Shared; the \
                             fast engine cannot represent that state"
                        ));
                    }
                }
                restored[slot].insert(node);
                if let Some(cache) = engine.caches.get_mut(node_idx) {
                    if cache.insert(block, slot as u32).is_some() {
                        return Err("cache snapshot does not fit the configured geometry".into());
                    }
                }
            }
        }
        for (slot, residency) in restored.iter().enumerate() {
            if engine.copyset[slot] != *residency {
                return Err(format!(
                    "snapshot directory copyset for {} disagrees with cache residency; \
                     the fast engine cannot represent desynchronised state",
                    engine.blocks[slot]
                ));
            }
        }
        engine.rwitm = snap.rwitm;
        engine.steps = snap.steps;
        engine.messages = snap.messages;
        engine.events = snap.events;
        engine.faults = match (faults, snap.injector_rng) {
            (Some(plan), Some(state)) => Some(FaultInjector::resume(plan, state)),
            (None, None) => None,
            (Some(_), None) => {
                return Err("run has a fault plan but the snapshot captured no injector".into())
            }
            (None, Some(_)) => {
                return Err("snapshot captured a fault injector but the run has no plan".into())
            }
        };
        Ok(engine)
    }
}

fn pack_entry(e: &DirEntry, sstate: u32) -> u32 {
    let mut f = (sstate & 0b11) << SSTATE_SHIFT;
    if e.dirty {
        f |= F_DIRTY;
    }
    if e.migratory {
        f |= F_MIGRATORY;
    }
    if e.overflowed {
        f |= F_OVERFLOWED;
    }
    f |= created_bits(e.created) << CREATED_SHIFT;
    f |= u32::from(e.evidence) << EVIDENCE_SHIFT;
    if e.last_invalidator.is_some() {
        f |= F_LAST_INV_PRESENT;
    }
    f
}

impl Engine for FastEngine {
    fn protocol(&self) -> Protocol {
        self.protocol()
    }

    fn steps(&self) -> u64 {
        self.steps()
    }

    fn try_step(&mut self, r: MemRef) -> Result<StepInfo, SimError> {
        self.try_step(r)
    }

    fn verify(&self) -> Result<(), Violation> {
        self.verify()
    }

    fn messages(&self) -> MessageBreakdown {
        self.messages()
    }

    fn events(&self) -> EventCounts {
        self.events()
    }

    fn line_state(&self, node: NodeId, block: BlockAddr) -> Option<LineState> {
        self.line_state(node, block)
    }

    fn line_version(&self, node: NodeId, block: BlockAddr) -> Option<u64> {
        self.line_version(node, block)
    }

    fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        self.dir_entry(block)
    }

    fn latest_version(&self, block: BlockAddr) -> u64 {
        self.latest_version(block)
    }

    fn memory_version(&self, block: BlockAddr) -> u64 {
        self.memory_version(block)
    }

    fn resident_lines(&self) -> Vec<(NodeId, BlockAddr, LineState, u64)> {
        self.resident_lines()
    }

    fn set_sink(&mut self, sink: Option<SharedSink>) {
        self.set_sink(sink)
    }

    fn snapshot(&self) -> EngineSnapshot {
        self.snapshot()
    }

    fn finish(self) -> SimResult {
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_trace::Addr;

    fn fast(protocol: Protocol) -> FastEngine {
        let config = DirectorySimConfig::default();
        FastEngine::new(protocol, &config, PagePlacement::round_robin(config.nodes))
    }

    #[test]
    fn packed_entry_round_trips() {
        let policy = Protocol::Conservative.policy().unwrap();
        let mut e = DirEntry::new(policy);
        e.copyset.insert(NodeId::new(3));
        e.copyset.insert(NodeId::new(700));
        e.created = CopiesCreated::Two;
        e.migratory = true;
        e.dirty = false;
        e.last_invalidator = Some(NodeId::new(1023));
        e.evidence = 1;
        e.overflowed = true;
        let mut engine = fast(Protocol::Conservative);
        let slot = engine.ensure_slot(BlockAddr::new(42));
        engine.store_entry(slot, e.clone());
        assert_eq!(engine.entry_at(slot), e);
    }

    #[test]
    fn index_survives_growth_and_collisions() {
        let mut engine = fast(Protocol::Basic);
        for i in 0..10_000u64 {
            let slot = engine.ensure_slot(BlockAddr::new(i * 3));
            engine.latest[slot] = i + 1;
        }
        for i in 0..10_000u64 {
            assert_eq!(engine.latest_version(BlockAddr::new(i * 3)), i + 1);
            assert_eq!(engine.latest_version(BlockAddr::new(i * 3 + 1)), 0);
        }
    }

    #[test]
    fn migratory_grant_is_detected_like_the_reference() {
        let mut engine = fast(Protocol::Aggressive);
        engine
            .try_step(MemRef::read(NodeId::new(1), Addr::new(0)))
            .unwrap();
        let block = Addr::new(0).block(BlockSize::B16);
        assert_eq!(
            engine.line_state(NodeId::new(1), block),
            Some(LineState::MigratoryClean)
        );
        let info = engine
            .try_step(MemRef::write(NodeId::new(1), Addr::new(0)))
            .unwrap();
        assert_eq!(info.kind, StepKind::GrantedWrite);
        assert_eq!(info.messages, MessageCount::ZERO);
    }

    #[test]
    fn snapshot_round_trips_through_the_fast_engine() {
        let config = DirectorySimConfig::default();
        let mut engine = fast(Protocol::Basic);
        for turn in 0..20u16 {
            let n = NodeId::new(turn % 4);
            engine.step(MemRef::read(n, Addr::new(u64::from(turn % 3) * 16)));
            engine.step(MemRef::write(n, Addr::new(u64::from(turn % 3) * 16)));
        }
        let snap = engine.snapshot();
        let restored = FastEngine::from_snapshot(
            &snap,
            Protocol::Basic,
            &config,
            PagePlacement::round_robin(config.nodes),
            None,
        )
        .unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.steps(), engine.steps());
        assert_eq!(restored.messages(), engine.messages());
    }

    #[test]
    fn verify_cross_checks_finite_caches_against_copysets() {
        let config = DirectorySimConfig {
            cache: CacheConfig::Finite(
                mcc_cache::CacheGeometry::new(32, BlockSize::B16, 2).unwrap(),
            ),
            ..DirectorySimConfig::default()
        };
        let mut engine = FastEngine::new(
            Protocol::Basic,
            &config,
            PagePlacement::round_robin(config.nodes),
        );
        for b in 0..3u64 {
            engine.step(MemRef::read(NodeId::new(1), Addr::new(b * 16)));
        }
        // Two ways: the third read evicted the first block.
        assert_eq!(engine.events().clean_drops, 1);
        engine.verify().unwrap();
        let block = Addr::new(16).block(BlockSize::B16);
        engine.caches[1].remove(block);
        let v = engine.verify().unwrap_err();
        assert_eq!(v.kind, ViolationKind::CopysetMismatch);
        assert_eq!(v.block, block);
    }

    #[test]
    fn verify_catches_a_poisoned_latest_version() {
        let mut engine = fast(Protocol::Conventional);
        engine.step(MemRef::write(NodeId::new(1), Addr::new(0)));
        engine.step(MemRef::read(NodeId::new(2), Addr::new(0)));
        let block = Addr::new(0).block(BlockSize::B16);
        engine.verify().unwrap();
        engine.poison_latest_version(block, 9);
        let v = engine.verify().unwrap_err();
        assert_eq!(v.context, "invariant sweep");
        assert!(matches!(
            v.kind,
            ViolationKind::StaleMemory { latest: 9, .. }
        ));
    }
}
