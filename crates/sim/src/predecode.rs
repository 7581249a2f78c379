//! Predecoded-instruction cache: decode each instruction address once.
//!
//! Guest instruction memory is effectively immutable between flash loads,
//! flash-patch updates and (rare) self-modifying stores, yet the seed
//! interpreter re-fetched bytes and re-ran the table decoder on every
//! single step. This module adds the classic interpreter remedy — a
//! *predecode cache* (translation cache without code generation): a
//! 2-way set-associative table from instruction address to the
//! already-decoded [`Instr`], its size, its condition field and its
//! flash-patch interaction, consulted by `Machine::step` before falling
//! back to `alia_isa::decode_window`.
//!
//! On top of it sits a second level, the `BlockCache`: decoded
//! *basic blocks* — straight-line runs of `Entry`s up to the next
//! branch or other control transfer — recorded as a side effect of
//! per-step execution and lowered once, when recorded, to threaded code
//! (`crates/sim/src/threaded.rs`); the slot keeps only that lowering. The
//! machine's block engine (`Machine::run`) dispatches it whole, which
//! hoists the per-step dispatch tax (IRQ drain, generation-stamp
//! recomputation, cache probe) to block boundaries and chains block
//! exits so hot loops run cache-to-cache without re-probing. The
//! instruction-level cache stays as the fill path: blocks are built from
//! the entries it produced.
//!
//! # Semantics preservation
//!
//! The cache changes *host* cost only. Everything the cycle model
//! observes is replayed on every step, hit or miss:
//!
//! * fetch **timing** (flash streaming/prefetch state, I-cache lookups and
//!   parity recoveries, TCM hold-and-repair, MPU execute checks) — the
//!   machine re-runs the timing side of every fetch; only the byte
//!   extraction and decode are skipped,
//! * **flash-patch accounting** — a cached entry remembers how many patch
//!   hits the fetch contributed and whether it was a patch breakpoint, so
//!   `FlashPatch::hits` and `StopReason::PatchBreakpoint` are identical,
//! * **condition evaluation** — IT-block and A32 predication read live CPU
//!   state, never the cache.
//!
//! # Invalidation
//!
//! Entries are guarded by a *generation stamp* — the sum of revision
//! counters on everything that can change what bytes decode to:
//!
//! * [`crate::Flash::revision`] — flash image loads / host mutation,
//! * [`crate::FlashPatch::revision`] — patch slot programming,
//! * [`crate::Sram::revision`] / [`crate::Tcm::revision`] — host-side RAM
//!   mutation (bulk loads, fault injection),
//! * the machine's *code-write generation*, bumped when a simulated store
//!   (including bit-band aliases) lands inside the cache's **watermark**
//!   — the address interval covered by cached instructions. Stores
//!   outside the watermark (the overwhelmingly common case: data is data)
//!   cost two compares.
//!
//! A stamp mismatch clears the whole table on the next lookup. This is
//! deliberately coarse: correct first, cheap second — invalidation events
//! are rare compared to steps, and a full clear makes the consistency
//! argument one sentence long.
//!
//! # Forking
//!
//! Both levels keep their slots in copy-on-write chunk tables
//! (`crates/sim/src/cow.rs`), so forking a machine shares its warm
//! caches instead of copying them, and an insert copies only the chunk
//! it lands in. A stamp mismatch in one copy (a fork that flips a flash
//! bit) clears that copy alone: its view lets the shared table go, and
//! every other copy keeps it.

use std::sync::Arc;

use alia_isa::{Cond, Instr};

use crate::cow::CowTable;
use crate::threaded::ThreadedBlock;

/// Total entry count (covers 4 KiB of contiguous Thumb code before
/// aliasing; kernels in this repo are a few hundred bytes), organised
/// as [`SETS`] sets of two ways.
const SLOTS: usize = 2048;

/// Set count: two ways per set.
const SETS: usize = SLOTS / 2;

/// Marker for an empty slot (instruction addresses are even, so an odd
/// tag can never match a real PC).
const TAG_EMPTY: u32 = 1;

/// Entries per copy-on-write chunk: 64 sets, so a chunk never splits a
/// set.
const CHUNK: usize = 128;

/// One predecoded instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    tag: u32,
    /// The decoded instruction (meaningless for breakpoint entries).
    pub instr: Instr,
    /// Encoded size in bytes (2 or 4).
    pub size: u32,
    /// Precomputed `instr.cond()`.
    pub cond: Cond,
    /// Precomputed `matches!(instr, Instr::It { .. })`.
    pub is_it: bool,
    /// Flash-patch breakpoint on the first fetched unit (stop before
    /// executing; `StopReason::PatchBreakpoint { addr: pc }`).
    pub bp_first: bool,
    /// Flash-patch breakpoint on the second halfword of a wide Thumb
    /// instruction (`StopReason::PatchBreakpoint { addr: pc + 2 }`).
    pub bp_second: bool,
    /// `FlashPatch::hits` increments this fetch contributes per step.
    pub patch_hits: u8,
}

impl Entry {
    /// An entry for a successfully decoded instruction at `pc`.
    pub(crate) fn decoded(pc: u32, instr: Instr, size: u32, patch_hits: u8) -> Entry {
        Entry {
            tag: pc,
            instr,
            size,
            cond: instr.cond(),
            is_it: matches!(instr, Instr::It { .. }),
            bp_first: false,
            bp_second: false,
            patch_hits,
        }
    }

    /// An entry for a flash-patch breakpoint at `pc`; `second` marks a
    /// breakpoint on the second halfword of a wide Thumb instruction.
    pub(crate) fn breakpoint(pc: u32, size: u32, second: bool, patch_hits: u8) -> Entry {
        Entry {
            tag: pc,
            instr: Instr::Nop,
            size,
            cond: Cond::Al,
            is_it: false,
            bp_first: !second,
            bp_second: second,
            patch_hits,
        }
    }
}

impl Default for Entry {
    /// The empty slot.
    fn default() -> Entry {
        Entry {
            tag: TAG_EMPTY,
            instr: Instr::Nop,
            size: 0,
            cond: Cond::Al,
            is_it: false,
            bp_first: false,
            bp_second: false,
            patch_hits: 0,
        }
    }
}

/// Hit/miss/invalidation counters for the predecode cache, plus the
/// block-level counters of the block cache that sits on top of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Lookups served from the instruction-level cache.
    pub hits: u64,
    /// Lookups that fell back to the full fetch + decode path.
    pub misses: u64,
    /// Whole-cache invalidations (generation-stamp changes).
    pub invalidations: u64,
    /// Basic blocks recorded into the block cache.
    pub blocks_built: u64,
    /// Blocks executed from the block cache (entry probes and chain
    /// follows both count — one per block dispatched).
    pub block_hits: u64,
    /// Block exits that entered their successor through a verified
    /// chain link instead of a fresh cache probe.
    pub chain_follows: u64,
    /// Mid-block splits back to the per-step slow path because the
    /// cycle budget ran out (a due scheduled interrupt, a device event
    /// from `next_event`, or a `run_until` bound).
    pub budget_splits: u64,
    /// Blocks lowered to threaded code. Every block is lowered when it
    /// is recorded, so this always equals `blocks_built`; kept for
    /// reports that read it.
    pub blocks_promoted: u64,
    /// Superinstruction pairs fused across all lowered blocks.
    pub fused_pairs: u64,
    /// Block executions dispatched through threaded code (equals
    /// `block_hits`: every dispatched block runs threaded).
    pub threaded_dispatches: u64,
    /// Cached blocks dropped (invalidation, eviction or disable).
    pub demotions: u64,
    /// Instructions retired inside threaded block dispatches (the
    /// tier-occupancy numerator; everything else retired on the
    /// per-step path).
    pub threaded_instrs: u64,
    /// Always 0: blocks no longer run entry-at-a-time, every block
    /// dispatch is threaded. Kept so reports that read the old tier-2
    /// share keep compiling and print 0.
    pub block_instrs: u64,
    /// Statically-free fetch plans across all lowered blocks (the op's
    /// fetch is window-resident, zero cycles).
    pub plans_free: u64,
    /// Single-refill fetch plans across all lowered blocks (one
    /// planned streaming refill replaces the full timing walk).
    pub plans_refill: u64,
    /// Slow fetch plans across all lowered blocks (unplannable —
    /// replay `fetch_timing` in full).
    pub plans_slow: u64,
}

impl PredecodeStats {
    /// Accumulates `other` into `self`, field by field — the one place
    /// that knows every counter, so aggregated reports cannot silently
    /// drop a newly added field.
    pub fn merge(&mut self, other: &PredecodeStats) {
        let PredecodeStats {
            hits,
            misses,
            invalidations,
            blocks_built,
            block_hits,
            chain_follows,
            budget_splits,
            blocks_promoted,
            fused_pairs,
            threaded_dispatches,
            demotions,
            threaded_instrs,
            block_instrs,
            plans_free,
            plans_refill,
            plans_slow,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.invalidations += invalidations;
        self.blocks_built += blocks_built;
        self.block_hits += block_hits;
        self.chain_follows += chain_follows;
        self.budget_splits += budget_splits;
        self.blocks_promoted += blocks_promoted;
        self.fused_pairs += fused_pairs;
        self.threaded_dispatches += threaded_dispatches;
        self.demotions += demotions;
        self.threaded_instrs += threaded_instrs;
        self.block_instrs += block_instrs;
        self.plans_free += plans_free;
        self.plans_refill += plans_refill;
        self.plans_slow += plans_slow;
    }
}

/// The predecoded-instruction cache. See the module docs.
#[derive(Debug, Clone)]
pub struct Predecode {
    /// Entry storage: [`SLOTS`] entries in copy-on-write chunks, none
    /// allocated until an insert lands in them, indexed as [`SETS`]
    /// pairs of ways.
    entries: CowTable<Entry, CHUNK>,
    /// One MRU bit per set (bit set = way 1 was used more recently, so
    /// way 0 is the eviction victim). Kept inline, outside the shared
    /// table: hits update it.
    mru: [u64; SETS / 64],
    stamp: u64,
    /// Watermark over cached instruction bytes: lowest / highest address
    /// (inclusive) any live entry covers. `lo > hi` means empty.
    lo: u32,
    hi: u32,
    enabled: bool,
    stats: PredecodeStats,
}

impl Predecode {
    pub(crate) fn new(enabled: bool) -> Predecode {
        Predecode {
            entries: CowTable::new(),
            mru: [0; SETS / 64],
            stamp: 0,
            lo: u32::MAX,
            hi: 0,
            enabled,
            stats: PredecodeStats::default(),
        }
    }

    /// Whether lookups are served (disabling also drops all entries).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.drop_entries();
    }

    /// Counters since construction (cleared entries keep their counts).
    #[must_use]
    pub fn stats(&self) -> PredecodeStats {
        self.stats
    }

    fn set(pc: u32) -> usize {
        (pc >> 1) as usize & (SETS - 1)
    }

    fn drop_entries(&mut self) {
        self.entries.clear();
        self.lo = u32::MAX;
        self.hi = 0;
    }

    /// Looks up `pc` under generation `stamp`, copying out the entry on a
    /// hit. A stamp change clears the table first.
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32, stamp: u64) -> Option<Entry> {
        if !self.enabled {
            return None;
        }
        if self.stamp != stamp {
            self.drop_entries();
            self.stamp = stamp;
            self.stats.invalidations += 1;
            self.stats.misses += 1;
            return None;
        }
        let set = Predecode::set(pc);
        let Some(chunk) = self.entries.chunk(set * 2 / CHUNK) else {
            self.stats.misses += 1;
            return None;
        };
        let pair = &chunk[set * 2 % CHUNK..][..2];
        let way = if pair[0].tag == pc {
            0
        } else if pair[1].tag == pc {
            1
        } else {
            self.stats.misses += 1;
            return None;
        };
        let e = pair[way];
        self.mark_mru(set, way);
        self.stats.hits += 1;
        Some(e)
    }

    /// Records `way` as most-recently-used for `set`. The store is
    /// skipped when the bit already agrees — in steady-state straight
    ///-line execution the same way hits repeatedly, so the hot path
    /// does one load and no store.
    #[inline]
    fn mark_mru(&mut self, set: usize, way: usize) {
        let word = &mut self.mru[set >> 6];
        let bit = 1u64 << (set & 63);
        let want = way == 1;
        if (*word & bit != 0) != want {
            *word ^= bit;
        }
    }

    /// Installs an entry for `pc` filled under generation `stamp`.
    pub(crate) fn insert(&mut self, pc: u32, stamp: u64, entry: Entry) {
        if !self.enabled || self.stamp != stamp {
            return;
        }
        debug_assert_eq!(entry.tag, pc);
        let end = pc + entry.size.max(2) - 1;
        self.lo = self.lo.min(pc);
        self.hi = self.hi.max(end);
        let set = Predecode::set(pc);
        let mru_way1 = self.mru[set >> 6] & 1 << (set & 63) != 0;
        let pair = &mut self.entries.chunk_mut(set * 2 / CHUNK)[set * 2 % CHUNK..][..2];
        // Way choice: matching tag, then an empty way, then the LRU
        // victim.
        let way = if pair[0].tag == pc {
            0
        } else if pair[1].tag == pc {
            1
        } else if pair[0].tag == TAG_EMPTY {
            0
        } else if pair[1].tag == TAG_EMPTY {
            1
        } else if mru_way1 {
            0 // way 1 is MRU: evict way 0
        } else {
            1
        };
        pair[way] = entry;
        self.mark_mru(set, way);
    }

    /// Whether a write of `len` bytes at `addr` overlaps any cached
    /// instruction (the self-modifying-code check on the store path).
    #[must_use]
    pub(crate) fn covers(&self, addr: u32, len: u32) -> bool {
        // Empty cache has lo > hi, which can never satisfy both bounds.
        addr <= self.hi && addr.saturating_add(len.max(1) - 1) >= self.lo
    }
}

// ---------------------------------------------------------------------
// Block cache
// ---------------------------------------------------------------------

/// Slot count of the block cache (direct-mapped on the block's start
/// address).
const BLOCK_SLOTS: usize = 512;

/// Longest recorded block, in instructions. Blocks need not end in a
/// branch: a run that reaches this cap is installed as-is and chains to
/// its fall-through successor.
pub(crate) const MAX_BLOCK_LEN: usize = 64;

/// Chain links kept per block: `(exit pc, successor slot)` hints. Two
/// cover the common conditional-branch shape (taken target and
/// fall-through).
const BLOCK_LINKS: usize = 2;

/// Marker for an unset chain link.
const LINK_EMPTY: (u32, u16) = (TAG_EMPTY, u16::MAX);

/// Block-level counters (merged into [`PredecodeStats`] by the machine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BlockStats {
    pub built: u64,
    pub hits: u64,
    pub chain_follows: u64,
    pub budget_splits: u64,
    pub fused_pairs: u64,
    pub demotions: u64,
    pub threaded_instrs: u64,
    pub plans_free: u64,
    pub plans_refill: u64,
    pub plans_slow: u64,
}

/// One cached basic block: its threaded lowering, made once when the
/// block was recorded (`None` = empty slot). Shared (`Arc`) so the
/// dispatch loop can run it while the machine is mutably borrowed.
type Block = Option<Arc<ThreadedBlock>>;

/// A block slot's counters and chain hints: plain data, kept apart from
/// the [`Block`] because they change on every dispatch, so copying their
/// chunk on a fork's first dispatch takes no refcounts.
#[derive(Debug, Clone, Copy)]
struct BlockHeat {
    /// Chain hints: `(exit pc, successor slot)`. A hint is only a
    /// shortcut — the executor re-verifies the successor's start tag,
    /// so stale hints (evicted or cleared successors) fail safe.
    links: [(u32, u16); BLOCK_LINKS],
    /// Total dispatches of this slot's current block (self-loop rounds
    /// included) — the profiler's per-block heat. Reset with the slot.
    dispatches: u64,
}

impl Default for BlockHeat {
    fn default() -> BlockHeat {
        BlockHeat { links: [LINK_EMPTY; BLOCK_LINKS], dispatches: 0 }
    }
}

/// Block slots per copy-on-write chunk.
const BLOCK_CHUNK: usize = 32;

/// The basic-block cache. Invalidation mirrors [`Predecode`]: the same
/// generation stamp guards all blocks (a mismatch clears the table),
/// and a watermark over every cached block's byte range feeds the
/// store-path self-modifying-code check. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct BlockCache {
    /// [`BLOCK_SLOTS`] block slots in copy-on-write chunks.
    blocks: CowTable<Block, BLOCK_CHUNK>,
    /// Each slot's counters and chain hints, chunked the same way.
    heat: CowTable<BlockHeat, BLOCK_CHUNK>,
    stamp: u64,
    /// Watermark over cached block bytes (inclusive; `lo > hi` = empty).
    /// Kept separately from the instruction cache's watermark because
    /// the two levels clear independently.
    lo: u32,
    hi: u32,
    enabled: bool,
    pub(crate) stats: BlockStats,
}

impl BlockCache {
    pub(crate) fn new(enabled: bool) -> BlockCache {
        BlockCache {
            blocks: CowTable::new(),
            heat: CowTable::new(),
            stamp: 0,
            lo: u32::MAX,
            hi: 0,
            enabled,
            stats: BlockStats::default(),
        }
    }

    /// Whether block recording and dispatch are enabled.
    #[must_use]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.drop_blocks();
    }

    fn slot(pc: u32) -> usize {
        (pc >> 1) as usize & (BLOCK_SLOTS - 1)
    }

    fn drop_blocks(&mut self) {
        let demoted = self.blocks.slots().filter(|(_, b)| b.is_some()).count();
        self.stats.demotions += demoted as u64;
        self.blocks.clear();
        self.heat.clear();
        self.lo = u32::MAX;
        self.hi = 0;
    }

    /// Looks up the block starting at `pc` under generation `stamp`,
    /// returning its slot. A stamp change clears the table first.
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32, stamp: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.stamp != stamp {
            self.drop_blocks();
            self.stamp = stamp;
            return None;
        }
        self.probe(pc)
    }

    /// Probes for the block starting at `pc` without stamp validation
    /// (the caller has already validated this pass's stamp).
    #[inline]
    pub(crate) fn probe(&self, pc: u32) -> Option<usize> {
        let slot = BlockCache::slot(pc);
        match self.blocks.get(slot) {
            Some(Some(b)) if b.start == pc => Some(slot),
            _ => None,
        }
    }

    /// The block's threaded code (cheap `Arc` clone).
    ///
    /// # Panics
    ///
    /// Panics on an empty slot.
    #[inline]
    pub(crate) fn get(&self, slot: usize) -> Arc<ThreadedBlock> {
        let block = self.blocks.get(slot).and_then(Option::as_ref);
        Arc::clone(block.expect("occupied block slot"))
    }

    /// Whether a block recorded under generation `stamp` would be
    /// installed — checked before the lowering is built.
    #[must_use]
    pub(crate) fn accepts(&self, stamp: u64) -> bool {
        self.enabled && self.stamp == stamp
    }

    /// Installs a block recorded under generation `stamp`, counting its
    /// fused pairs and fetch plans. Overwriting an occupied slot counts
    /// a demotion.
    pub(crate) fn insert(&mut self, stamp: u64, tb: ThreadedBlock) {
        if !self.accepts(stamp) {
            return;
        }
        self.lo = self.lo.min(tb.start);
        self.hi = self.hi.max(tb.end.wrapping_sub(1));
        self.stats.built += 1;
        self.stats.fused_pairs += u64::from(tb.fused);
        self.stats.plans_free += u64::from(tb.plans_free);
        self.stats.plans_refill += u64::from(tb.plans_refill);
        self.stats.plans_slow += u64::from(tb.plans_slow);
        let slot = BlockCache::slot(tb.start);
        let block = self.blocks.get_mut(slot);
        self.stats.demotions += u64::from(block.is_some());
        *block = Some(Arc::new(tb));
        *self.heat.get_mut(slot) = BlockHeat::default();
    }

    /// Follows `slot`'s chain hint for an exit at `pc`, verifying that
    /// the hinted successor still starts there.
    #[inline]
    pub(crate) fn follow(&self, slot: usize, pc: u32) -> Option<usize> {
        for &(exit, succ) in &self.heat.get(slot)?.links {
            if exit == pc {
                let s = succ as usize;
                if matches!(self.blocks.get(s), Some(Some(b)) if b.start == pc) {
                    return Some(s);
                }
                return None;
            }
        }
        None
    }

    /// Records the chain hint `exit pc -> successor slot` on `slot`,
    /// evicting the older hint when both are taken.
    pub(crate) fn link(&mut self, slot: usize, pc: u32, succ: usize) {
        let links = &mut self.heat.get_mut(slot).links;
        let pos = links
            .iter()
            .position(|&(exit, _)| exit == pc || exit == TAG_EMPTY)
            .unwrap_or(BLOCK_LINKS - 1);
        // Keep the most recent hint in front so `follow` finds the hot
        // exit first.
        links[pos] = links[0];
        links[0] = (pc, succ as u16);
    }

    /// Whether a write of `len` bytes at `addr` overlaps any cached
    /// block (the store-path self-modifying-code check, alongside
    /// [`Predecode::covers`]).
    #[must_use]
    pub(crate) fn covers(&self, addr: u32, len: u32) -> bool {
        addr <= self.hi && addr.saturating_add(len.max(1) - 1) >= self.lo
    }

    /// The block's start address (valid for occupied slots).
    #[inline]
    pub(crate) fn block_start(&self, slot: usize) -> u32 {
        match self.blocks.get(slot) {
            Some(Some(b)) => b.start,
            _ => TAG_EMPTY,
        }
    }

    /// Charges `n` dispatches to the slot's per-block profile counter.
    #[inline]
    pub(crate) fn note_dispatch(&mut self, slot: usize, n: u64) {
        self.heat.get_mut(slot).dispatches += n;
    }

    /// Per-block profile of every occupied slot:
    /// `(start, instruction count, dispatches, fused pairs)`.
    /// Unsorted — callers rank by whatever axis they report.
    pub(crate) fn profile(&self) -> Vec<(u32, u32, u64, u32)> {
        self.blocks
            .slots()
            .filter_map(|(slot, b)| {
                let b = b.as_ref()?;
                let dispatches = self.heat.get(slot).map_or(0, |h| h.dispatches);
                Some((b.start, b.len, dispatches, b.fused))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pc: u32, size: u32) -> Entry {
        Entry::decoded(pc, Instr::Nop, size, 0)
    }

    #[test]
    fn miss_then_hit() {
        let mut p = Predecode::new(true);
        assert!(p.lookup(0x100, 5).is_none()); // first lookup sets stamp
        p.insert(0x100, 5, entry(0x100, 2));
        assert!(p.lookup(0x100, 5).is_some());
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn stamp_change_clears() {
        let mut p = Predecode::new(true);
        p.lookup(0x100, 1);
        p.insert(0x100, 1, entry(0x100, 2));
        assert!(p.lookup(0x100, 2).is_none(), "new stamp invalidates");
        assert!(p.lookup(0x100, 2).is_none(), "entry really gone");
        assert_eq!(p.stats().invalidations, 2, "construction stamp 0 -> 1 -> 2");
    }

    #[test]
    fn stale_insert_is_dropped() {
        let mut p = Predecode::new(true);
        p.lookup(0x100, 1);
        p.insert(0x100, 2, entry(0x100, 2)); // filled under a newer stamp
        assert!(p.lookup(0x100, 1).is_none());
    }

    #[test]
    fn disabled_never_hits() {
        let mut p = Predecode::new(false);
        p.insert(0x100, 0, entry(0x100, 2));
        assert!(p.lookup(0x100, 0).is_none());
        assert_eq!(p.stats().hits, 0);
    }

    #[test]
    fn watermark_covers_cached_range_only() {
        let mut p = Predecode::new(true);
        p.lookup(0x100, 1);
        assert!(!p.covers(0x100, 4), "empty cache covers nothing");
        p.insert(0x100, 1, entry(0x100, 4));
        p.insert(0x200, 1, entry(0x200, 2));
        assert!(p.covers(0x100, 1));
        assert!(p.covers(0x103, 1));
        assert!(p.covers(0x201, 1));
        assert!(p.covers(0xFE, 8), "straddling write detected");
        assert!(!p.covers(0x202, 4));
        assert!(!p.covers(0, 0x100));
    }

    #[test]
    fn two_way_holds_a_pair_of_aliases() {
        // Two addresses mapping to the same set coexist — the
        // main-loop/handler aliasing case.
        let mut p = Predecode::new(true);
        p.lookup(0x100, 1);
        let alias = 0x100 + 2 * SETS as u32;
        p.insert(0x100, 1, entry(0x100, 2));
        p.insert(alias, 1, entry(alias, 2));
        assert!(p.lookup(0x100, 1).is_some(), "way 0 survives");
        assert!(p.lookup(alias, 1).is_some(), "way 1 coexists");
    }

    #[test]
    fn two_way_evicts_the_lru_way() {
        let mut p = Predecode::new(true);
        p.lookup(0x100, 1);
        let a = 0x100;
        let b = a + 2 * SETS as u32;
        let c = b + 2 * SETS as u32;
        p.insert(a, 1, entry(a, 2));
        p.insert(b, 1, entry(b, 2));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(p.lookup(a, 1).is_some());
        p.insert(c, 1, entry(c, 2));
        assert!(p.lookup(a, 1).is_some(), "MRU way kept");
        assert!(p.lookup(b, 1).is_none(), "LRU way evicted");
        assert!(p.lookup(c, 1).is_some());
    }

    /// Lowers a straight run of `nop`s starting at `start`.
    fn run(start: u32, sizes: &[u32]) -> ThreadedBlock {
        let mut pc = start;
        let entries: Vec<Entry> = sizes
            .iter()
            .map(|&size| {
                let e = entry(pc, size);
                pc += size;
                e
            })
            .collect();
        crate::threaded::build(start, &entries, &crate::Machine::m3_like())
            .expect("a recorded run lowers")
    }

    #[test]
    fn block_miss_insert_hit() {
        let mut b = BlockCache::new(true);
        assert!(b.lookup(0x100, 5).is_none());
        b.insert(5, run(0x100, &[2, 4]));
        let slot = b.lookup(0x100, 5).expect("block cached");
        assert_eq!(b.get(slot).len, 2);
        assert_eq!(b.stats.built, 1);
    }

    #[test]
    fn block_stamp_change_clears() {
        let mut b = BlockCache::new(true);
        b.lookup(0x100, 1);
        b.insert(1, run(0x100, &[2]));
        assert!(b.lookup(0x100, 2).is_none(), "new stamp invalidates");
        assert!(b.lookup(0x100, 2).is_none(), "block really gone");
        assert!(!b.covers(0x100, 2), "watermark cleared with the blocks");
        assert_eq!(b.stats.demotions, 1, "the cleared block counts as demoted");
    }

    #[test]
    fn block_empty_runs_are_rejected() {
        let m = crate::Machine::m3_like();
        assert!(
            crate::threaded::build(0x100, &[], &m).is_none(),
            "empty blocks would never advance"
        );
    }

    #[test]
    fn block_watermark_covers_cached_ranges() {
        let mut b = BlockCache::new(true);
        b.lookup(0x100, 1);
        assert!(!b.covers(0x100, 4));
        b.insert(1, run(0x100, &[4, 4]));
        assert!(b.covers(0x106, 1));
        assert!(b.covers(0xFE, 8), "straddling write detected");
        assert!(!b.covers(0x108, 4));
    }

    #[test]
    fn block_chain_links_verify_their_successor() {
        let mut b = BlockCache::new(true);
        b.lookup(0x100, 1);
        b.insert(1, run(0x100, &[4]));
        b.insert(1, run(0x200, &[4]));
        let a = b.probe(0x100).unwrap();
        let c = b.probe(0x200).unwrap();
        assert!(b.follow(a, 0x200).is_none(), "no hint yet");
        b.link(a, 0x200, c);
        assert_eq!(b.follow(a, 0x200), Some(c));
        // Evict the successor's slot with an aliasing block: the stale
        // hint must fail the start-tag verify instead of dispatching it.
        let alias = 0x200 + 2 * BLOCK_SLOTS as u32;
        b.insert(1, run(alias, &[4]));
        assert!(b.follow(a, 0x200).is_none(), "stale link fails safe");
        assert_eq!(b.stats.demotions, 1, "the evicted block counts as demoted");
    }

    #[test]
    fn block_links_keep_the_two_hottest_exits() {
        let mut b = BlockCache::new(true);
        b.lookup(0x100, 1);
        for start in [0x100, 0x200, 0x300, 0x400] {
            b.insert(1, run(start, &[4]));
        }
        let a = b.probe(0x100).unwrap();
        b.link(a, 0x200, b.probe(0x200).unwrap());
        b.link(a, 0x300, b.probe(0x300).unwrap());
        assert!(b.follow(a, 0x200).is_some());
        assert!(b.follow(a, 0x300).is_some());
        b.link(a, 0x400, b.probe(0x400).unwrap());
        assert!(b.follow(a, 0x400).is_some(), "newest hint kept");
        assert!(b.follow(a, 0x300).is_some(), "previous front demoted, kept");
        assert!(b.follow(a, 0x200).is_none(), "oldest hint evicted");
    }

    #[test]
    fn disabled_block_cache_never_hits() {
        let mut b = BlockCache::new(false);
        b.insert(0, run(0x100, &[2]));
        assert!(b.lookup(0x100, 0).is_none());
    }
}
