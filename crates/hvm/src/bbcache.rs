//! Decoded basic-block cache (DESIGN.md §12).
//!
//! Every retired instruction pays fetch → decode → dispatch through
//! [`crate::Cpu::step`]; for hot loops that is almost pure interpreter
//! overhead — the simulated cost model charges the same either way, but
//! host wall-time does not. A [`BbCache`] memoizes straight-line decoded
//! [`Instr`] runs ("basic blocks"): decoded once, executed many times via
//! [`crate::Cpu::run_block`], which replays the *exact* per-instruction
//! semantics (translation, protection, residency, monitor visibility)
//! through [`crate::Bus::fetch_check`] at block entry and
//! [`crate::Bus::fetch_recheck`] for the rest of the block, while
//! skipping the byte fetch and decode.
//!
//! The cache is owned by whoever owns the address space (in Hemlock, one
//! per `AddressSpace`, so the `asid` tag is implicit in ownership and
//! recorded only for observability). Blocks are keyed by entry PC and
//! validated with three stamps, checked on every lookup:
//!
//! * a per-virtual-page **generation** (`gens`), bumped whenever the
//!   owning layer invalidates that page — the same events that
//!   invalidate a TLB entry;
//! * a cache-wide **flush epoch**, bumped on whole-cache flushes and on
//!   generation wraparound (so a wrapped generation can never alias a
//!   stale block — no ABA);
//! * for blocks decoded out of a shared file page, the file's
//!   **write epoch** for that page (supplied by the caller at lookup
//!   time), so a store by *another* process into shared text is caught
//!   lazily at the next block entry.
//!
//! Invalidation is otherwise eager: the owner calls
//! [`BbCache::invalidate_vpns`] / [`BbCache::invalidate_src_page`] /
//! [`BbCache::flush`] at the event, dropped blocks are counted once, and
//! an entry is appended to a drainable journal only when blocks were
//! actually dropped (so a disabled or empty cache journals nothing).
//!
//! A separate **store epoch** supports mid-block self-modification: the
//! bus bumps it when a guest store could alter executable bytes, and
//! [`crate::Cpu::run_block`] re-checks it before each instruction,
//! aborting the block (correct PC, nothing lost) so the caller re-enters
//! through a fresh lookup.

use crate::isa::Instr;
use std::collections::HashMap;
use std::sync::Arc;

/// Longest decoded run a single block may hold. Blocks also never cross
/// a page boundary (page-granular invalidation must be able to kill any
/// block by its entry page alone).
pub const MAX_BLOCK_LEN: usize = 64;

/// Whole-cache flush threshold: translation caches classically flush
/// and rebuild rather than evict piecemeal.
pub const MAX_BLOCKS: usize = 8192;

/// True for instructions that end a basic block: everything that can
/// redirect control flow or trap to the kernel (TAS spin-locks trap via
/// `Syscall`, so they are covered). The terminator is *included* in its
/// block — a backward branch at the end of a hot loop makes the whole
/// loop body one block per iteration.
pub fn is_terminator(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Beq { .. }
            | Instr::Bne { .. }
            | Instr::Blez { .. }
            | Instr::Bgtz { .. }
            | Instr::Bltz { .. }
            | Instr::Bgez { .. }
            | Instr::J { .. }
            | Instr::Jal { .. }
            | Instr::Jr { .. }
            | Instr::Jalr { .. }
            | Instr::Syscall
            | Instr::Break { .. }
    )
}

/// Decodes a straight-line run from `bytes` (little-endian words,
/// starting at the block's entry PC, ending at the page boundary).
/// Stops after a terminator, before an undecodable word, or at
/// [`MAX_BLOCK_LEN`]. An empty result means the very first word does
/// not decode — the caller should fall back to `step`, which will
/// surface the exact `IllegalInstruction` fault.
pub fn decode_run(bytes: &[u8]) -> Vec<Instr> {
    let mut out = Vec::new();
    for chunk in bytes.chunks_exact(4).take(MAX_BLOCK_LEN) {
        let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let Ok(instr) = crate::decode::decode(word) else {
            break;
        };
        let term = is_terminator(&instr);
        out.push(instr);
        if term {
            break;
        }
    }
    out
}

/// Cache counters. `entries` counts block *entries* (each is either a
/// hit or a fresh build, so `hits + built == entries` always); it is
/// internal bookkeeping — `WorldStats` exports only the other three.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BbStats {
    /// Blocks decoded and inserted.
    pub built: u64,
    /// Lookups satisfied by a valid cached block.
    pub hits: u64,
    /// Cached blocks dropped by an invalidation event (each built block
    /// is dropped at most once, so `invalidations <= built`).
    pub invalidations: u64,
    /// Block entries (`hits + built`).
    pub entries: u64,
}

impl BbStats {
    /// Accumulates another counter set (reaping a dead space's cache).
    pub fn accumulate(&mut self, other: BbStats) {
        self.built += other.built;
        self.hits += other.hits;
        self.invalidations += other.invalidations;
        self.entries += other.entries;
    }
}

/// One journaled invalidation event: `blocks` dropped at `addr`
/// (page-aligned; 0 for whole-cache events) for `cause`. Only events
/// that dropped at least one block are journaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BbInvalidation {
    pub addr: u32,
    pub blocks: u64,
    pub cause: &'static str,
}

/// A deterministic, dependency-free hasher for the cache's small
/// integer keys (entry PCs, page numbers). The default `HashMap` hasher
/// is SipHash with a per-process random seed — ~20 ns per lookup, paid
/// once per *block dispatch* on the hot path, and nondeterministic
/// across runs for no benefit here (keys are guest-controlled only in
/// the sense that the guest picks its own PCs; a worst-case probe chain
/// costs the guest, not the host). A Murmur3-style finalizer over the
/// raw key mixes well enough for page-aligned PCs.
#[derive(Clone, Copy, Default)]
struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(n);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(31) ^ n;
    }
}

type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

#[derive(Clone, Debug)]
struct CachedBlock {
    gen: u32,
    flush_epoch: u64,
    /// `(ino, file_page, write_epoch_at_build)` when the block was
    /// decoded from a shared file page.
    src: Option<(u32, u32, u64)>,
    /// The caller's global content stamp when `src` was last validated
    /// (at build, or at the last [`BbCache::lookup`] that re-checked
    /// the page epoch). While the global stamp still equals this, no
    /// file byte anywhere has changed, so the per-page epoch query can
    /// be skipped — the hot-path win for shared text, where every
    /// dispatch would otherwise walk the epoch maps.
    verified_at: u64,
    code: Arc<[Instr]>,
}

/// Slots in the direct-mapped dispatch front-end (see [`BbCache::l1`]).
const L1_SLOTS: usize = 512;

/// One entry of the dispatch front-end: a `lookup` result plus the two
/// stamps that prove the result is still what `lookup` would return —
/// the cache's own mutation stamp, and (for shared-text blocks) the
/// caller's global file-content stamp.
#[derive(Clone, Debug)]
struct L1Slot {
    pc: u32,
    mutation: u64,
    fs_stamp: u64,
    is_src: bool,
    code: Arc<[Instr]>,
}

/// A per-address-space decoded basic-block cache. See the module docs
/// for the validation protocol.
#[derive(Clone, Debug)]
pub struct BbCache {
    enabled: bool,
    asid: u32,
    page_size: u32,
    blocks: FastMap<u32, CachedBlock>,
    /// Entry PCs per virtual page number, for page-granular drops.
    by_page: FastMap<u32, Vec<u32>>,
    /// Per-page generation stamps (absent ⇒ 0).
    gens: FastMap<u32, u32>,
    flush_epoch: u64,
    store_epoch: u64,
    /// Entry PCs per shared source `(ino, file_page)`.
    src_pages: FastMap<(u32, u32), Vec<u32>>,
    /// Bumped by every operation that could change what `lookup` would
    /// return for *any* pc — each entry of the dispatcher's two-entry
    /// memo is valid only while this stands still (see [`BbCache::mutation_stamp`]).
    mutation: u64,
    /// Direct-mapped dispatch front-end over `blocks`. Call-heavy guest
    /// code cycles through many short blocks; re-dispatching each one
    /// through the map (hash, probe, validate) costs more than running
    /// it. A slot short-circuits `lookup` for a pc whose result
    /// provably has not changed: the mutation stamp covers every drop,
    /// insert, and generation movement, and the fs stamp covers shared
    /// text going stale under a cross-process store. Stale slots are
    /// never evicted eagerly — their stamp comparison just fails and
    /// the full `lookup` path refreshes them.
    l1: Vec<Option<L1Slot>>,
    stats: BbStats,
    journal: Vec<BbInvalidation>,
}

impl Default for BbCache {
    fn default() -> BbCache {
        BbCache::new(4096)
    }
}

impl BbCache {
    /// An empty, *disabled* cache (the owner opts pages in by calling
    /// [`BbCache::configure`]; a disabled cache never builds, never
    /// journals, and costs two branches per would-be hook).
    pub fn new(page_size: u32) -> BbCache {
        BbCache {
            enabled: false,
            asid: 0,
            page_size,
            blocks: FastMap::default(),
            by_page: FastMap::default(),
            gens: FastMap::default(),
            flush_epoch: 0,
            store_epoch: 0,
            src_pages: FastMap::default(),
            mutation: 0,
            l1: vec![None; L1_SLOTS],
            stats: BbStats::default(),
            journal: Vec::new(),
        }
    }

    /// The dispatch front-end's slot index for `pc`: a multiplicative
    /// hash, because module text repeats at page-aligned offsets and a
    /// plain low-bits index would collide every module's blocks.
    fn l1_index(pc: u32) -> usize {
        ((pc >> 2).wrapping_mul(0x9E37_79B9) >> 23) as usize & (L1_SLOTS - 1)
    }

    /// An empty cache with this one's configuration (fork children and
    /// `Clone` start cold, like their TLBs).
    pub fn fresh_like(&self) -> BbCache {
        let mut fresh = BbCache::new(self.page_size);
        fresh.enabled = self.enabled;
        fresh.asid = self.asid;
        fresh
    }

    /// Tags the cache with its address-space id and switches it on or
    /// off. Disabling clears silently (nothing is observable about a
    /// cache that is not in use).
    pub fn configure(&mut self, asid: u32, enabled: bool) {
        self.asid = asid;
        if !enabled {
            self.clear_silent();
        }
        self.enabled = enabled;
        self.mutation += 1;
    }

    /// A stamp covering every mutation that could change what
    /// [`BbCache::lookup`] returns for any pc: inserts, drops (eager or
    /// lazy), generation movement, flushes, enable toggles, and store
    /// epoch bumps. A dispatcher may memoize one `lookup` result and
    /// reuse it — calling [`BbCache::count_hit`] instead — strictly
    /// while this stamp stands still.
    pub fn mutation_stamp(&self) -> u64 {
        self.mutation
    }

    /// Accounts a dispatch served from a memoized [`BbCache::lookup`]
    /// result (same stamp discipline as a real hit, without the map
    /// walk), keeping `hits + built == entries` exact.
    pub fn count_hit(&mut self) {
        self.stats.hits += 1;
        self.stats.entries += 1;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn asid(&self) -> u32 {
        self.asid
    }

    pub fn stats(&self) -> BbStats {
        self.stats
    }

    /// Monotonic stamp bumped by stores that could alter executable
    /// bytes; [`crate::Cpu::run_block`] aborts its block when it moves.
    pub fn store_epoch(&self) -> u64 {
        self.store_epoch
    }

    pub fn bump_store_epoch(&mut self) {
        self.store_epoch += 1;
        self.mutation += 1;
    }

    /// True if any cached block was decoded from shared `(ino, fpage)`.
    pub fn has_src_page(&self, ino: u32, fpage: u32) -> bool {
        self.src_pages.contains_key(&(ino, fpage))
    }

    fn vpn(&self, addr: u32) -> u32 {
        addr / self.page_size
    }

    fn gen_of(&self, vp: u32) -> u32 {
        self.gens.get(&vp).copied().unwrap_or(0)
    }

    /// Looks up the block entered at `pc`. `src_epoch(ino, fpage)` must
    /// return the backing file page's current write epoch — a mismatch
    /// against the build-time stamp means some process stored into that
    /// shared text since, and the block is dropped (counted, journaled)
    /// as if the invalidation had been delivered eagerly.
    ///
    /// `fs_stamp` is the caller's global content stamp (monotonic;
    /// unchanged ⇒ no file byte changed anywhere). It only gates the
    /// *optimization*: while it equals the block's last validation
    /// stamp the `src_epoch` query is provably redundant and skipped —
    /// which blocks get dropped, and when, is identical either way.
    pub fn lookup(
        &mut self,
        pc: u32,
        fs_stamp: u64,
        mut src_epoch: impl FnMut(u32, u32) -> u64,
    ) -> Option<Arc<[Instr]>> {
        if !self.enabled {
            return None;
        }
        let idx = Self::l1_index(pc);
        if let Some(slot) = &self.l1[idx] {
            if slot.pc == pc
                && slot.mutation == self.mutation
                && (!slot.is_src || slot.fs_stamp == fs_stamp)
            {
                let code = slot.code.clone();
                self.stats.hits += 1;
                self.stats.entries += 1;
                return Some(code);
            }
        }
        let vp = self.vpn(pc);
        let (cause, revalidated) = {
            let block = self.blocks.get(&pc)?;
            if block.flush_epoch != self.flush_epoch {
                (Some("gen-wrap"), false)
            } else if block.gen != self.gen_of(vp) {
                (Some("stale-gen"), false)
            } else if let Some((ino, fpage, stamp)) = block.src {
                if block.verified_at == fs_stamp {
                    (None, false)
                } else if src_epoch(ino, fpage) != stamp {
                    (Some("shared-store"), false)
                } else {
                    (None, true)
                }
            } else {
                (None, false)
            }
        };
        if let Some(cause) = cause {
            self.remove_block(pc);
            self.note_dropped(vp * self.page_size, 1, cause);
            return None;
        }
        if revalidated {
            // Bless the block up to the current stamp (host-side
            // bookkeeping only — observably a plain hit either way).
            self.blocks.get_mut(&pc).expect("checked above").verified_at = fs_stamp;
        }
        self.stats.hits += 1;
        self.stats.entries += 1;
        let block = &self.blocks[&pc];
        let code = block.code.clone();
        self.l1[idx] = Some(L1Slot {
            pc,
            mutation: self.mutation,
            fs_stamp,
            is_src: block.src.is_some(),
            code: code.clone(),
        });
        Some(code)
    }

    /// Inserts a freshly decoded block entered at `pc`. `src` carries
    /// `(ino, file_page, write_epoch)` when the bytes came from a
    /// shared file page; `fs_stamp` is the global content stamp the
    /// bytes were read under (see [`BbCache::lookup`]). At
    /// [`MAX_BLOCKS`] the whole cache is flushed first (counted,
    /// journaled as `"capacity"`).
    pub fn insert(
        &mut self,
        pc: u32,
        code: Arc<[Instr]>,
        src: Option<(u32, u32, u64)>,
        fs_stamp: u64,
    ) {
        if !self.enabled {
            return;
        }
        if self.blocks.len() >= MAX_BLOCKS {
            self.flush(Some("capacity"));
        }
        self.remove_block(pc); // replacing never double-counts pages
        let vp = self.vpn(pc);
        self.by_page.entry(vp).or_default().push(pc);
        if let Some((ino, fpage, _)) = src {
            self.src_pages.entry((ino, fpage)).or_default().push(pc);
        }
        self.blocks.insert(
            pc,
            CachedBlock {
                gen: self.gen_of(vp),
                flush_epoch: self.flush_epoch,
                src,
                verified_at: fs_stamp,
                code,
            },
        );
        self.stats.built += 1;
        self.stats.entries += 1;
        self.mutation += 1;
    }

    /// Drops all blocks on `pages` virtual pages starting at `first`,
    /// bumping each touched page's generation. Returns blocks dropped.
    pub fn invalidate_vpns(&mut self, first: u32, pages: u32, cause: &'static str) -> u64 {
        if !self.enabled || self.blocks.is_empty() {
            return 0;
        }
        let mut dropped = 0u64;
        for vp in first..first.saturating_add(pages) {
            let Some(pcs) = self.by_page.remove(&vp) else {
                continue;
            };
            for pc in pcs {
                if let Some(block) = self.blocks.remove(&pc) {
                    self.unindex_src(pc, &block);
                    dropped += 1;
                }
            }
            self.bump_gen(vp);
        }
        if dropped > 0 {
            self.note_dropped(first * self.page_size, dropped, cause);
        }
        dropped
    }

    /// [`BbCache::invalidate_vpns`] for a single page.
    pub fn invalidate_page(&mut self, vp: u32, cause: &'static str) -> u64 {
        self.invalidate_vpns(vp, 1, cause)
    }

    /// Drops every block decoded from shared `(ino, fpage)` — the
    /// store-to-shared-text path, where the writer may have mapped the
    /// page at a different virtual address than the blocks did.
    pub fn invalidate_src_page(&mut self, ino: u32, fpage: u32, cause: &'static str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let Some(pcs) = self.src_pages.remove(&(ino, fpage)) else {
            return 0;
        };
        let mut dropped = 0u64;
        let mut lowest = u32::MAX;
        for pc in pcs {
            if let Some(block) = self.blocks.remove(&pc) {
                let vp = self.vpn(pc);
                if let Some(list) = self.by_page.get_mut(&vp) {
                    list.retain(|&p| p != pc);
                    if list.is_empty() {
                        self.by_page.remove(&vp);
                    }
                }
                self.bump_gen(vp);
                lowest = lowest.min(pc);
                drop(block);
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.note_dropped(lowest & !(self.page_size - 1), dropped, cause);
        }
        dropped
    }

    /// Drops everything. With `Some(cause)` the drop is counted and
    /// journaled (when non-empty); `None` is the silent teardown path
    /// (exit/surrender — lazy ASID-style reuse, like the uncounted TLB
    /// flush on the same path). Returns blocks dropped.
    pub fn flush(&mut self, cause: Option<&'static str>) -> u64 {
        let n = self.blocks.len() as u64;
        self.clear_silent();
        if n > 0 {
            if let Some(cause) = cause {
                self.note_dropped(0, n, cause);
            }
        }
        n
    }

    /// Drains the invalidation journal (in event order).
    pub fn drain_journal(&mut self) -> Vec<BbInvalidation> {
        std::mem::take(&mut self.journal)
    }

    pub fn journal_is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// Test hook: pins a page's generation (and restamps its cached
    /// blocks to match) so wraparound is reachable without 2^32 events.
    #[doc(hidden)]
    pub fn force_gen(&mut self, vp: u32, gen: u32) {
        self.mutation += 1;
        self.gens.insert(vp, gen);
        if let Some(pcs) = self.by_page.get(&vp) {
            for pc in pcs {
                if let Some(block) = self.blocks.get_mut(pc) {
                    block.gen = gen;
                }
            }
        }
    }

    #[doc(hidden)]
    pub fn flush_epoch(&self) -> u64 {
        self.flush_epoch
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    fn clear_silent(&mut self) {
        self.mutation += 1;
        self.blocks.clear();
        self.by_page.clear();
        self.src_pages.clear();
        self.gens.clear();
        self.flush_epoch += 1;
    }

    /// Bumps a page generation; on wraparound to 0 the flush epoch
    /// advances instead of risking ABA against a still-cached stamp.
    fn bump_gen(&mut self, vp: u32) {
        self.mutation += 1;
        let next = self.gen_of(vp).wrapping_add(1);
        if next == 0 {
            self.flush_epoch += 1;
            self.gens.remove(&vp);
        } else {
            self.gens.insert(vp, next);
        }
    }

    fn unindex_src(&mut self, pc: u32, block: &CachedBlock) {
        if let Some((ino, fpage, _)) = block.src {
            if let Some(list) = self.src_pages.get_mut(&(ino, fpage)) {
                list.retain(|&p| p != pc);
                if list.is_empty() {
                    self.src_pages.remove(&(ino, fpage));
                }
            }
        }
    }

    fn remove_block(&mut self, pc: u32) {
        self.mutation += 1;
        if let Some(block) = self.blocks.remove(&pc) {
            let vp = self.vpn(pc);
            if let Some(list) = self.by_page.get_mut(&vp) {
                list.retain(|&p| p != pc);
                if list.is_empty() {
                    self.by_page.remove(&vp);
                }
            }
            self.unindex_src(pc, &block);
        }
    }

    fn note_dropped(&mut self, addr: u32, blocks: u64, cause: &'static str) {
        self.stats.invalidations += blocks;
        self.journal.push(BbInvalidation {
            addr,
            blocks,
            cause,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::regs::Reg;

    fn words(instrs: &[Instr]) -> Vec<u8> {
        instrs
            .iter()
            .flat_map(|i| encode(*i).to_le_bytes())
            .collect()
    }

    fn block(n: usize) -> Arc<[Instr]> {
        vec![
            Instr::Addi {
                rt: Reg(8),
                rs: Reg(8),
                imm: 1
            };
            n
        ]
        .into()
    }

    fn armed() -> BbCache {
        let mut bb = BbCache::new(4096);
        bb.configure(1, true);
        bb
    }

    #[test]
    fn decode_run_stops_after_terminator() {
        let bytes = words(&[
            Instr::Addi {
                rt: Reg(8),
                rs: Reg(8),
                imm: 1,
            },
            Instr::Bne {
                rs: Reg(8),
                rt: Reg(9),
                imm: 0xFFFE,
            },
            Instr::Addi {
                rt: Reg(9),
                rs: Reg(9),
                imm: 2,
            },
        ]);
        let run = decode_run(&bytes);
        assert_eq!(run.len(), 2);
        assert!(is_terminator(&run[1]));
    }

    #[test]
    fn decode_run_stops_before_undecodable_word() {
        let mut bytes = words(&[Instr::Addi {
            rt: Reg(8),
            rs: Reg(8),
            imm: 1,
        }]);
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        assert_eq!(decode_run(&bytes).len(), 1);
        assert!(decode_run(&bytes[4..]).is_empty());
    }

    #[test]
    fn hit_and_build_counters_reconcile_with_entries() {
        let mut bb = armed();
        assert!(bb.lookup(0x1000, 0, |_, _| 0).is_none());
        bb.insert(0x1000, block(3), None, 0);
        assert!(bb.lookup(0x1000, 0, |_, _| 0).is_some());
        assert!(bb.lookup(0x1000, 0, |_, _| 0).is_some());
        let s = bb.stats();
        assert_eq!((s.built, s.hits, s.entries), (1, 2, 3));
        assert_eq!(s.built + s.hits, s.entries);
    }

    #[test]
    fn page_invalidation_drops_and_journals_only_real_work() {
        let mut bb = armed();
        assert_eq!(bb.invalidate_page(1, "unmap"), 0);
        assert!(bb.journal_is_empty(), "empty cache never journals");
        bb.insert(0x1000, block(1), None, 0);
        bb.insert(0x1008, block(1), None, 0);
        bb.insert(0x2000, block(1), None, 0);
        assert_eq!(bb.invalidate_page(1, "unmap"), 2);
        assert!(bb.lookup(0x1000, 0, |_, _| 0).is_none());
        assert!(bb.lookup(0x2000, 0, |_, _| 0).is_some(), "neighbor stays");
        let j = bb.drain_journal();
        assert_eq!(j.len(), 1);
        assert_eq!((j[0].addr, j[0].blocks, j[0].cause), (0x1000, 2, "unmap"));
        assert!(bb.stats().invalidations <= bb.stats().built);
    }

    #[test]
    fn shared_src_epoch_mismatch_drops_lazily() {
        let mut bb = armed();
        bb.insert(0x1000, block(1), Some((7, 2, 10)), 1);
        assert!(bb.lookup(0x1000, 2, |_, _| 10).is_some());
        assert!(bb.lookup(0x1000, 3, |_, _| 11).is_none(), "stale epoch");
        let j = bb.drain_journal();
        assert_eq!(j.len(), 1);
        assert_eq!(j[0].cause, "shared-store");
        assert_eq!(bb.stats().invalidations, 1);
    }

    #[test]
    fn unmoved_content_stamp_skips_the_epoch_query() {
        let mut bb = armed();
        bb.insert(0x1000, block(1), Some((7, 2, 10)), 5);
        // Same global stamp as the build: no file byte changed anywhere,
        // so the per-page epoch must not even be consulted.
        assert!(bb
            .lookup(0x1000, 5, |_, _| panic!("epoch queried needlessly"))
            .is_some());
        // A moved stamp re-checks (and blesses up to the new stamp)...
        assert!(bb.lookup(0x1000, 6, |_, _| 10).is_some());
        // ...after which the new stamp skips again.
        assert!(bb
            .lookup(0x1000, 6, |_, _| panic!("epoch queried after bless"))
            .is_some());
        // And a real epoch movement still drops the block.
        assert!(bb.lookup(0x1000, 7, |_, _| 11).is_none());
        assert_eq!(bb.drain_journal()[0].cause, "shared-store");
    }

    #[test]
    fn src_page_invalidation_finds_blocks_by_backing_page() {
        let mut bb = armed();
        bb.insert(0x1000, block(1), Some((7, 2, 0)), 0);
        bb.insert(0x5000, block(1), Some((7, 3, 0)), 0);
        assert!(bb.has_src_page(7, 2));
        assert_eq!(bb.invalidate_src_page(7, 2, "store-shared-text"), 1);
        assert!(!bb.has_src_page(7, 2));
        assert!(bb.lookup(0x1000, 0, |_, _| 0).is_none());
        assert!(bb.lookup(0x5000, 0, |_, _| 0).is_some());
    }

    #[test]
    fn gen_wraparound_advances_flush_epoch_instead_of_aba() {
        let mut bb = armed();
        bb.insert(0x1000, block(1), None, 0);
        bb.insert(0x2000, block(1), None, 0);
        bb.force_gen(1, u32::MAX);
        let epoch = bb.flush_epoch();
        assert_eq!(bb.invalidate_page(1, "mprotect"), 1);
        assert_eq!(bb.flush_epoch(), epoch + 1, "wrap advances the epoch");
        // The untouched page's block predates the new epoch: dropped
        // lazily at lookup, counted as an invalidation.
        assert!(bb.lookup(0x2000, 0, |_, _| 0).is_none());
        assert_eq!(bb.stats().invalidations, 2);
        assert!(bb.stats().invalidations <= bb.stats().built);
        // A rebuilt block at the wrapped page validates fine.
        bb.insert(0x1000, block(1), None, 0);
        assert!(bb.lookup(0x1000, 0, |_, _| 0).is_some());
    }

    #[test]
    fn silent_flush_counts_nothing() {
        let mut bb = armed();
        bb.insert(0x1000, block(1), None, 0);
        assert_eq!(bb.flush(None), 1);
        assert_eq!(bb.stats().invalidations, 0);
        assert!(bb.journal_is_empty());
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut bb = BbCache::new(4096);
        bb.insert(0x1000, block(1), None, 0);
        assert!(bb.lookup(0x1000, 0, |_, _| 0).is_none());
        assert_eq!(bb.invalidate_page(1, "unmap"), 0);
        assert_eq!(bb.stats(), BbStats::default());
        assert!(bb.journal_is_empty());
    }

    #[test]
    fn disabling_clears_silently() {
        let mut bb = armed();
        bb.insert(0x1000, block(1), None, 0);
        bb.configure(1, false);
        assert!(bb.is_empty());
        assert_eq!(bb.stats().invalidations, 0);
        bb.configure(1, true);
        assert!(bb.lookup(0x1000, 0, |_, _| 0).is_none());
    }

    #[test]
    fn capacity_flush_is_counted() {
        let mut bb = armed();
        for i in 0..MAX_BLOCKS {
            bb.insert(0x1000 + (i as u32) * 8, block(1), None, 0);
        }
        assert_eq!(bb.len(), MAX_BLOCKS);
        bb.insert(0x9000_0000, block(1), None, 0);
        assert_eq!(bb.len(), 1);
        let j = bb.drain_journal();
        assert_eq!(j.last().map(|e| e.cause), Some("capacity"));
        assert_eq!(bb.stats().invalidations, MAX_BLOCKS as u64);
    }
}
