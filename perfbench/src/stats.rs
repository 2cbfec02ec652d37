//! Counters read through `World::stats()`, their per-op deltas, the
//! cost-model breakdown built from them, and order statistics.

use hemlock::{CostModel, World, WorldStats};
use std::ops::{AddAssign, Sub};

/// Every counter the report uses, read from one `World::stats()`. All
/// fields are monotonic within one world, so a per-op delta is
/// `after - before`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub sim_ns: u64,
    pub instructions: u64,
    pub syscalls: u64,
    pub segv_faults: u64,
    pub dispatches: u64,
    pub cow_copies: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub bblocks_built: u64,
    pub bblock_hits: u64,
    pub bblock_invalidations: u64,
    pub init_links: u64,
    pub lazy_links: u64,
    pub symbols_resolved: u64,
    pub symbols_unresolved: u64,
    pub resolve_cache_hits: u64,
    pub snapshot_hits: u64,
    pub snapshot_misses: u64,
    pub snapshot_invalidations: u64,
    pub snapshot_rebuilds: u64,
    pub priced_blocks: u64,
    pub lookups: u64,
    pub addr_probe_steps: u64,
    pub data_blocks_written: u64,
    pub integrity_blocks_written: u64,
    pub blocks_scrubbed: u64,
    pub blocks_repaired: u64,
    pub journal_replays: u64,
    pub recovery_ns: u64,
    pub page_evictions: u64,
    pub swap_io: u64,
    pub swap_ins: u64,
    pub ipis: u64,
    pub shootdowns: u64,
}

impl Counters {
    pub fn of(world: &World) -> Counters {
        let s = world.stats();
        let (data, integrity) = world.write_amplification();
        Counters {
            sim_ns: world.costs.time(&s).0,
            instructions: s.kernel.instructions,
            syscalls: s.kernel.syscalls + s.kernel.services,
            segv_faults: s.kernel.segv_faults,
            dispatches: s.kernel.dispatches,
            cow_copies: s.cow_copies,
            tlb_hits: s.tlb_hits,
            tlb_misses: s.tlb_misses,
            bblocks_built: s.bblocks_built,
            bblock_hits: s.bblock_hits,
            bblock_invalidations: s.bblock_invalidations,
            init_links: s.ldl.init_links,
            lazy_links: s.ldl.lazy_links,
            symbols_resolved: s.ldl.symbols_resolved,
            symbols_unresolved: s.ldl.symbols_unresolved,
            resolve_cache_hits: s.ldl.resolve_cache_hits,
            snapshot_hits: s.snapshot_hits,
            snapshot_misses: s.snapshot_misses,
            snapshot_invalidations: s.snapshot_invalidations,
            snapshot_rebuilds: s.snapshot_rebuilds,
            priced_blocks: blocks(&s),
            lookups: s.root_fs.lookups + s.shared_fs.lookups,
            addr_probe_steps: s.addr_probe_steps,
            data_blocks_written: data,
            integrity_blocks_written: integrity,
            blocks_scrubbed: s.blocks_scrubbed,
            blocks_repaired: s.blocks_repaired,
            journal_replays: s.journal_replays,
            recovery_ns: s.recovery_ns,
            page_evictions: s.page_evictions,
            swap_io: s.page_writebacks + s.swap_outs,
            swap_ins: s.swap_ins,
            ipis: s.ipis,
            shootdowns: s.shootdowns,
        }
    }

    /// The cost model's terms, in simulated ns, each a public counter
    /// times a public `CostModel` field. `CostModel::time` has no
    /// breakdown of its own, so this repeats its formula; the
    /// `unattributed` remainder reported next to it is nonzero exactly
    /// when the two have drifted apart.
    pub fn sim_terms(&self, m: &CostModel) -> [(&'static str, u64); 13] {
        [
            ("cpu", self.instructions * m.instruction_ns),
            ("syscall", self.syscalls * m.syscall_ns),
            ("fault", self.segv_faults * m.fault_ns),
            ("disk", self.priced_blocks * m.disk_block_ns),
            ("lookup", self.lookups * m.lookup_ns),
            ("probe", self.addr_probe_steps * m.probe_ns),
            (
                "resolve",
                (self.symbols_resolved + self.symbols_unresolved) * m.resolve_ns,
            ),
            ("cow", self.cow_copies * m.cow_ns),
            (
                "pressure",
                self.page_evictions * m.evict_ns
                    + self.swap_io * m.swap_io_ns
                    + self.swap_ins * m.swap_in_ns,
            ),
            (
                "smp",
                self.ipis * m.ipi_ns + self.shootdowns * m.shootdown_ns,
            ),
            ("recovery", self.recovery_ns),
            (
                "integrity",
                self.blocks_scrubbed * m.scrub_block_ns + self.blocks_repaired * m.repair_ns,
            ),
            (
                "snapshot",
                (self.snapshot_hits + self.snapshot_invalidations) * m.snapshot_validate_ns,
            ),
        ]
    }
}

fn blocks(s: &WorldStats) -> u64 {
    s.root_fs.blocks_read
        + s.root_fs.blocks_written
        + s.shared_fs.blocks_read
        + s.shared_fs.blocks_written
}

/// Applies `f` to every field pair; keeps `Sub` and `AddAssign` in step
/// with the field list above.
macro_rules! fieldwise {
    ($a:expr, $b:expr, $f:expr) => {
        Counters {
            sim_ns: $f($a.sim_ns, $b.sim_ns),
            instructions: $f($a.instructions, $b.instructions),
            syscalls: $f($a.syscalls, $b.syscalls),
            segv_faults: $f($a.segv_faults, $b.segv_faults),
            dispatches: $f($a.dispatches, $b.dispatches),
            cow_copies: $f($a.cow_copies, $b.cow_copies),
            tlb_hits: $f($a.tlb_hits, $b.tlb_hits),
            tlb_misses: $f($a.tlb_misses, $b.tlb_misses),
            bblocks_built: $f($a.bblocks_built, $b.bblocks_built),
            bblock_hits: $f($a.bblock_hits, $b.bblock_hits),
            bblock_invalidations: $f($a.bblock_invalidations, $b.bblock_invalidations),
            init_links: $f($a.init_links, $b.init_links),
            lazy_links: $f($a.lazy_links, $b.lazy_links),
            symbols_resolved: $f($a.symbols_resolved, $b.symbols_resolved),
            symbols_unresolved: $f($a.symbols_unresolved, $b.symbols_unresolved),
            resolve_cache_hits: $f($a.resolve_cache_hits, $b.resolve_cache_hits),
            snapshot_hits: $f($a.snapshot_hits, $b.snapshot_hits),
            snapshot_misses: $f($a.snapshot_misses, $b.snapshot_misses),
            snapshot_invalidations: $f($a.snapshot_invalidations, $b.snapshot_invalidations),
            snapshot_rebuilds: $f($a.snapshot_rebuilds, $b.snapshot_rebuilds),
            priced_blocks: $f($a.priced_blocks, $b.priced_blocks),
            lookups: $f($a.lookups, $b.lookups),
            addr_probe_steps: $f($a.addr_probe_steps, $b.addr_probe_steps),
            data_blocks_written: $f($a.data_blocks_written, $b.data_blocks_written),
            integrity_blocks_written: $f($a.integrity_blocks_written, $b.integrity_blocks_written),
            blocks_scrubbed: $f($a.blocks_scrubbed, $b.blocks_scrubbed),
            blocks_repaired: $f($a.blocks_repaired, $b.blocks_repaired),
            journal_replays: $f($a.journal_replays, $b.journal_replays),
            recovery_ns: $f($a.recovery_ns, $b.recovery_ns),
            page_evictions: $f($a.page_evictions, $b.page_evictions),
            swap_io: $f($a.swap_io, $b.swap_io),
            swap_ins: $f($a.swap_ins, $b.swap_ins),
            ipis: $f($a.ipis, $b.ipis),
            shootdowns: $f($a.shootdowns, $b.shootdowns),
        }
    };
}

impl Sub for Counters {
    type Output = Counters;

    /// Saturating: a counter that is not monotonic across a call (none
    /// is today) reads as zero work rather than wrapping.
    fn sub(self, rhs: Counters) -> Counters {
        fieldwise!(self, rhs, u64::saturating_sub)
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        *self = fieldwise!(self, rhs, |a: u64, b: u64| a + b);
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs` (need not be sorted).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
