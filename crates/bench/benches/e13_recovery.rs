//! E13 — crash recovery (DESIGN.md §13): what durability costs.
//!
//! Two claims, each pinned by gated rows:
//!
//! 1. **Crash-free runs are free.** The write pipeline and the
//!    metadata journal add *zero* simulated time to a run that never
//!    crashes. The proof is the file-system-level differential in
//!    `tests/e13_crash.rs` (a journaled and a write-through file system
//!    run one script to identical `FsStats`); the landmark row here
//!    pins the journal-on workload's bill.
//! 2. **Recovery is linear in the dirty suffix.** Journal replay at
//!    reboot costs one disk-block read per surviving record plus one
//!    write per block image replayed home; the rows sweep the number
//!    of un-checkpointed dirty blocks and record the replay bill.

use bench::fixtures::landmark_workload;
use bench::{report_detailed, sim_time};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hemlock::{SimTime, World};

/// One crash/reboot cycle with exactly `nblocks` un-checkpointed dirty
/// blocks in the journal at the moment of death. Returns the recovery
/// bill and the replay shape for the detail field.
fn recovery(nblocks: u64) -> (SimTime, String) {
    let mut world = World::new();
    world
        .kernel
        .vfs
        .mkdir_all("/shared/data", 0o755, 0)
        .unwrap();
    world
        .kernel
        .vfs
        .create_file("/shared/data/d", 0o644, 0)
        .unwrap();
    // Checkpoint: the journal measures only the writes below.
    world.barrier();
    let block = vec![0x5A; 4096];
    for i in 0..nblocks {
        world
            .kernel
            .vfs
            .write("/shared/data/d", i * 4096, &block)
            .unwrap();
    }
    world.power_cut();
    world.reboot();
    let stats = world.stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.journal_replays, 1);
    let detail = world
        .log
        .iter()
        .find(|l| l.starts_with("journal replay:"))
        .unwrap()
        .trim_start_matches("journal replay: ")
        .to_string();
    (SimTime(stats.recovery_ns), detail)
}

fn simulated_table() {
    let mut rows = Vec::new();
    let world = landmark_workload();
    let stats = world.stats();
    assert_eq!(stats.crashes, 0);
    assert_eq!(stats.recovery_ns, 0);
    rows.push((
        "crash-free workload, journal on".to_string(),
        sim_time(&world),
        String::new(),
    ));
    // Replay cost vs. dirty-suffix size: linear, and billed only at
    // reboot.
    for nblocks in [4u64, 16, 64] {
        let (t, detail) = recovery(nblocks);
        rows.push((format!("journal replay, {nblocks} dirty blocks"), t, detail));
    }
    report_detailed(
        "E13",
        "crash recovery — zero-cost pipeline; replay bill vs. dirty blocks",
        &rows,
    );
}

fn bench_e13(c: &mut Criterion) {
    simulated_table();
    let mut g = c.benchmark_group("e13_recovery");
    g.sample_size(10);
    for nblocks in [4u64, 64] {
        g.bench_with_input(
            BenchmarkId::new("crash_reboot_dirty_blocks", nblocks),
            &nblocks,
            |b, &n| b.iter(|| recovery(n)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_e13);
criterion_main!(benches);
