//! E14 — disk integrity (DESIGN.md §14): what end-to-end checksums
//! cost.
//!
//! Three claims, each pinned by gated rows:
//!
//! 1. **Integrity is free until you scrub.** Checksumming, address
//!    stamps, and the replica region add *zero* simulated time to a
//!    crash-free run. The proof is the file-system-level differential
//!    in `tests/e13_crash.rs`; the landmark row here pins the E13
//!    landmark workload's bill with integrity on.
//! 2. **Write amplification is bounded.** Every home data-block write
//!    pays one integrity-region write (checksum + claim + replica);
//!    the measured factor on the landmark workload is asserted ≤ 2.5×.
//! 3. **Scrub is linear in stamped blocks, repair priced per heal.**
//!    The rows sweep three disk-dirt levels and add one corrupt sweep
//!    whose bill is exactly `repairs × repair_ns` above the clean pass.

use bench::fixtures::landmark_workload;
use bench::{report_detailed, sim_time};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hemlock::{SimTime, World};
use hsfs::CorruptKind;

/// One scrub pass over a partition holding `blocks` stamped data
/// blocks, `corrupt` of them rotted. Returns the pass's simulated
/// bill and the `scanned/corrupt/repaired` shape.
fn scrub_cost(blocks: u64, corrupt: u64) -> (SimTime, String) {
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
    let block = vec![0x5A; 4096];
    for i in 0..blocks {
        world
            .kernel
            .vfs
            .write("/shared/data/d", i * 4096, &block)
            .unwrap();
    }
    for b in 0..corrupt {
        assert!(world.corrupt_shared_block("/shared/data/d", b, CorruptKind::BitRot));
    }
    let before = sim_time(&world);
    let report = world.scrub().expect("integrity on by default");
    assert_eq!(report.blocks_scanned, blocks);
    assert_eq!(report.findings.len() as u64, corrupt);
    let stats = world.stats();
    assert_eq!(stats.blocks_repaired, corrupt, "replicas heal everything");
    assert_eq!(world.poisoned_blocks(), 0);
    let bill = SimTime(sim_time(&world).0 - before.0);
    let detail = format!(
        "{} scanned, {} corrupt, {} repaired",
        report.blocks_scanned,
        report.findings.len(),
        stats.blocks_repaired
    );
    (bill, detail)
}

fn simulated_table() {
    let mut rows = Vec::new();
    let world = landmark_workload();
    let stats = world.stats();
    assert_eq!(stats.blocks_scrubbed, 0);
    assert_eq!(stats.corruptions_detected, 0);
    let (data, integ) = world.write_amplification();
    // The write-amplification gate: one integrity-region write per
    // data-block write, bounded well under the 2.5× bar.
    let amp = (data + integ) as f64 / data as f64;
    assert!(
        amp <= 2.5,
        "write amplification {amp:.2}x exceeds the 2.5x gate ({data} data + {integ} integrity)"
    );
    rows.push((
        "landmark workload, integrity on".to_string(),
        sim_time(&world),
        format!("{data} data + {integ} integrity blocks = {amp:.2}x amplification (gate 2.5x)"),
    ));
    // Scrub cost vs. disk dirt: linear in stamped blocks.
    for blocks in [8u64, 32, 128] {
        let (t, detail) = scrub_cost(blocks, 0);
        rows.push((format!("scrub pass, {blocks} stamped blocks"), t, detail));
    }
    // And the heal bill: the corrupt sweep pays exactly the clean
    // pass plus one priced repair per rotted block.
    let (t_clean, _) = scrub_cost(32, 0);
    let (t_heal, detail) = scrub_cost(32, 8);
    assert_eq!(
        t_heal.0 - t_clean.0,
        8 * hemlock::CostModel::default().repair_ns,
        "heal bill must be exactly repairs x repair_ns"
    );
    rows.push((
        "scrub pass, 32 stamped blocks, 8 rotted".to_string(),
        t_heal,
        detail,
    ));
    report_detailed(
        "E14",
        "disk integrity — free stamping; bounded amplification; linear scrub",
        &rows,
    );
}

fn bench_e14(c: &mut Criterion) {
    simulated_table();
    let mut g = c.benchmark_group("e14_integrity");
    g.sample_size(10);
    for blocks in [32u64, 128] {
        g.bench_with_input(
            BenchmarkId::new("scrub_stamped_blocks", blocks),
            &blocks,
            |b, &n| b.iter(|| scrub_cost(n, 0)),
        );
    }
    g.bench_function("scrub_heal_32_blocks_8_rotted", |b| {
        b.iter(|| scrub_cost(32, 8))
    });
    g.finish();
}

criterion_group!(benches, bench_e14);
criterion_main!(benches);
