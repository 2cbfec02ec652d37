//! E14 — end-to-end disk integrity (DESIGN.md §14): checksummed
//! blocks, scrubbing, and self-healing under silent corruption.
//!
//! §13 proved the shared partition survives *fail-stop* disk deaths:
//! the device dies loudly and the journal replays. This suite attacks
//! the quieter failure mode — the medium lies. Three corruptions are
//! modeled, each with its real-disk signature:
//!
//! * **BitRot** — the write landed, then a bit flipped under it
//!   (checksum mismatch).
//! * **LostWrite** — the write was acknowledged but never reached the
//!   platter; the block keeps stale bytes (checksum mismatch, because
//!   the checksum region records *intent*).
//! * **MisdirectedWrite** — the write landed at a neighbor's address
//!   (the victim's self-describing address stamp names the wrong
//!   home — caught even when the payload checksums fine).
//!
//! The properties proven here, per the acceptance bar:
//!
//! 1. **Any single-block corruption heals invisibly**: for every
//!    corruption kind and every block index, one scrub pass detects
//!    and repairs from the replica region, and every observable —
//!    live digest, disk digest, file bytes — matches an uninjected
//!    run exactly; simulated time differs by exactly one priced
//!    repair. Counters and trace records reconcile.
//! 2. **Boot fsck heals before the first map**: corruption planted
//!    under a power cut is repaired at reboot, so a guest can never
//!    map rotted bytes — the counter keeps counting.
//! 3. **Double corruption (block + replica, journal checkpointed) is
//!    contained**: the page is poisoned, reads fail with the typed
//!    `CorruptData` error, a guest touching the page dies alone with
//!    exit 135 (the SIGBUS analog), the world settles, and fsck
//!    reports the damage in structured form.
//! 4. **Scrub on a clean disk is a priced no-op**: exact counter
//!    reconciliation, zero findings, zero state change.
//! 5. **The every-N-slices scrub hook** heals corruption during a
//!    run, without an explicit `scrub()` call.
//! 6. **The chaos sites replay from their seed** and everything they
//!    inject self-heals while replicas are intact.
//!
//! That integrity is free on the crash-free path — stamping costs
//! nothing until a scrub is asked for — is proven at the file-system
//! level by `e13_crash::pipeline_adds_zero_simulated_cost_when_crash_free`.

use bench::fixtures::{
    build_counter, chaos_seed_offset, check_durable_digests, cpus_override, pat, run_prog,
    trace_count, RUN_SLICES,
};
use hemlock::{FaultPlan, FaultSite, World, WorldExit};
use hsfs::tools::{fsck_report, FsckKind};
use hsfs::{CorruptKind, FsError};

/// CI sweep hook: `CORRUPT_SITE=<name>` restricts the seeded chaos to
/// one corruption site (`bit_rot` / `misdirected_write` /
/// `lost_write`); unset or unknown runs all three mixed.
fn corrupt_sites() -> Vec<FaultSite> {
    match std::env::var("CORRUPT_SITE").ok().as_deref() {
        Some("bit_rot") => vec![FaultSite::BitRot],
        Some("misdirected_write") => vec![FaultSite::MisdirectedWrite],
        Some("lost_write") => vec![FaultSite::LostWrite],
        _ => vec![
            FaultSite::BitRot,
            FaultSite::MisdirectedWrite,
            FaultSite::LostWrite,
        ],
    }
}

const BS: u64 = hsfs::BLOCK_SIZE as u64;

/// Blocks in the canonical data file of [`data_world`].
const FILE_BLOCKS: u64 = 5;

const ALL_KINDS: [CorruptKind; 3] = [
    CorruptKind::BitRot,
    CorruptKind::LostWrite,
    CorruptKind::MisdirectedWrite,
];

/// A world holding one multi-block data segment whose every block is
/// stamped (the shared partition is durable — and integrity-stamped —
/// from birth).
fn data_world(tag: u8) -> World {
    let mut world = World::new();
    let vfs = &mut world.kernel.vfs;
    vfs.mkdir_all("/shared/data", 0o755, 0).unwrap();
    vfs.create_file("/shared/data/f", 0o644, 0).unwrap();
    vfs.write("/shared/data/f", 0, &pat(tag, (FILE_BLOCKS * BS) as usize))
        .unwrap();
    world
}

/// Corrupts every stamped block of `path` on the medium, returning how
/// many were hit. With `and_replica`, the replica copy is ruined too —
/// combined with a checkpointed journal this makes the damage
/// uncorrectable.
fn corrupt_whole_file(world: &mut World, path: &str, kind: CorruptKind, and_replica: bool) -> u64 {
    let size = world.kernel.vfs.stat(path).unwrap().size;
    let mut hit = 0;
    for b in 0..size.div_ceil(BS) {
        if world.corrupt_shared_block(path, b, kind) {
            if and_replica {
                assert!(world.corrupt_shared_replica(path, b));
            }
            hit += 1;
        }
    }
    hit
}

// --- 1. the tentpole property ---

/// For any content seed, any corruption kind, and any block index:
/// one scrub pass detects the damage, heals it from the replica
/// region, and leaves every observable byte-identical to an
/// uninjected run — with simulated time higher by exactly one priced
/// repair and counters that reconcile with the trace.
#[test]
fn any_single_block_corruption_heals_invisibly() {
    for tag in [0x11u8, 0x7Eu8] {
        // The uninjected twin: same workload, one clean scrub pass.
        let mut twin = data_world(tag);
        let clean = twin.scrub().expect("integrity is on by default");
        assert!(clean.findings.is_empty());
        let twin_stats = twin.stats();
        let twin_time = twin.costs.time(&twin_stats);
        let twin_disk = twin.kernel.vfs.shared.fs.disk_digest().unwrap();
        let twin_live = twin.shared_digest();
        for kind in ALL_KINDS {
            for block in 0..FILE_BLOCKS {
                let mut world = data_world(tag);
                assert!(
                    world.corrupt_shared_block("/shared/data/f", block, kind),
                    "tag {tag:#x} {kind:?} block {block}: corruption must land"
                );
                let report = world.scrub().unwrap();
                // MisdirectedWrite trips the address stamp (the
                // payload may checksum fine); the others trip the
                // checksum region.
                let reason = match kind {
                    CorruptKind::MisdirectedWrite => "address-stamp",
                    _ => "checksum",
                };
                assert_eq!(
                    report.findings.len(),
                    1,
                    "tag {tag:#x} {kind:?} block {block}: exactly one finding"
                );
                let f = &report.findings[0];
                assert_eq!(f.offset, block * BS);
                assert_eq!(f.reason, reason, "{kind:?} block {block}");
                assert_eq!(f.repaired_from, Some("replica"));
                // Counters reconcile with the report and the trace.
                let s = world.stats();
                assert_eq!(s.corruptions_detected, 1);
                assert_eq!(s.blocks_repaired, 1);
                assert_eq!(s.eio_kills, 0);
                assert_eq!(s.blocks_scrubbed, twin_stats.blocks_scrubbed);
                assert_eq!(trace_count(&world, "CorruptionDetected"), 1);
                assert_eq!(trace_count(&world, "BlockRepaired"), 1);
                assert_eq!(world.poisoned_blocks(), 0);
                // Every observable matches the uninjected twin…
                assert_eq!(world.shared_digest(), twin_live);
                assert_eq!(
                    world.kernel.vfs.shared.fs.disk_digest(),
                    Some(twin_disk),
                    "tag {tag:#x} {kind:?} block {block}: disk not healed"
                );
                // …except exactly one priced repair (asserted before
                // the read below, which is itself priced work).
                assert_eq!(
                    world.costs.time(&s).0,
                    twin_time.0 + world.costs.repair_ns,
                    "tag {tag:#x} {kind:?} block {block}: repair mispriced"
                );
                assert_eq!(
                    world
                        .kernel
                        .vfs
                        .read("/shared/data/f", 0, (FILE_BLOCKS * BS) as usize)
                        .unwrap(),
                    pat(tag, (FILE_BLOCKS * BS) as usize)
                );
                // Healing is idempotent: a second pass finds nothing.
                assert!(world.scrub().unwrap().findings.is_empty());
                check_durable_digests(&world);
            }
        }
    }
}

// --- 2. boot fsck heals before the first map ---

/// Corruption planted under a power cut is detected and healed by
/// boot-time fsck — from the replica region, since the checkpointed
/// journal holds nothing — so a guest can never map rotted bytes.
/// The counter keeps its acknowledged value and keeps counting.
#[test]
fn boot_fsck_heals_disk_corruption_before_first_map() {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    assert_eq!(run_prog(&mut world, &exe), 1);
    assert_eq!(run_prog(&mut world, &exe), 2);
    world.barrier();
    let live = world.shared_digest();
    let hit = corrupt_whole_file(
        &mut world,
        "/shared/lib/counter",
        CorruptKind::BitRot,
        false,
    );
    assert!(hit > 0, "the instance must have stamped blocks");
    world.power_cut();
    world.reboot();
    check_durable_digests(&world);
    let s = world.stats();
    assert_eq!(s.corruptions_detected, hit, "log: {:?}", world.log);
    assert_eq!(s.blocks_repaired, hit);
    assert_eq!(world.poisoned_blocks(), 0);
    assert!(!world.log.iter().any(|l| l.contains("UNREPAIRED")));
    assert_eq!(world.shared_digest(), live, "boot fsck must heal the rot");
    assert_eq!(
        world.peek_shared_word("/shared/lib/counter", "count").ok(),
        Some(2),
        "acknowledged counter value survived the rot"
    );
    assert_eq!(run_prog(&mut world, "/bin/p"), 3);
    // And the healed disk replays to the same state a second time
    // (the third bump is barriered so the crash cannot discard it).
    world.barrier();
    world.power_cut();
    world.reboot();
    check_durable_digests(&world);
    assert_eq!(
        world.stats().corruptions_detected,
        hit,
        "rot must not recur"
    );
    assert_eq!(
        world.peek_shared_word("/shared/lib/counter", "count").ok(),
        Some(3)
    );
}

// --- 3. uncorrectable corruption degrades gracefully ---

/// Block *and* replica corrupt, journal checkpointed: nothing can
/// heal the page. The contract is containment — fsck reports the
/// damage (structured, and with the `UNREPAIRED` log sentinel), reads
/// fail with the typed `CorruptData` error, a guest touching the page
/// dies alone with exit 135 (the SIGBUS analog), the world settles,
/// and untouched segments stay fully usable.
#[test]
fn uncorrectable_corruption_is_contained_to_the_reader() {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    assert_eq!(run_prog(&mut world, &exe), 1);
    world.barrier();
    let hit = corrupt_whole_file(&mut world, "/shared/lib/counter", CorruptKind::BitRot, true);
    assert!(hit > 0);
    world.power_cut();
    world.reboot();
    check_durable_digests(&world);
    // Detected, not healed, poisoned, and reported.
    let s = world.stats();
    assert_eq!(s.corruptions_detected, hit, "log: {:?}", world.log);
    assert_eq!(s.blocks_repaired, 0);
    assert_eq!(world.poisoned_blocks(), hit);
    assert!(world.log.iter().any(|l| l.contains("UNREPAIRED")));
    // The typed-error read path: no rotted byte escapes as data.
    assert_eq!(
        world.kernel.vfs.read("/shared/lib/counter", 0, 16),
        Err(FsError::CorruptData)
    );
    // Satellite: the structured fsck report names the damage.
    let report = fsck_report(&mut world.kernel.vfs.shared, false);
    assert!(report.unrepaired() >= 1);
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == FsckKind::CorruptBlock && !f.repaired && f.block.is_some()));
    // The rest of the partition is unharmed.
    let vfs = &mut world.kernel.vfs;
    vfs.mkdir_all("/shared/data", 0o755, 0).unwrap();
    vfs.create_file("/shared/data/ok", 0o644, 0).unwrap();
    vfs.write("/shared/data/ok", 0, &pat(0x33, 5000)).unwrap();
    assert_eq!(
        world.kernel.vfs.read("/shared/data/ok", 0, 5000).unwrap(),
        pat(0x33, 5000)
    );
    // A guest that touches the poisoned segment dies alone with the
    // SIGBUS-analog exit — and the world settles.
    let pid = world.spawn("/bin/p").unwrap();
    assert_eq!(world.run(RUN_SLICES), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(135), "log: {:?}", world.log);
    assert_eq!(world.stats().eio_kills, 1);
    // Containment replays: the same double-fault path is deterministic.
    let pid2 = world.spawn("/bin/p").unwrap();
    assert_eq!(world.run(RUN_SLICES), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid2), Some(135));
    assert_eq!(world.stats().eio_kills, 2);
}

// --- 4. clean scrub: exact reconciliation, no state change ---

#[test]
fn clean_scrub_is_a_priced_noop() {
    let mut world = data_world(0x42);
    let stamped = world.kernel.vfs.shared.fs.stamped_blocks();
    assert!(stamped >= FILE_BLOCKS, "every data block is stamped");
    let live = world.shared_digest();
    let disk = world.kernel.vfs.shared.fs.disk_digest();
    let t0 = world.costs.time(&world.stats());
    let report = world.scrub().unwrap();
    assert_eq!(report.blocks_scanned, stamped);
    assert!(report.findings.is_empty());
    let s = world.stats();
    assert_eq!(s.blocks_scrubbed, stamped);
    assert_eq!(s.corruptions_detected, 0);
    assert_eq!(s.blocks_repaired, 0);
    assert_eq!(s.eio_kills, 0);
    // Priced per verified block, exactly.
    assert_eq!(
        world.costs.time(&s).0,
        t0.0 + stamped * world.costs.scrub_block_ns
    );
    // No state change, and the pass itself is journaled.
    assert_eq!(world.shared_digest(), live);
    assert_eq!(world.kernel.vfs.shared.fs.disk_digest(), disk);
    assert_eq!(trace_count(&world, "ScrubPass"), 1);
    assert_eq!(
        trace_count(&world, "CorruptionDetected") + trace_count(&world, "BlockRepaired"),
        0
    );
}

// --- 5. the every-N-slices kernel scrub hook ---

/// The kernel-driven scrub pass heals medium rot *during* a run — no
/// explicit `scrub()` call — and the guest's observables are exactly
/// those of a run on a clean disk.
#[test]
fn periodic_scrub_heals_during_run() {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    assert_eq!(run_prog(&mut world, &exe), 1);
    // Rot a block of the (unmapped) template object behind the
    // kernel's back, then let the scheduler-driven scrub find it.
    assert!(world.corrupt_shared_block("/shared/lib/counter.o", 0, CorruptKind::LostWrite));
    world.set_scrub_interval(Some(1));
    assert_eq!(run_prog(&mut world, &exe), 2);
    let s = world.stats();
    assert!(s.blocks_scrubbed > 0, "the every-N-slices hook must fire");
    assert_eq!(s.corruptions_detected, 1);
    assert_eq!(s.blocks_repaired, 1);
    assert_eq!(world.poisoned_blocks(), 0);
    assert!(
        trace_count(&world, "ScrubPass") > 0,
        "scrub passes are journaled"
    );
    world.set_scrub_interval(None);
    let before = world.stats().blocks_scrubbed;
    assert_eq!(run_prog(&mut world, &exe), 3);
    assert_eq!(
        world.stats().blocks_scrubbed,
        before,
        "None disables the hook"
    );
}

// --- 6. the chaos sites: seeded, contained, self-healing ---

/// High-rate seeded corruption across all three sites: everything the
/// plan injects is detected by one scrub pass and healed (replicas
/// are intact), the healed disk equals the live tree, no page is
/// poisoned — and the whole outcome replays from the seed.
#[test]
fn chaos_corruption_sites_replay_and_self_heal() {
    let files = 6u8;
    let sites = corrupt_sites();
    let run = |seed: u64| {
        let mut world = World::new();
        world.set_cpus(cpus_override());
        world.arm_faults(FaultPlan::new(seed, 200_000).only(&sites));
        world
            .kernel
            .vfs
            .mkdir_all("/shared/data", 0o755, 0)
            .unwrap();
        for i in 0..files {
            let path = format!("/shared/data/f{i}");
            world.kernel.vfs.create_file(&path, 0o644, 0).unwrap();
            world
                .kernel
                .vfs
                .write(
                    &path,
                    0,
                    &pat(i.wrapping_mul(37).wrapping_add(1), 3 * BS as usize),
                )
                .unwrap();
        }
        world.arm_faults(FaultPlan::new(seed, 0));
        // The medium lies, but the stamps hold the intent, which the
        // live tree still has.
        let vouched = check_durable_digests(&world);
        assert!(
            vouched >= usize::from(files),
            "seed {seed}: {vouched} files vouched for"
        );
        let report = world.scrub().expect("integrity on");
        let s = world.stats();
        assert_eq!(
            s.blocks_repaired, s.corruptions_detected,
            "seed {seed}: with replicas intact every detection heals"
        );
        assert_eq!(world.poisoned_blocks(), 0, "seed {seed}");
        assert_eq!(
            world.kernel.vfs.shared.fs.disk_digest(),
            Some(world.shared_digest()),
            "seed {seed}: healed disk must equal the live tree"
        );
        for i in 0..files {
            let path = format!("/shared/data/f{i}");
            assert_eq!(
                world.kernel.vfs.read(&path, 0, 3 * BS as usize).unwrap(),
                pat(i.wrapping_mul(37).wrapping_add(1), 3 * BS as usize),
                "seed {seed}: {path} content"
            );
        }
        // A crash after the heal recovers clean: integrity and the
        // journal compose.
        world.power_cut();
        world.reboot();
        check_durable_digests(&world);
        assert!(!world.log.iter().any(|l| l.contains("UNREPAIRED")));
        (
            report.findings.len(),
            s.corruptions_detected,
            world.shared_digest(),
        )
    };
    let mut injected = 0;
    for base in 1..=6u64 {
        let seed = base ^ chaos_seed_offset();
        let first = run(seed);
        assert_eq!(first, run(seed), "seed {seed}: chaos did not replay");
        injected += first.0;
    }
    assert!(injected > 0, "a 20%-per-write plan must inject corruption");
}
