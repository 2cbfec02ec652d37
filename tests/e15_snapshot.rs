//! E15 — persistent prelink snapshots (DESIGN.md §15) are a pure
//! cross-boot accelerator: semantically invisible, priced exactly, and
//! crash-safe.
//!
//! After a successful resolve, `ldl` serializes the resolved link map
//! into a checksummed snapshot on the shared partition; a later boot
//! validates it for one flat `snapshot_validate_ns` charge and maps the
//! pre-resolved segments directly instead of re-running scoped symbol
//! search. These claims are tested here:
//!
//! 1. **Cold identity**: over quantum × cpus ∈ {1,4}, a snapshots-on
//!    cold run and a snapshots-off run of the same multi-worker SMP
//!    scenario are indistinguishable — identical observables, identical
//!    simulated time (misses and rebuilds are free by design), an
//!    identical trace stream (modulo the 0-cost `SnapshotMiss` /
//!    `SnapshotRebuilt` diagnostics), and identical `WorldStats` modulo
//!    the four snapshot counters.
//! 2. **Warm boots win**: across a clean reboot the snapshot world
//!    relinks for the flat validation charge — same exits, same
//!    consoles, zero symbols resolved, strictly less simulated time
//!    than the snapshots-off twin; and a *stale* snapshot (module bytes
//!    changed underneath it) costs exactly `snapshot_validate_ns` more
//!    than never having had one. A hit's link map equals the storing
//!    process's, and a metadata record replaced over unchanged bytes
//!    invalidates the snapshot too.
//! 3. **Counters reconcile**: each `LdlStats` snapshot counter folded
//!    into `WorldStats` equals the count of its `htrace` record kind.
//! 4. **Corruption never panics**: any stomped byte, truncation, or
//!    emptied snapshot file decodes to `LinkError::BadSnapshot`, is
//!    counted as an invalidation, and falls back to a full resolve that
//!    still computes the right answer (satellite: fuzzed-bytes
//!    regression).
//! 5. **Crashes never resurrect a stale snapshot**: for *every* disk
//!    write index across the first boot's link/rebuild window, killing
//!    the disk there, rebooting, and respawning behaves exactly like
//!    the same recovery with snapshots disabled — hits only when the
//!    record and every module it describes committed coherently.
//! 6. **One write per lifetime**: each resolve only *stages* the record
//!    (digests as of that link); it is written once, at exit,
//!    kill, barrier or clean halt. A cold lazy chain writes exactly one
//!    record, unpriced I/O grows linearly in the chain length, a fork
//!    child that links nothing writes nothing, and a power cut before
//!    exit loses only the staged record.
//! 7. **Staging is incremental but exact**: each stage rebuilds only
//!    what its link changed, yet at every stage the staged record
//!    equals a from-scratch rebuild of the link map.

use bench::fixtures::{
    cpus_override, env_switch_on, pressure_worker, run_counter, run_prog, settle_workers,
    spawn_run, spawn_worker, trace_count, Replay, COUNTER_ELIDED, RUN_SLICES, SHARED_DATA, WORKERS,
};
use bench::sim_time;
use hemlock::{CostModel, ShareClass, TraceBuffer, World, WorldExit};
use proptest::prelude::*;

// --- the pure-code chain (no data mutation ⇒ warm boots validate) ----

const LIB2: &str = r#"
.module lib2
.text
.globl f2
f2:     li   v0, 42
        jr   ra
.data
.globl pad
pad:    .word 0
"#;

const LIB1: &str = r#"
.module lib1
.uses lib2
.text
.globl f1
f1:     addi sp, sp, -8
        sw   ra, 0(sp)
        jal  f2
        lw   ra, 0(sp)
        addi sp, sp, 8
        addi v0, v0, 1
        jr   ra
"#;

const CMAIN: &str = r#"
.module cmain
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  f1
        or   r16, v0, r0
        or   a0, v0, r0
        li   v0, 106           ; print_int(result)
        syscall
        or   v0, r16, r0
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

/// The chain's answer: f2's 42 plus f1's increment.
const CHAIN_ANSWER: i32 = 43;

fn build_chain(world: &mut World) -> String {
    world.install_template("/shared/lib/lib1.o", LIB1).unwrap();
    world.install_template("/shared/lib/lib2.o", LIB2).unwrap();
    world.install_template("/src/cmain.o", CMAIN).unwrap();
    world
        .link(
            "/bin/chain",
            &[
                ("/src/cmain.o", ShareClass::StaticPrivate),
                ("/shared/lib/lib1.o", ShareClass::DynamicPublic),
                ("/shared/lib/lib2.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

/// Spawns, runs to completion, returns (exit code, console).
fn run_logged(world: &mut World, exe: &str) -> (i32, String) {
    let pid = spawn_run(world, exe);
    (world.exit_code(pid).unwrap(), world.console(pid))
}

fn sim_ns(world: &World) -> u64 {
    sim_time(world).0
}

fn snap_path(world: &World) -> String {
    hlink::snapshot::path_for(&world.kernel.vfs, "/bin/chain")
}

// --- 1. cold identity (the differential property) ---------------------

/// Runs the pressure scenario cold with its (lighter: two passes over
/// two pages) worker linked as four *distinct* executables, so the boot
/// consults four distinct snapshot records — four free misses, four
/// free rebuilds — instead of memoizing after the first. `SnapshotMiss`
/// and `SnapshotRebuilt` are the cache's own 0-cost diagnostics and
/// exist only on a snapshots-on run; `SnapshotHit` and
/// `SnapshotInvalidated` are *priced*, so they stay in the compared
/// trace (one on a cold run is an identity violation, not noise). The
/// four snapshot counters (mirrors and `ldl` copies) and
/// `unpriced_bytes` (the cache's own I/O) are the only `WorldStats`
/// fields allowed to differ.
fn run_cold(snapshots: bool, quantum: u64, cpus: u32) -> (Replay, World) {
    let mut world = World::new();
    *world.trace_mut() = TraceBuffer::new(1 << 20);
    world.set_link_snapshots(snapshots);
    world.set_cpus(cpus);
    world
        .install_template("/shared/lib/shared_data.o", SHARED_DATA)
        .unwrap();
    world
        .install_template("/src/worker.o", &pressure_worker(2, 8192))
        .unwrap();
    let mut pids = Vec::new();
    for id in 0..WORKERS as u32 {
        let exe = world
            .link(
                &format!("/bin/worker{id}"),
                &[
                    ("/src/worker.o", ShareClass::StaticPrivate),
                    ("/shared/lib/shared_data.o", ShareClass::DynamicPublic),
                ],
            )
            .unwrap();
        pids.push(spawn_worker(&mut world, &exe, id));
    }
    let obs = settle_workers(&mut world, &pids, quantum);
    let replay = Replay::capture(obs, &world, &["SnapshotMiss", "SnapshotRebuilt"], |s| {
        s.unpriced_bytes = 0;
        s.snapshot_hits = 0;
        s.snapshot_misses = 0;
        s.snapshot_invalidations = 0;
        s.snapshot_rebuilds = 0;
        s.ldl.snapshot_hits = 0;
        s.ldl.snapshot_misses = 0;
        s.ldl.snapshot_invalidations = 0;
        s.ldl.snapshot_rebuilds = 0;
    });
    (replay, world)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// For any quantum and cpus ∈ {1,4}: a snapshots-on cold run is
    /// indistinguishable from a snapshots-off run in every observable,
    /// the simulated clock, the trace stream, and `WorldStats` modulo
    /// the four snapshot counters — and the counters themselves show
    /// the free paths (miss, rebuild) were actually taken.
    #[test]
    fn cold_boot_with_snapshots_is_semantically_invisible(
        quantum in 100u64..500,
        four_cpus in 0u32..2,
    ) {
        let cpus = if four_cpus == 1 { 4 } else { 1 };
        let (on, on_world) = run_cold(true, quantum, cpus);
        let (off, off_world) = run_cold(false, quantum, cpus);
        prop_assert_eq!(&on, &off, "cold snapshots must be invisible (cpus={})", cpus);

        // The on-run exercised the free paths; the off-run never moved.
        let s = on_world.stats();
        prop_assert!(s.snapshot_misses >= WORKERS as u64, "{s:?}");
        prop_assert!(s.snapshot_rebuilds >= WORKERS as u64, "{s:?}");
        prop_assert_eq!(s.snapshot_hits, 0, "a cold run cannot hit");
        prop_assert_eq!(s.snapshot_invalidations, 0, "nothing to invalidate");
        let idle = off_world.stats();
        prop_assert_eq!(
            idle.snapshot_misses + idle.snapshot_rebuilds + idle.snapshot_hits,
            0,
            "disabled snapshots moved: {:?}",
            idle
        );
    }

    /// Across a clean reboot, the snapshot world relinks from the
    /// cached record: same exits, same consoles, zero symbols resolved
    /// on the warm boot, and strictly less simulated time than the
    /// snapshots-off twin resolving from scratch.
    #[test]
    fn warm_boot_hits_and_outruns_full_resolution(
        quantum in 100u64..500,
        four_cpus in 0u32..2,
    ) {
        let cpus = if four_cpus == 1 { 4 } else { 1 };
        let boot_twice = |snapshots: bool| {
            let mut world = World::new();
            world.set_link_snapshots(snapshots);
            world.set_cpus(cpus);
            world.quantum = quantum;
            let exe = build_chain(&mut world);
            let first = run_logged(&mut world, &exe);
            world.reboot();
            let t0 = sim_ns(&world);
            let resolved0 = world.stats().ldl.symbols_resolved;
            let second = run_logged(&mut world, "/bin/chain");
            let stats = world.stats();
            (
                first,
                second,
                sim_ns(&world) - t0,
                stats.ldl.symbols_resolved - resolved0,
                stats,
            )
        };
        let (on1, on2, warm_on, resolved_on, on) = boot_twice(true);
        let (off1, off2, warm_off, resolved_off, _) = boot_twice(false);

        // Observable identity, both boots.
        prop_assert_eq!(&on1, &off1);
        prop_assert_eq!(&on2, &off2);
        prop_assert_eq!(on2.0, CHAIN_ANSWER);

        // The warm boot went through the snapshot: one hit, no symbol
        // search, and a cheaper second boot than full resolution.
        prop_assert!(on.snapshot_hits >= 1, "{on:?}");
        prop_assert_eq!(resolved_on, 0, "a hit must skip resolution");
        prop_assert!(resolved_off > 0, "the twin must actually resolve");
        prop_assert!(
            warm_on < warm_off,
            "warm boot must be cheaper: {} vs {}",
            warm_on,
            warm_off
        );
    }
}

// --- 2. exact pricing of the stale path --------------------------------

/// A stale snapshot (a module's bytes changed underneath it) costs
/// exactly one `snapshot_validate_ns` on top of the full resolution the
/// snapshots-off twin performs — the failed validation is the *only*
/// extra charge. The dirty word lands across a reboot because the
/// snapshot is consulted once per (executable, boot); a same-boot
/// respawn never re-reads it.
#[test]
fn stale_snapshot_costs_exactly_one_validation() {
    let run = |snapshots: bool| {
        let mut world = World::new();
        world.set_link_snapshots(snapshots);
        let exe = build_chain(&mut world);
        assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
        world.reboot();
        // Dirty lib2's instance through its exported data word: the
        // code is untouched (same answer), but the content digest the
        // snapshot recorded no longer matches.
        world
            .poke_shared_word("/shared/lib/lib2", "pad", 0xDEAD_BEEF)
            .unwrap();
        assert_eq!(run_prog(&mut world, "/bin/chain"), CHAIN_ANSWER);
        (sim_ns(&world), world.stats())
    };
    let (t_on, on) = run(true);
    let (t_off, off) = run(false);
    assert_eq!(on.snapshot_invalidations, 1, "{on:?}");
    assert_eq!(on.snapshot_hits, 0, "{on:?}");
    assert_eq!(off.snapshot_invalidations, 0, "{off:?}");
    assert_eq!(
        t_on,
        t_off + CostModel::default().snapshot_validate_ns,
        "stale run must cost exactly one flat validation more"
    );
}

/// The `LDL_SNAPSHOT` env hook decides the subsystem at `World::new`
/// (the CI nightly matrix runs the whole suite with `LDL_SNAPSHOT=off`):
/// a fresh world follows the ambient environment, and a disabled one
/// moves no snapshot counter and writes no snapshot file.
#[test]
fn env_hook_disables_snapshots() {
    let mut world = World::new();
    let exe = build_chain(&mut world);
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
    let s = world.stats();
    let moved = s.snapshot_misses + s.snapshot_rebuilds + s.snapshot_hits;
    assert_eq!(moved > 0, env_switch_on("LDL_SNAPSHOT"), "{s:?}");
    assert_eq!(
        world.kernel.vfs.read_all(&snap_path(&world)).is_ok(),
        env_switch_on("LDL_SNAPSHOT"),
        "a snapshot file exists iff snapshots are on"
    );
}

// --- 3. counters reconcile with the trace ------------------------------

/// Every `LdlStats` snapshot counter folded into `WorldStats` equals
/// the number of `htrace` records of the matching kind — one priced
/// record per priced event, one free record per free event.
#[test]
fn snapshot_counters_match_trace_record_counts() {
    let mut world = World::new();
    // Force the state under test: the nightly matrix runs this suite
    // with `LDL_SNAPSHOT=off` in the environment too.
    world.set_link_snapshots(true);
    *world.trace_mut() = TraceBuffer::new(1 << 20);
    let exe = build_chain(&mut world);
    // Miss + rebuilds (cold), then a warm-boot hit, then an
    // invalidation (stomped record) followed by a fresh rebuild. Each
    // phase gets its own boot: the snapshot is consulted once per
    // (executable, boot), so only a reboot re-opens the record.
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
    world.reboot();
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
    let path = snap_path(&world);
    world
        .kernel
        .vfs
        .write(&path, 8, &[0xFF, 0xFF, 0xFF])
        .unwrap();
    world.reboot();
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);

    let s = world.stats();
    assert!(s.snapshot_misses >= 1, "{s:?}");
    assert!(s.snapshot_hits >= 1, "{s:?}");
    assert!(s.snapshot_invalidations >= 1, "{s:?}");
    assert!(s.snapshot_rebuilds >= 2, "{s:?}");
    let count = |kind: &str| trace_count(&world, kind);
    assert_eq!(s.snapshot_hits, count("SnapshotHit"));
    assert_eq!(s.snapshot_misses, count("SnapshotMiss"));
    assert_eq!(s.snapshot_invalidations, count("SnapshotInvalidated"));
    assert_eq!(s.snapshot_rebuilds, count("SnapshotRebuilt"));
    // And the WorldStats mirrors are the folded LdlStats, verbatim.
    assert_eq!(s.snapshot_hits, s.ldl.snapshot_hits);
    assert_eq!(s.snapshot_misses, s.ldl.snapshot_misses);
    assert_eq!(s.snapshot_invalidations, s.ldl.snapshot_invalidations);
    assert_eq!(s.snapshot_rebuilds, s.ldl.snapshot_rebuilds);
}

// --- 4. corruption never panics (fuzzed-bytes regression) --------------

/// One corrupted-snapshot round: stomp the file with `mutate`, reboot
/// (the once-per-boot consult memo means only a fresh boot re-reads the
/// record), respawn, and the world must fall back to a full resolve —
/// right answer, one more invalidation, never a panic.
fn corrupt_and_respawn(mutate: impl FnOnce(&mut World, &str)) {
    let mut world = World::new();
    world.set_link_snapshots(true);
    let exe = build_chain(&mut world);
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
    let path = snap_path(&world);
    assert!(
        !world.kernel.vfs.read_all(&path).unwrap().is_empty(),
        "cold run must have written the snapshot"
    );
    mutate(&mut world, &path);
    world.reboot();
    let before = world.stats().snapshot_invalidations;
    assert_eq!(run_prog(&mut world, "/bin/chain"), CHAIN_ANSWER);
    let s = world.stats();
    assert_eq!(
        s.snapshot_invalidations,
        before + 1,
        "corruption must be detected and counted: {s:?}"
    );
    assert_eq!(s.snapshot_hits, 0, "corrupt bytes must never validate");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any single stomped byte anywhere in the stored snapshot — magic,
    /// version, body, checksum trailer — is rejected as `BadSnapshot`.
    #[test]
    fn fuzzed_snapshot_bytes_fall_back_cleanly(pos in 0usize..4096, flip in 1u8..255) {
        corrupt_and_respawn(|world, path| {
            let bytes = world.kernel.vfs.read_all(path).unwrap();
            let pos = pos % bytes.len();
            world
                .kernel
                .vfs
                .write(path, pos as u64, &[bytes[pos] ^ flip])
                .unwrap();
        });
    }

    /// Any truncation — including to zero bytes — is rejected too.
    #[test]
    fn truncated_snapshot_falls_back_cleanly(cut in 0u64..4096) {
        corrupt_and_respawn(|world, path| {
            let len = world.kernel.vfs.read_all(path).unwrap().len() as u64;
            let v = world.kernel.vfs.resolve(path).unwrap();
            world.kernel.vfs.truncate_vnode(v, cut % len).unwrap();
        });
    }
}

/// An *absent* snapshot is a miss, not an invalidation — removing the
/// file sends the next boot's spawn down the free cold path.
#[test]
fn removed_snapshot_is_a_miss_not_an_invalidation() {
    let mut world = World::new();
    world.set_link_snapshots(true);
    let exe = build_chain(&mut world);
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
    let path = snap_path(&world);
    world.kernel.vfs.unlink(&path).unwrap();
    world.reboot();
    let before = world.stats();
    assert_eq!(run_prog(&mut world, "/bin/chain"), CHAIN_ANSWER);
    let s = world.stats();
    assert_eq!(s.snapshot_misses, before.snapshot_misses + 1, "{s:?}");
    assert_eq!(
        s.snapshot_invalidations, before.snapshot_invalidations,
        "{s:?}"
    );
}

// --- 5. the crash sweep ------------------------------------------------

/// Builds the chain, barriers (so the module objects are acknowledged),
/// then runs the first boot — instances, metadata, and the snapshot all
/// flow through the journaled write pipeline after the barrier. The
/// sweep kills the disk at every write index in that window.
fn chain_boot1(world: &mut World) {
    let exe = build_chain(world);
    world.barrier();
    assert_eq!(run_prog(world, &exe), CHAIN_ANSWER);
}

/// One crash run: die at write `k`, reboot, optionally disable
/// snapshots for the respawn (the live run is identical either way, so
/// both twins recover from the byte-identical disk), and respawn.
fn crash_respawn(k: u64, tear: bool, cpus: u32, snapshots: bool) -> (World, (i32, String)) {
    let mut world = World::new();
    // Boot 1 always rebuilds a snapshot (regardless of the ambient
    // `LDL_SNAPSHOT` environment): the sweep is over *its* write units.
    world.set_link_snapshots(true);
    world.set_cpus(cpus);
    world.set_crash_at(k, tear);
    chain_boot1(&mut world);
    world.power_cut();
    world.reboot();
    world.set_link_snapshots(snapshots);
    let out = run_logged(&mut world, "/bin/chain");
    (world, out)
}

/// The tentpole sweep: at *every* crash point across the first boot's
/// link window, a rebooted world that consults the (possibly partial,
/// torn, or missing) snapshot behaves exactly like one that resolves
/// from scratch off the same recovered disk — a snapshot can be hit,
/// invalidated, or missed, but never *believed wrongly*.
#[test]
fn crash_sweep_never_resurrects_a_stale_snapshot() {
    let cpus = cpus_override();
    // Crash-free reference: the write window of the first boot.
    let (ack, total) = {
        let mut world = World::new();
        world.set_link_snapshots(true);
        world.set_cpus(cpus);
        let exe = build_chain(&mut world);
        let ack = world.barrier();
        assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
        (ack, world.disk_seq())
    };
    assert!(ack < total, "boot 1 must write after the barrier");

    let (mut hits, mut misses, mut invals) = (0u64, 0u64, 0u64);
    for k in ack..=total {
        let tear = k % 3 == 0;
        let (mut on_world, on) = crash_respawn(k, tear, cpus, true);
        let (mut off_world, off) = crash_respawn(k, tear, cpus, false);
        assert_eq!(
            on, off,
            "k={k} tear={tear}: snapshot respawn diverged from full resolve"
        );
        for w in [&on_world, &off_world] {
            assert!(
                !w.log.iter().any(|l| l.contains("UNREPAIRED")),
                "k={k}: fsck left damage unrepaired"
            );
        }
        // Surviving instances keep their addresses in both twins.
        for inst in ["/shared/lib/lib1", "/shared/lib/lib2"] {
            assert_eq!(
                on_world.kernel.vfs.path_to_addr(inst).ok(),
                off_world.kernel.vfs.path_to_addr(inst).ok(),
                "k={k}: {inst} recovered to different addresses"
            );
        }
        let s = on_world.stats();
        hits += s.snapshot_hits;
        misses += s.snapshot_misses;
        invals += s.snapshot_invalidations;
        // A hit is only legal when the record *and* every module it
        // describes committed coherently: believing one must yield the
        // crash-free answer. (A miss or invalidation merely falls back
        // to the cold path, whose outcome on a partially-recovered
        // disk — e.g. a committed-but-empty instance faulting into a
        // contained kill — the identity assert above already pinned to
        // the snapshots-off twin.)
        if s.snapshot_hits > 0 {
            assert_eq!(
                on.0, CHAIN_ANSWER,
                "k={k}: a validated snapshot mapped a wrong world"
            );
        }
        // Every snapshot consultation resolves to exactly one outcome.
        // With snapshots on, each `ldl` init consults exactly once —
        // including inits that then die on the cold path (a crash can
        // leave a committed instance without its metadata; the retry-
        // free "file exists" failure is logged), which consult without
        // ever completing into `init_links`.
        let failed_inits = on_world
            .log
            .iter()
            .filter(|l| l.contains("ldl init failed"))
            .count() as u64;
        assert_eq!(
            s.snapshot_hits + s.snapshot_misses + s.snapshot_invalidations,
            s.ldl.init_links + failed_inits,
            "k={k}: respawn outcomes must partition: {s:?}"
        );
    }
    // The sweep crossed the commit point: early deaths miss (or
    // invalidate a torn record), the late ones validate and hit.
    assert!(hits > 0, "no crash point produced a clean warm hit");
    assert!(
        misses + invals > 0,
        "no crash point produced a lost or torn snapshot"
    );
}

// --- 6. sanitizer + chaos independence ---------------------------------

/// hsan verdicts are snapshot-blind: the lock-elided racy counter
/// (cf. `e11_smp.rs`) reports the same races from the same PCs whether
/// the workers linked through a snapshot hit or a full resolve.
#[test]
fn sanitizer_verdicts_are_identical_with_snapshots_off() {
    let run = |snapshots: bool| {
        let (_, world) = run_counter(COUNTER_ELIDED, 4, 4, |w| w.set_link_snapshots(snapshots));
        (world.stats().races_detected, world.races().to_vec(), world)
    };
    let (on_count, on_races, on_world) = run(true);
    let (off_count, off_races, _) = run(false);
    assert!(on_count >= 1, "elided lock must race");
    assert_eq!(on_count, off_count, "same verdict count");
    assert_eq!(on_races, off_races, "same races, same PCs");
    assert!(
        on_world.stats().snapshot_misses > 0,
        "the snapshot path must actually run"
    );
}

// --- 7. one write per lifetime (staged per link, flushed at exit) -----

/// Installs an `n`-module lazy `.uses` chain plus a main that walks all
/// of it (cf. `e2_lazy_linking`): `mod_i` calls `mod_{i+1}`, the last
/// returns its index, so the program exits with `n - 1` after exactly
/// `n - 1` lazy links (the tail has no references to resolve, so it is
/// mapped linked). Each module exports a data word `pad<i>`. With
/// `spin`, main then burns that many loop iterations before exiting,
/// leaving a window in which every link is done but the process lives.
fn build_lazy_chain(world: &mut World, n: usize, spin: u32) -> String {
    for i in 0..n {
        let body = if i + 1 < n {
            format!(
                ".module mod{i}\n.uses mod{next}\n.text\n.globl mod{i}_fn\n\
                 mod{i}_fn: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 addi a0, a0, -1\nblez a0, stop\njal mod{next}_fn\n\
                 b out\nstop: li v0, {i}\nout: lw ra, 0(sp)\naddi sp, sp, 8\njr ra\n\
                 .data\n.globl pad{i}\npad{i}: .word 0\n",
                next = i + 1
            )
        } else {
            format!(
                ".module mod{i}\n.text\n.globl mod{i}_fn\nmod{i}_fn: li v0, {i}\njr ra\n\
                 .data\n.globl pad{i}\npad{i}: .word 0\n"
            )
        };
        world
            .install_template(&format!("/shared/lib/mod{i}.o"), &body)
            .unwrap();
    }
    world
        .install_template(
            "/src/lazymain.o",
            &format!(
                ".module lazymain\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 li a0, {n}\njal mod0_fn\nli r9, {spin}\n\
                 spin: blez r9, done\naddi r9, r9, -1\nb spin\n\
                 done: lw ra, 0(sp)\naddi sp, sp, 8\njr ra\n"
            ),
        )
        .unwrap();
    world
        .link(
            "/bin/lazychain",
            &[
                ("/src/lazymain.o", ShareClass::StaticPrivate),
                ("/shared/lib/mod0.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

fn lazy_snap_path(world: &World) -> String {
    hlink::snapshot::path_for(&world.kernel.vfs, "/bin/lazychain")
}

/// A fresh snapshots-on world with a trace ring big enough to keep
/// every record of the scenario.
fn traced_world() -> World {
    let mut world = World::new();
    world.set_link_snapshots(true);
    *world.trace_mut() = TraceBuffer::new(1 << 20);
    world
}

/// A cold lifetime of an n-module lazy chain performs n resolves (init
/// plus a lazy link per module but the tail) but writes its prelink
/// record exactly once, at exit.
#[test]
fn cold_chain_lifetime_writes_its_snapshot_once() {
    const N: usize = 12;
    let mut world = traced_world();
    let exe = build_lazy_chain(&mut world, N, 0);
    let code = run_prog(&mut world, &exe);
    assert_eq!(code, N as i32 - 1, "log: {:?}", world.log);
    let s = world.stats();
    assert_eq!(
        s.ldl.lazy_links,
        N as u64 - 1,
        "every module but the tail linked lazily"
    );
    assert_eq!(s.snapshot_misses, 1);
    assert_eq!(s.snapshot_rebuilds, 1, "{s:?}");
    assert_eq!(trace_count(&world, "SnapshotRebuilt"), 1);
    let path = lazy_snap_path(&world);
    let snap = hlink::snapshot::load(&mut world.kernel.vfs, &path)
        .unwrap()
        .expect("the exit flush wrote the record");
    assert_eq!(snap.modules.len(), N, "the record holds the whole chain");
    // Entries carried over from earlier stages must match the final
    // link map as if built fresh: lazy bits and pendings moved after
    // most entries were first staged.
    let pid = world.kernel.procs.keys().copied().min().unwrap();
    let state = world.link_state(pid).unwrap().clone();
    for m in &snap.modules {
        let live = &state.modules[&m.name];
        assert_eq!(
            (m.class, Some(m.ino), m.lazy, m.tramp_used, &m.pending),
            (live.class, live.ino, live.lazy, live.tramp.2, &live.pending),
            "{}",
            m.name
        );
        assert_eq!(m.parents, state.dag.parents_of(&m.name));
        let bytes = world.kernel.vfs.read_all(&m.path).unwrap();
        assert_eq!(m.content_digest, hobj::binfmt::crc32(&bytes), "{}", m.name);
    }
    // And the record is coherent: the next boot hits, and right after
    // the hit's init its link map is the storing process's final one,
    // field by field, though the record holds no layout, exports or
    // search information of its own.
    world.reboot();
    let pid = world.spawn(&exe).unwrap();
    while world.ldl_stats(pid).map_or(0, |s| s.init_links) == 0 {
        assert_eq!(world.run(1), WorldExit::StepLimit, "log: {:?}", world.log);
    }
    assert_eq!(world.ldl_stats(pid).unwrap().snapshot_hits, 1);
    let hit = world.link_state(pid).unwrap();
    assert_eq!(hit.modules.len(), state.modules.len());
    for (name, cold) in &state.modules {
        let warm = &hit.modules[name];
        assert_eq!(
            (
                warm.base,
                warm.total_len,
                warm.tramp,
                &warm.exports,
                &warm.search,
                &warm.pending,
                warm.lazy,
                warm.class,
                warm.ino
            ),
            (
                cold.base,
                cold.total_len,
                cold.tramp,
                &cold.exports,
                &cold.search,
                &cold.pending,
                cold.lazy,
                cold.class,
                cold.ino
            ),
            "{name}"
        );
        assert_eq!(
            hit.dag.parents_of(name),
            state.dag.parents_of(name),
            "{name}"
        );
    }
    assert_eq!(world.run(RUN_SLICES), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(N as i32 - 1));
    assert_eq!(world.stats().snapshot_hits, 1);
}

/// A module's metadata record replaced between boots over unchanged
/// module bytes (here: an extra export). The record's digest is the
/// metadata envelope's own trailer, so the next boot rejects the
/// snapshot and names the record — it never hits, which would map the
/// module with exports it was not resolved against — and the full
/// resolve that follows still computes the right answer.
#[test]
fn metadata_replaced_between_boots_invalidates_never_hits() {
    let mut world = traced_world();
    let exe = build_chain(&mut world);
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
    assert_eq!(world.stats().snapshot_rebuilds, 1);
    let content = world.kernel.vfs.read_all("/shared/lib/lib2").unwrap();
    let ino = world.kernel.vfs.resolve("/shared/lib/lib2").unwrap().ino;
    let mut meta = world
        .registry
        .get(&mut world.kernel.vfs, ino)
        .unwrap()
        .clone();
    meta.exports.push(("f2_alias".into(), meta.base));
    world
        .registry
        .put(&mut world.kernel.vfs, ino, meta)
        .unwrap();
    assert_eq!(
        world.kernel.vfs.read_all("/shared/lib/lib2").unwrap(),
        content,
        "only the metadata record changed"
    );
    world.reboot();
    let before = world.stats();
    assert_eq!(
        run_prog(&mut world, &exe),
        CHAIN_ANSWER,
        "log: {:?}",
        world.log
    );
    let s = world.stats();
    assert_eq!(s.snapshot_hits, before.snapshot_hits, "{s:?}");
    assert_eq!(
        s.snapshot_invalidations,
        before.snapshot_invalidations + 1,
        "{s:?}"
    );
    let why: Vec<String> = world
        .trace()
        .records()
        .filter(|r| r.event.kind() == "SnapshotInvalidated")
        .map(|r| r.event.to_string())
        .collect();
    assert_eq!(why.len(), 1);
    assert!(
        why[0].contains("module `lib2`: metadata changed"),
        "{why:?}"
    );
}

/// Unpriced snapshot I/O per module stays flat as the chain grows:
/// each module is digested when it is linked, not again at every later
/// link, and the record is written once. A rebuild-per-link design
/// re-reads every linked module at every link, so its per-module
/// figure grows with n.
#[test]
fn unpriced_bytes_grow_linearly_in_chain_length() {
    let per_module: Vec<f64> = [10usize, 20, 40, 80, 160]
        .iter()
        .map(|&n| {
            let mut world = World::new();
            world.set_link_snapshots(true);
            let exe = build_lazy_chain(&mut world, n, 0);
            let before = world.stats().unpriced_bytes;
            assert_eq!(run_prog(&mut world, &exe), n as i32 - 1);
            let moved = world.stats().unpriced_bytes - before;
            assert!(moved > 0, "n={n}: the snapshot path must run");
            moved as f64 / n as f64
        })
        .collect();
    let lo = per_module.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = per_module.iter().copied().fold(0.0, f64::max);
    assert!(
        hi <= 1.5 * lo,
        "unpriced bytes per module must stay flat across n: {per_module:?}"
    );
}

/// Rewriting a linked module's bytes between two lazy links of one
/// lifetime: the flushed record carries that module's digest as of the
/// *last* link (which saw the rewrite), not as of its own link. A
/// second rewrite after the last link is not in the record, so the
/// next boot rejects the record instead of believing it.
#[test]
fn rewrite_between_links_flushes_the_digest_as_of_the_last_link() {
    const N: usize = 4;
    let mut world = traced_world();
    let exe = build_lazy_chain(&mut world, N, 20_000);
    let pid = world.spawn(&exe).unwrap();
    let lazy_links = |w: &World| w.ldl_stats(pid).unwrap().lazy_links;
    while lazy_links(&world) < 1 {
        assert_eq!(world.run(1), WorldExit::StepLimit, "log: {:?}", world.log);
    }
    world
        .poke_shared_word("/shared/lib/mod0", "pad0", 0xA11C_E5ED)
        .unwrap();
    let after_rewrite =
        hobj::binfmt::crc32(&world.kernel.vfs.read_all("/shared/lib/mod0").unwrap());
    while lazy_links(&world) < N as u64 - 1 {
        assert_eq!(world.run(1), WorldExit::StepLimit, "log: {:?}", world.log);
    }
    // Every link done, the process still spinning: rewrite again.
    world
        .poke_shared_word("/shared/lib/mod0", "pad0", 0xB0B0_B0B0)
        .unwrap();
    assert_eq!(world.run(RUN_SLICES), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(N as i32 - 1));
    assert_eq!(world.stats().snapshot_rebuilds, 1);
    let path = lazy_snap_path(&world);
    let snap = hlink::snapshot::load(&mut world.kernel.vfs, &path)
        .unwrap()
        .expect("record written at exit");
    let mod0 = snap.modules.iter().find(|m| m.name == "mod0").unwrap();
    assert_eq!(
        mod0.content_digest, after_rewrite,
        "mod0's digest must be the one the last link saw"
    );
    // The record predates the second rewrite, so it must not validate.
    world.reboot();
    assert_eq!(run_prog(&mut world, &exe), N as i32 - 1);
    let s = world.stats();
    assert_eq!(s.snapshot_hits, 0, "{s:?}");
    assert_eq!(s.snapshot_invalidations, 1, "{s:?}");
}

/// A module page poisoned (uncorrectably corrupt) when the record is
/// staged: its digest cannot be taken, nothing is staged, and the
/// lifetime — which dies touching the page — writes no record. The
/// stored record from the earlier boot is left exactly as it was.
#[test]
fn poisoned_module_page_at_stage_time_writes_no_record() {
    let mut world = traced_world();
    let exe = build_chain(&mut world);
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
    world.barrier();
    let path = snap_path(&world);
    let stored = world.kernel.vfs.read_all(&path).unwrap();
    let size = world.kernel.vfs.stat("/shared/lib/lib2").unwrap().size;
    for b in 0..size.div_ceil(u64::from(hsfs::BLOCK_SIZE)) {
        assert!(world.corrupt_shared_block("/shared/lib/lib2", b, hsfs::CorruptKind::BitRot));
        assert!(world.corrupt_shared_replica("/shared/lib/lib2", b));
    }
    world.power_cut();
    world.reboot();
    assert!(world.poisoned_blocks() > 0, "log: {:?}", world.log);
    let before = world.stats();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run(RUN_SLICES), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(135), "log: {:?}", world.log);
    let s = world.stats();
    assert_eq!(s.snapshot_invalidations, before.snapshot_invalidations + 1);
    assert_eq!(s.snapshot_rebuilds, before.snapshot_rebuilds, "{s:?}");
    assert_eq!(world.kernel.vfs.read_all(&path).unwrap(), stored);
}

/// A module page poisoned *after* the boot that stored the record
/// (the record is good: the boot in between hits it). The next boot's
/// validation cannot read the module back, so it invalidates — never
/// hits a record whose module it could not check — and names the
/// module; the full resolve that follows stages nothing (the digest
/// cannot be taken), and the lifetime ends in the contained exit of
/// touching the page, whichever module of the chain was hit.
#[test]
fn module_poisoned_after_the_storing_boot_invalidates_never_hits() {
    const N: usize = 4;
    for victim in 0..N {
        let mut world = traced_world();
        let exe = build_lazy_chain(&mut world, N, 0);
        assert_eq!(run_prog(&mut world, &exe), N as i32 - 1);
        world.reboot();
        assert_eq!(run_prog(&mut world, &exe), N as i32 - 1);
        assert_eq!(world.stats().snapshot_hits, 1, "the stored record is good");
        let path = lazy_snap_path(&world);
        let stored = world.kernel.vfs.read_all(&path).unwrap();
        let module = format!("/shared/lib/mod{victim}");
        let size = world.kernel.vfs.stat(&module).unwrap().size;
        for b in 0..size.div_ceil(u64::from(hsfs::BLOCK_SIZE)) {
            assert!(world.corrupt_shared_block(&module, b, hsfs::CorruptKind::BitRot));
            assert!(world.corrupt_shared_replica(&module, b));
        }
        world.power_cut();
        world.reboot();
        assert!(world.poisoned_blocks() > 0, "log: {:?}", world.log);
        let before = world.stats();
        let pid = world.spawn(&exe).unwrap();
        assert_eq!(world.run(RUN_SLICES), WorldExit::AllExited);
        let s = world.stats();
        assert_eq!(
            s.snapshot_hits, before.snapshot_hits,
            "victim mod{victim}: {s:?}"
        );
        assert_eq!(
            s.snapshot_invalidations,
            before.snapshot_invalidations + 1,
            "victim mod{victim}: {s:?}"
        );
        let why: Vec<String> = world
            .trace()
            .records()
            .filter(|r| r.event.kind() == "SnapshotInvalidated")
            .map(|r| r.event.to_string())
            .collect();
        assert_eq!(why.len(), 1);
        assert!(
            why[0].contains(&format!("module `mod{victim}`: instance unreadable")),
            "{why:?}"
        );
        assert_eq!(
            world.exit_code(pid),
            Some(135),
            "victim mod{victim}: log: {:?}",
            world.log
        );
        // A stage that cannot digest the victim keeps whatever record
        // was staged before it. With mod0 poisoned nothing is ever
        // staged, so the old record stays as it was; otherwise it may
        // be replaced by one covering the modules staged before the
        // victim was mapped, but never one that lists the victim.
        if victim == 0 {
            assert_eq!(s.snapshot_rebuilds, before.snapshot_rebuilds, "{s:?}");
            assert_eq!(world.kernel.vfs.read_all(&path).unwrap(), stored);
        }
        let snap = hlink::snapshot::load(&mut world.kernel.vfs, &path)
            .unwrap()
            .expect("a record stays stored");
        let victim_name = format!("mod{victim}");
        assert!(
            victim == 0 || snap.modules.iter().all(|m| m.name != victim_name),
            "victim mod{victim} recorded"
        );
    }
}

/// Runs the stored chain as the boot's first spawn after `hazard` has
/// moved lib2's live bytes ahead of its block stamps, and checks that
/// validation read the bytes instead of folding the stale stamps: the
/// record is rejected as rewritten, never hit, and the full resolve
/// still computes the answer.
fn live_bytes_ahead_of_the_stamps_invalidate(hazard: impl FnOnce(&mut World, u32)) {
    let mut world = traced_world();
    let exe = build_chain(&mut world);
    assert_eq!(run_prog(&mut world, &exe), CHAIN_ANSWER);
    world.reboot();
    let ino = world.kernel.vfs.resolve("/shared/lib/lib2").unwrap().ino;
    assert!(
        world.kernel.vfs.shared.fs.durable_digest(ino).is_some(),
        "after a clean boot the stamps vouch for lib2"
    );
    let pad = world
        .registry
        .get(&mut world.kernel.vfs, ino)
        .map(|m| m.find_export("pad").unwrap() - m.base)
        .unwrap();
    hazard(&mut world, pad);
    assert_eq!(world.kernel.vfs.shared.fs.durable_digest(ino), None);
    let before = world.stats();
    assert_eq!(
        run_prog(&mut world, &exe),
        CHAIN_ANSWER,
        "log: {:?}",
        world.log
    );
    let s = world.stats();
    assert_eq!(s.snapshot_hits, before.snapshot_hits, "stale hit: {s:?}");
    assert_eq!(
        s.snapshot_invalidations,
        before.snapshot_invalidations + 1,
        "{s:?}"
    );
    let why: Vec<String> = world
        .trace()
        .records()
        .filter(|r| r.event.kind() == "SnapshotInvalidated")
        .map(|r| r.event.to_string())
        .collect();
    assert_eq!(why.len(), 1);
    assert!(
        why[0].contains("module `lib2`: content rewritten"),
        "{why:?}"
    );
}

/// A mapped store into a module with no barrier after it: the dirt is
/// not yet journaled, so the stamps still describe the old bytes.
#[test]
fn unbarriered_mapped_store_before_the_first_spawn_invalidates() {
    live_bytes_ahead_of_the_stamps_invalidate(|world, _| {
        world
            .poke_shared_word("/shared/lib/lib2", "pad", 0xDEAD_BEEF)
            .unwrap();
    });
}

/// The device dies, then a module is rewritten through the ordinary
/// write path in the same boot: the live bytes move, but the dead
/// device discards the write and the stamps with it.
#[test]
fn write_after_device_death_invalidates_in_the_same_boot() {
    live_bytes_ahead_of_the_stamps_invalidate(|world, pad| {
        let k = world.disk_seq();
        world.set_crash_at(k, false);
        world
            .kernel
            .vfs
            .write(
                "/shared/lib/lib2",
                u64::from(pad),
                &0xDEAD_BEEFu32.to_le_bytes(),
            )
            .unwrap();
        assert!(world.kernel.vfs.shared.fs.device_dead());
    });
}

/// A fork child inherits its parent's link map but not its staged
/// record: a child that links nothing writes nothing, and the parent's
/// exit writes the lifetime's one record.
#[test]
fn fork_child_that_links_nothing_writes_nothing() {
    let mut world = traced_world();
    world.install_template("/shared/lib/lib1.o", LIB1).unwrap();
    world.install_template("/shared/lib/lib2.o", LIB2).unwrap();
    world
        .install_template(
            "/src/forker.o",
            r#"
.module forker
.text
.globl main
main:   li   v0, 6              ; fork
        syscall
        beq  v0, r0, child
        li   v0, 16             ; waitpid(any)
        li   a0, 0
        syscall
        addi sp, sp, -8
        sw   ra, 0(sp)
        jal  f1
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
child:  li   v0, 1              ; exit(7) before touching any module
        li   a0, 7
        syscall
"#,
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/forker",
            &[
                ("/src/forker.o", ShareClass::StaticPrivate),
                ("/shared/lib/lib1.o", ShareClass::DynamicPublic),
                ("/shared/lib/lib2.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let code = run_prog(&mut world, &exe);
    assert_eq!(code, CHAIN_ANSWER, "log: {:?}", world.log);
    let parent = world.kernel.procs.keys().copied().min().unwrap();
    assert_eq!(world.stats().kernel.forks, 1);
    let writers: Vec<u32> = world
        .trace()
        .records()
        .filter(|r| r.event.kind() == "SnapshotRebuilt")
        .map(|r| r.pid)
        .collect();
    assert_eq!(writers, vec![parent], "only the parent writes");
    assert_eq!(world.stats().snapshot_rebuilds, 1);
}

/// A power cut after every link but before exit: the staged record is
/// lost with the machine, the next boot misses (never believes a record
/// that was not written), re-resolves, and the program still exits
/// with the right code.
#[test]
fn power_cut_before_exit_loses_only_the_staged_record() {
    const N: usize = 6;
    let mut world = traced_world();
    let exe = build_lazy_chain(&mut world, N, 200_000);
    world.barrier();
    let pid = world.spawn(&exe).unwrap();
    while world.ldl_stats(pid).unwrap().lazy_links < N as u64 - 1 {
        assert_eq!(world.run(1), WorldExit::StepLimit, "log: {:?}", world.log);
    }
    assert!(world.link_state(pid).unwrap().snapshot_staged());
    assert!(
        world.kernel.vfs.read_all(&lazy_snap_path(&world)).is_err(),
        "nothing is written before a flush point"
    );
    world.power_cut();
    world.reboot();
    let before = world.stats();
    assert_eq!(run_prog(&mut world, &exe), N as i32 - 1);
    let s = world.stats();
    assert_eq!(s.snapshot_hits, before.snapshot_hits, "{s:?}");
    assert_eq!(
        (s.snapshot_misses + s.snapshot_invalidations)
            - (before.snapshot_misses + before.snapshot_invalidations),
        1,
        "{s:?}"
    );
    assert_eq!(s.snapshot_rebuilds, before.snapshot_rebuilds + 1);
}

/// The other quiescent points: `World::barrier` stores the staged
/// record of a process that is still running (so it survives a later
/// power cut and the next boot hits), and so does a clean reboot.
#[test]
fn barrier_and_clean_halt_flush_live_processes() {
    const N: usize = 6;
    for via_barrier in [true, false] {
        let mut world = traced_world();
        let exe = build_lazy_chain(&mut world, N, 200_000);
        let pid = world.spawn(&exe).unwrap();
        while world.ldl_stats(pid).unwrap().lazy_links < N as u64 - 1 {
            assert_eq!(world.run(1), WorldExit::StepLimit, "log: {:?}", world.log);
        }
        if via_barrier {
            world.barrier();
            assert!(!world.link_state(pid).unwrap().snapshot_staged());
            assert_eq!(world.stats().snapshot_rebuilds, 1);
            world.power_cut();
        }
        world.reboot();
        assert_eq!(trace_count(&world, "SnapshotRebuilt"), 1);
        assert_eq!(run_prog(&mut world, &exe), N as i32 - 1);
        let s = world.stats();
        assert_eq!(s.snapshot_hits, 1, "via_barrier={via_barrier}: {s:?}");
    }
}

// --- 7. incremental staging equals a from-scratch rebuild -------------

/// Runs `world` one slice at a time until every process has exited.
/// After each slice in which a process resolved (init or a lazy link,
/// each of which stages a record), the record it staged must equal a
/// from-scratch rebuild of its link map (`Ldl::snapshot_from_scratch`).
/// `between` runs after every slice. Returns how many stages were
/// compared.
fn assert_staging_matches_rebuild(world: &mut World, mut between: impl FnMut(&mut World)) -> u64 {
    let mut resolves_seen = std::collections::HashMap::new();
    let mut compared = 0;
    for _ in 0..RUN_SLICES {
        let exit = world.run(1);
        let pids: Vec<_> = world.kernel.procs.keys().copied().collect();
        for pid in pids {
            let Some(s) = world.ldl_stats(pid) else {
                continue;
            };
            let resolves = s.init_links + s.lazy_links;
            if resolves_seen.insert(pid, resolves).unwrap_or(0) == resolves {
                continue;
            }
            let live = world.link_state(pid).unwrap();
            assert!(live.snapshot_staged(), "pid {pid}: a resolve stages");
            let staged = live.staged_record().cloned();
            let mut scratch = live.clone();
            let reference =
                hlink::Ldl::new(&mut world.kernel, &mut world.registry, &mut scratch, pid)
                    .snapshot_from_scratch();
            assert!(reference.is_some(), "pid {pid}: the rebuild must succeed");
            assert_eq!(staged, reference, "pid {pid} after {resolves} resolves");
            compared += 1;
        }
        if exit == WorldExit::AllExited {
            return compared;
        }
        between(world);
    }
    panic!("the scenario did not finish; log: {:?}", world.log);
}

/// The staged record is built incrementally — only modules marked
/// dirty since the last stage get fresh entries — yet at every stage
/// it equals the record a from-scratch rebuild gives: along a lazy
/// chain, with a linked module rewritten (digest re-taken), another
/// renamed (path re-derived) and a third's metadata record replaced
/// between two links; in a fork child that links on its own after
/// inheriting its parent's record; with a module-owned runtime
/// trampoline; and for an image whose init only warns.
#[test]
fn incremental_staging_equals_a_from_scratch_rebuild_at_every_stage() {
    // A lazy chain, with a rewrite after the first lazy link, a rename
    // after the second and a replaced record after the third.
    const N: usize = 6;
    let mut world = traced_world();
    let exe = build_lazy_chain(&mut world, N, 0);
    let pid = world.spawn(&exe).unwrap();
    let mut step = 0;
    let compared = assert_staging_matches_rebuild(&mut world, |w| {
        let lazy = w.ldl_stats(pid).map_or(0, |s| s.lazy_links);
        if step == 0 && lazy >= 1 {
            w.poke_shared_word("/shared/lib/mod0", "pad0", 0xA11C_E5ED)
                .unwrap();
            step = 1;
        } else if step == 1 && lazy >= 2 {
            w.kernel
                .vfs
                .rename("/shared/lib/mod1", "/shared/lib/mod1.moved")
                .unwrap();
            step = 2;
        } else if step == 2 && lazy >= 3 {
            let ino = w.kernel.vfs.resolve("/shared/lib/mod0").unwrap().ino;
            let mut meta = w.registry.get(&mut w.kernel.vfs, ino).unwrap().clone();
            meta.exports.push(("mod0_alias".into(), meta.base));
            w.registry.put(&mut w.kernel.vfs, ino, meta).unwrap();
            step = 3;
        }
    });
    assert_eq!(step, 3);
    assert_eq!(
        compared, N as u64,
        "init plus a lazy link per module but the tail"
    );
    assert_eq!(
        world.exit_code(pid),
        Some(N as i32 - 1),
        "log: {:?}",
        world.log
    );
    let path = lazy_snap_path(&world);
    let snap = hlink::snapshot::load(&mut world.kernel.vfs, &path)
        .unwrap()
        .expect("record written at exit");
    let mod1 = snap.modules.iter().find(|m| m.name == "mod1").unwrap();
    assert_eq!(mod1.path, "/shared/lib/mod1.moved");

    // A fork child that links on its own, then its parent.
    let mut world = traced_world();
    world.install_template("/shared/lib/lib1.o", LIB1).unwrap();
    world.install_template("/shared/lib/lib2.o", LIB2).unwrap();
    world
        .install_template(
            "/src/forklink.o",
            r#"
.module forklink
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        li   v0, 6              ; fork
        syscall
        beq  v0, r0, child
        li   v0, 16             ; waitpid(any)
        li   a0, 0
        syscall
        jal  f1
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
child:  jal  f1
        or   a0, v0, r0         ; exit(f1())
        li   v0, 1
        syscall
"#,
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/forklink",
            &[
                ("/src/forklink.o", ShareClass::StaticPrivate),
                ("/shared/lib/lib1.o", ShareClass::DynamicPublic),
                ("/shared/lib/lib2.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let parent = world.spawn(&exe).unwrap();
    let compared = assert_staging_matches_rebuild(&mut world, |_| {});
    assert_eq!(world.stats().kernel.forks, 1);
    assert_eq!(
        world.exit_code(parent),
        Some(CHAIN_ANSWER),
        "log: {:?}",
        world.log
    );
    let child = world.kernel.procs.keys().copied().max().unwrap();
    assert_eq!(world.exit_code(child), Some(CHAIN_ANSWER));
    assert_eq!(
        world.ldl_stats(child).unwrap().lazy_links,
        1,
        "the child links lib1"
    );
    assert_eq!(compared, 1 + 1 + 1, "parent init, child link, parent link");

    // A module that calls back into the image: the out-of-region jump
    // is routed through a trampoline in the module's own area.
    let mut world = traced_world();
    world
        .install_template(
            "/shared/lib/cb.o",
            r#"
.module cb
.text
.globl cb_fn
cb_fn:  addi sp, sp, -8
        sw   ra, 0(sp)
        jal  host_add
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#,
        )
        .unwrap();
    world
        .install_template(
            "/src/cbmain.o",
            r#"
.module cbmain
.text
.globl main
.globl host_add
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        li   a0, 5
        jal  cb_fn
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
host_add:
        addi v0, a0, 1
        jr   ra
"#,
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/cbmain",
            &[
                ("/src/cbmain.o", ShareClass::StaticPrivate),
                ("/shared/lib/cb.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    let compared = assert_staging_matches_rebuild(&mut world, |_| {});
    assert_eq!(compared, 2, "init and the lazy link of cb");
    assert_eq!(world.exit_code(pid), Some(6), "log: {:?}", world.log);
    assert!(world.stats().ldl.trampolines >= 1);
    let path = hlink::snapshot::path_for(&world.kernel.vfs, "/bin/cbmain");
    let snap = hlink::snapshot::load(&mut world.kernel.vfs, &path)
        .unwrap()
        .expect("record written at exit");
    let cb = snap.modules.iter().find(|m| m.name == "cb").unwrap();
    assert!(
        cb.tramp_used > 0,
        "cb's own area holds the trampoline: {}",
        cb.tramp_used
    );

    // An image whose init stages nothing but a warning: its one
    // dynamic module is gone by the time it runs.
    let mut world = traced_world();
    world.install_template("/shared/lib/lib2.o", LIB2).unwrap();
    world
        .install_template(
            "/src/quiet.o",
            ".module quiet\n.text\n.globl main\nmain: li v0, 0\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/quiet",
            &[
                ("/src/quiet.o", ShareClass::StaticPrivate),
                ("/shared/lib/lib2.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    world.kernel.vfs.unlink("/shared/lib/lib2.o").unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(assert_staging_matches_rebuild(&mut world, |_| {}), 1);
    assert_eq!(world.exit_code(pid), Some(0), "log: {:?}", world.log);
    let path = hlink::snapshot::path_for(&world.kernel.vfs, "/bin/quiet");
    let snap = hlink::snapshot::load(&mut world.kernel.vfs, &path)
        .unwrap()
        .expect("record written at exit");
    assert_eq!(snap.warnings.len(), 1, "{:?}", snap.warnings);
}
