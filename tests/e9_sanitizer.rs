//! E9 — the happens-before sanitizer (`crates/hsan`, DESIGN.md §9).
//!
//! Four claims are tested here:
//!
//! 1. **Zero perturbation** (differential harness): arming the sanitizer
//!    changes *nothing* observable — console output, exit codes, and
//!    simulated time are bit-identical to an unarmed run.
//! 2. **Soundness on disciplined code** (property): an N-worker shared
//!    counter guarded by the test-and-set trap reports zero races under
//!    any scheduling quantum.
//! 3. **Completeness on the seeded bug** (property + acceptance): the
//!    lock-elided variant of the same program reports the race, naming
//!    the shared segment's path, the offset of the counter word, and
//!    both racing PCs.
//! 4. **No false positives under chaos**: the E8 scenarios run armed
//!    with fault injection report no races, and the sanitizer does not
//!    perturb chaos determinism.

use bench::fixtures::{
    build_counter_world, cpus_override, COUNTER_ELIDED, COUNTER_LOCKED, SETTLE_SLICES,
};
use hemlock::{CostModel, FaultPlan, ShareClass, World, WorldExit};
use proptest::prelude::*;

/// Everything a differential run is judged on.
#[derive(Debug, PartialEq, Eq)]
struct Observables {
    exit: WorldExit,
    exits: Vec<Option<i32>>,
    consoles: Vec<String>,
    sim_time: hemlock::SimTime,
    count: u32,
}

/// Runs `workers` copies of the worker with the given quantum,
/// optionally armed, and collects every guest-observable.
fn run_counter(
    worker_src: &str,
    workers: usize,
    quantum: u64,
    armed: bool,
) -> (Observables, World) {
    let (mut world, exe) = build_counter_world(worker_src);
    world.set_cpus(cpus_override());
    if armed {
        world.arm_sanitizer();
    }
    let mut pids = Vec::new();
    for _ in 0..workers {
        pids.push(world.spawn(&exe).unwrap());
    }
    world.quantum = quantum;
    let exit = world.run_to_settle(SETTLE_SLICES).expect("world settles");
    let stats = world.stats();
    let obs = Observables {
        exit,
        exits: pids.iter().map(|p| world.exit_code(*p)).collect(),
        consoles: pids.iter().map(|p| world.console(*p)).collect(),
        sim_time: CostModel::default().time(&stats),
        count: world
            .peek_shared_word("/shared/lib/shcount", "count")
            .unwrap(),
    };
    (obs, world)
}

/// Byte offset of an exported word within its shared segment file.
fn export_offset(world: &mut World, instance: &str, symbol: &str) -> u32 {
    let vnode = world.kernel.vfs.resolve(instance).unwrap();
    let meta = world
        .registry
        .get(&mut world.kernel.vfs, vnode.ino)
        .unwrap();
    meta.find_export(symbol).unwrap() - meta.base
}

// --- 1. the differential harness ------------------------------------

/// Armed and unarmed runs of the *same* program are bit-identical in
/// every guest observable: consoles, exit codes, simulated time, and
/// the final counter value. The sanitizer watches; it never touches.
#[test]
fn armed_run_is_observably_identical() {
    for (src, label) in [(COUNTER_LOCKED, "locked"), (COUNTER_ELIDED, "elided")] {
        let (unarmed, _) = run_counter(src, 3, 50, false);
        let (armed, world) = run_counter(src, 3, 50, true);
        assert_eq!(unarmed, armed, "{label}: armed run perturbed the guest");
        // The armed run did real work on the side.
        let stats = world.stats();
        assert!(stats.sync_edges > 0, "{label}: no sync edges observed");
    }
}

/// The unarmed fast path stays free: no sanitizer counters move.
#[test]
fn unarmed_world_reports_nothing() {
    let (_, world) = run_counter(COUNTER_ELIDED, 3, 50, false);
    let stats = world.stats();
    assert!(!world.sanitizer_armed());
    assert_eq!(stats.races_detected, 0);
    assert_eq!(stats.sync_edges, 0);
    assert_eq!(stats.shadow_bytes, 0);
    assert!(world.races().is_empty());
}

// --- 2 & 3. the property: locked clean, elided caught ----------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any scheduling quantum, any worker count: the TAS-guarded counter
    /// is race-free, sums correctly, and the lock-elided twin of the
    /// same schedule is reported — naming the segment and the counter's
    /// offset.
    #[test]
    fn lock_discipline_separates_clean_from_racy(
        quantum in 10u64..400,
        workers in 2usize..5,
    ) {
        // Disciplined: zero reports, correct sum.
        let (obs, world) = run_counter(COUNTER_LOCKED, workers, quantum, true);
        prop_assert_eq!(world.stats().races_detected, 0, "log: {:?}", world.log);
        prop_assert!(world.races().is_empty());
        prop_assert_eq!(obs.count, workers as u32 * 5);
        prop_assert_eq!(obs.exit, WorldExit::AllExited);

        // Lock-elided: the race is reported and located.
        let (_, mut world) = run_counter(COUNTER_ELIDED, workers, quantum, true);
        let stats = world.stats();
        prop_assert!(stats.races_detected >= 1, "elided lock went unreported");
        let count_off = export_offset(&mut world, "/shared/lib/shcount", "count");
        let races = world.races();
        prop_assert!(!races.is_empty());
        let r = &races[0];
        prop_assert_eq!(&r.path[..], "/shared/lib/shcount");
        prop_assert_eq!(r.offset, count_off, "race must name the counter word");
        prop_assert!(r.first_pid != r.second_pid, "cross-process by definition");
    }
}

// --- 3b. the acceptance test: both PCs, precisely --------------------

/// The seeded race is reported with *both* racing PCs, and they are the
/// worker's actual load/store instructions — provable because every
/// worker runs the identical image, so the PCs must fall inside the
/// worker module's text and differ only by the access kind.
#[test]
fn race_report_names_both_pcs_and_the_segment() {
    let (_, world) = run_counter(COUNTER_ELIDED, 3, 50, true);
    let races = world.races();
    assert!(!races.is_empty(), "log: {:?}", world.log);
    let r = &races[0];
    assert_eq!(r.path, "/shared/lib/shcount");
    assert_ne!(r.first_pid, r.second_pid);
    assert_ne!(r.first_pc, 0, "first PC recorded");
    assert_ne!(r.second_pc, 0, "second PC recorded");
    assert!(r.second_is_write || r.first_is_write, "at least one store");
    // The trace ring carries the same finding at zero simulated cost.
    let race_records: Vec<_> = world
        .trace()
        .records()
        .filter(|rec| rec.event.kind() == "RaceDetected")
        .collect();
    assert_eq!(race_records.len(), races.len());
    assert!(race_records.iter().all(|rec| rec.cost_ns == 0));
    // And the log names the path for humans.
    assert!(world
        .log
        .iter()
        .any(|l| l.contains("data race on /shared/lib/shcount")));
}

/// Racing on one word must not silence a later race on a different
/// word, and each word is reported at most once.
#[test]
fn one_report_per_raced_word() {
    let (_, world) = run_counter(COUNTER_ELIDED, 4, 30, true);
    let races = world.races();
    let mut offsets: Vec<u32> = races.iter().map(|r| r.offset).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len(), races.len(), "duplicate report for a word");
}

// --- 3c. memory-pressure interaction ---------------------------------

/// The differential harness under thrash (E10): with the frame budget
/// squeezed to half the unbounded peak, arming the sanitizer still
/// changes *nothing* — not the guest observables, not the simulated
/// time, and not a single eviction decision. The monitor only ever
/// fires after a successful translation, so repage faults are observed
/// exactly once and the clock hand never sees the difference.
#[test]
fn armed_run_is_identical_under_thrash() {
    let run_pressured = |armed: bool, budget: Option<u64>| {
        let (mut world, exe) = build_counter_world(COUNTER_LOCKED);
        if let Some(frames) = budget {
            world.set_frame_budget(frames);
        }
        if armed {
            world.arm_sanitizer();
        }
        let mut pids = Vec::new();
        for _ in 0..4 {
            pids.push(world.spawn(&exe).unwrap());
        }
        world.quantum = 50;
        let exit = world.run_to_settle(SETTLE_SLICES).unwrap_or_else(|u| {
            let exits: Vec<_> = pids.iter().map(|p| world.exit_code(*p)).collect();
            panic!(
                "world settles: {u:?}\nlog: {:?}\nexits: {exits:?}\nstats: {:?}",
                world.log,
                world.stats()
            )
        });
        let stats = world.stats();
        let obs = Observables {
            exit,
            exits: pids.iter().map(|p| world.exit_code(*p)).collect(),
            consoles: pids.iter().map(|p| world.console(*p)).collect(),
            sim_time: CostModel::default().time(&stats),
            count: world
                .peek_shared_word("/shared/lib/shcount", "count")
                .unwrap(),
        };
        (obs, world)
    };
    let (_, calibration) = run_pressured(false, None);
    let budget = (calibration.stats().peak_resident_frames / 2).max(1);
    let (unarmed, unarmed_world) = run_pressured(false, Some(budget));
    let (armed, armed_world) = run_pressured(true, Some(budget));
    assert_eq!(unarmed, armed, "the sanitizer perturbed a thrashing run");
    let u = unarmed_world.stats();
    let a = armed_world.stats();
    assert!(u.page_evictions > 0, "the squeezed budget really thrashed");
    assert_eq!(
        a.page_evictions, u.page_evictions,
        "eviction decisions moved"
    );
    assert_eq!(a.page_writebacks, u.page_writebacks);
    assert_eq!(a.swap_outs, u.swap_outs);
    assert_eq!(a.swap_ins, u.swap_ins);
    assert_eq!(a.oom_kills, 0);
    assert!(a.sync_edges > 0, "the armed run still observed the locks");
    assert_eq!(a.races_detected, 0, "repage faults are not races");
}

// --- 4. chaos interaction --------------------------------------------

/// The E8 chaos scenario (a *pure* public module, so concurrent
/// processes share only read-only state), run with both the fault plan
/// and the sanitizer armed: injections kill victims and the sanitizer
/// must stay silent — dying processes, spawn refusals, and retries are
/// not data races. The armed run also replays chaos identically.
#[test]
fn chaos_with_sanitizer_has_no_false_positives() {
    let build = || {
        let mut world = World::new();
        world
            .install_template(
                "/shared/lib/mathmod.o",
                r#"
                .module mathmod
                .text
                .globl offset
                offset: la   r8, base
                        lw   r9, 0(r8)
                        add  v0, a0, r9
                        jr   ra
                .data
                .globl base
                base:   .word 100
                "#,
            )
            .unwrap();
        world
            .install_template(
                "/src/main.o",
                r#"
                .module main
                .text
                .globl main
                main:   addi sp, sp, -8
                        sw   ra, 0(sp)
                        li   a0, 21
                        jal  offset         ; 121
                        or   a0, v0, r0
                        li   v0, 106        ; print_int
                        syscall
                        lw   ra, 0(sp)
                        addi sp, sp, 8
                        li   v0, 0
                        jr   ra
                "#,
            )
            .unwrap();
        let exe = world
            .link(
                "/bin/chaos",
                &[
                    ("/src/main.o", ShareClass::StaticPrivate),
                    ("/shared/lib/mathmod.o", ShareClass::DynamicPublic),
                ],
            )
            .unwrap();
        (world, exe)
    };
    let run = |seed: u64, sanitize: bool| {
        let (mut world, exe) = build();
        world.set_cpus(cpus_override());
        world.arm_faults(FaultPlan::new(seed, 50_000));
        if sanitize {
            world.arm_sanitizer();
        }
        let mut pids = Vec::new();
        for _ in 0..3 {
            pids.push(world.spawn(&exe).ok());
        }
        let settled = world.run_to_settle(SETTLE_SLICES);
        let stats = world.stats();
        let exits: Vec<Option<i32>> = pids
            .iter()
            .map(|p| p.and_then(|p| world.exit_code(p)))
            .collect();
        let consoles: Vec<Option<String>> =
            pids.iter().map(|p| p.map(|p| world.console(p))).collect();
        (world, settled, stats, exits, consoles)
    };
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let (_, plain_settled, plain_stats, plain_exits, plain_consoles) = run(seed, false);
        let (world, settled, stats, exits, consoles) = run(seed, true);
        // No false positives: reads of a pure module, injection victims,
        // and recovery paths are not races.
        assert_eq!(stats.races_detected, 0, "seed {seed}: log {:?}", world.log);
        assert!(world.races().is_empty());
        assert_eq!(
            world
                .trace()
                .records()
                .filter(|r| r.event.kind() == "RaceDetected")
                .count(),
            0
        );
        // Counters reconcile exactly as in the unsanitized chaos run.
        assert_eq!(stats.faults_injected, plain_stats.faults_injected);
        assert_eq!(stats.faults_recovered, plain_stats.faults_recovered);
        assert!(stats.faults_recovered <= stats.faults_injected);
        // And the sanitizer did not perturb the chaos outcome at all.
        assert_eq!(settled, plain_settled, "seed {seed}");
        assert_eq!(exits, plain_exits, "seed {seed}");
        assert_eq!(consoles, plain_consoles, "seed {seed}");
        assert!(stats.sync_edges > 0, "lifecycle edges were observed");
    }
}
