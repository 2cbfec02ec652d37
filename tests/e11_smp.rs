//! E11 — deterministic SMP (DESIGN.md §11): N simulated CPUs with
//! per-CPU TLBs, priced shootdowns, and a fixed, replayable interleave.
//!
//! Four claims are tested here:
//!
//! 1. **Determinism** (property): for any scheduling quantum and any
//!    `cpus ∈ {1,2,4,8}`, running the same pressured multi-worker
//!    scenario twice produces identical observables, identical simulated
//!    time, and an identical `htrace` stream, record for record. The
//!    interleave is part of the machine, not of the host.
//! 2. **Single-CPU identity**: the default world has one CPU, an
//!    explicit `set_cpus(1)` changes nothing (trace included), and the
//!    SMP counters stay exactly zero — the pre-SMP behavior is a special
//!    case, not a separate code path.
//! 3. **Semantic invisibility**: the CPU count changes *when* things
//!    happen and what they cost (shootdown IPIs, cold TLBs after
//!    steals), never guest answers — exits, consoles, and final shared
//!    memory match the single-CPU run for every CPU count, while the
//!    shootdown protocol demonstrably fires and reconciles with the
//!    trace nanosecond by nanosecond.
//! 4. **Cross-CPU locking**: the TAS-guarded counter is race-free when
//!    its workers genuinely share instants on different CPUs, and the
//!    lock-elided twin of the same schedule is still caught by hsan.

use bench::fixtures::{
    self, build_pressure_world, calibrated_half_budget, run_counter, settle_workers, spawn_worker,
    trace_cost, trace_count, Replay, COUNTER_ELIDED, COUNTER_LOCKED, WORKERS,
};
use hemlock::{CostModel, FaultPlan, FaultSite, TraceBuffer, TraceEvent, World, WorldExit};
use proptest::prelude::*;

/// Runs `workers` pressure workers on `cpus` CPUs under `budget` frames
/// and captures the full replay: observables, the clock, every trace
/// record and `WorldStats`.
fn run_smp(
    workers: usize,
    quantum: u64,
    cpus: u32,
    budget: Option<u64>,
    plan: Option<FaultPlan>,
) -> (Replay, World) {
    let (obs, world) = fixtures::run_pressured(workers, quantum, cpus, budget, plan, |_| {});
    (Replay::capture(obs, &world, &[], |_| {}), world)
}

// --- 2. single-CPU identity ------------------------------------------

/// A fresh world has one CPU, and a single-CPU run moves none of the
/// SMP counters and emits none of the SMP trace records, pressured or
/// not.
#[test]
fn default_world_is_single_cpu_with_zero_smp_counters() {
    let world = World::new();
    assert_eq!(world.cpus(), 1);

    let budget = calibrated_half_budget();
    let (_, world) = run_smp(WORKERS, 300, 1, Some(budget), None);
    let stats = world.stats();
    assert!(stats.page_evictions > 0, "budget {budget} must bind");
    assert_eq!(stats.shootdowns, 0);
    assert_eq!(stats.ipis, 0);
    assert_eq!(stats.cross_cpu_steals, 0);
    assert_eq!(trace_count(&world, "TlbShootdown"), 0);
    assert_eq!(trace_count(&world, "CpuSteal"), 0);
}

/// `set_cpus(1)` is the default, not a sibling mode: the run it
/// produces is identical to the untouched world's run down to the last
/// trace record and simulated nanosecond.
#[test]
fn explicit_single_cpu_is_trace_identical_to_default() {
    let budget = calibrated_half_budget();
    let (default_run, _) = {
        // Bypass set_cpus entirely for the reference run.
        let (mut world, exe) = build_pressure_world();
        *world.trace_mut() = TraceBuffer::new(1 << 20);
        world.set_frame_budget(budget);
        let pids: Vec<u32> = (0..WORKERS as u32)
            .map(|id| spawn_worker(&mut world, &exe, id))
            .collect();
        let obs = settle_workers(&mut world, &pids, 300);
        (Replay::capture(obs, &world, &[], |_| {}), world)
    };
    let (explicit, _) = run_smp(WORKERS, 300, 1, Some(budget), None);
    assert_eq!(explicit, default_run, "set_cpus(1) must be a no-op");
}

// --- 1. the determinism property -------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Any quantum, any CPU count: the same configuration replays with
    /// identical observables, simulated time, and trace stream. The
    /// guest answers additionally match the single-CPU run — the CPU
    /// count never changes what the programs compute.
    #[test]
    fn any_quantum_any_cpu_count_replays_identically(
        quantum in 100u64..500,
        cpus_pow in 0u32..4,
    ) {
        let cpus = 1u32 << cpus_pow; // 1, 2, 4, 8
        let budget = calibrated_half_budget();
        let (first, _) = run_smp(WORKERS, quantum, cpus, Some(budget), None);
        let (second, _) = run_smp(WORKERS, quantum, cpus, Some(budget), None);
        prop_assert_eq!(&first, &second, "cpus={} must replay exactly", cpus);

        let (single, _) = run_smp(WORKERS, quantum, 1, Some(budget), None);
        prop_assert_eq!(
            &first.obs, &single.obs,
            "cpus={} changed a guest observable", cpus
        );
    }
}

// --- 3. semantic invisibility + the priced protocol ------------------

/// Under binding pressure with the workers spread over N CPUs, the
/// shootdown protocol fires (reclaim runs on the boot CPU, victims sit
/// elsewhere), every IPI and page is billed, and the trace records
/// reconcile with the counters and the cost model exactly.
#[test]
fn shootdowns_fire_and_reconcile_with_the_trace() {
    let budget = calibrated_half_budget();
    for cpus in [2u32, 4] {
        let (replay, world) = run_smp(WORKERS, 300, cpus, Some(budget), None);
        assert_eq!(
            replay.obs.settled,
            Ok(WorldExit::AllExited),
            "log: {:?}",
            world.log
        );
        let stats = world.stats();
        assert!(stats.page_evictions > 0, "budget {budget} must bind");
        assert!(
            stats.shootdowns > 0,
            "cpus={cpus}: reclaim never crossed a CPU"
        );
        assert!(stats.ipis > 0);
        let model = CostModel::default();
        assert_eq!(
            trace_cost(&world, "TlbShootdown"),
            stats.ipis * model.ipi_ns + stats.shootdowns * model.shootdown_ns,
            "trace costs must reconcile with the billed counters"
        );
        let shootdown_records = world
            .trace()
            .records()
            .filter(|r| matches!(r.event, TraceEvent::TlbShootdown { .. }))
            .count() as u64;
        assert!(shootdown_records > 0);
        assert_eq!(
            stats.ipis, shootdown_records,
            "without chaos, exactly one IPI per shootdown event"
        );
    }
}

/// An idle CPU steals when affinity collides (three workers on two
/// CPUs must collide every other round), the steal is counted and
/// traced, and it still changes no guest answer.
#[test]
fn steals_are_counted_and_traced() {
    let (replay, world) = run_smp(3, 200, 2, None, None);
    assert_eq!(replay.obs.settled, Ok(WorldExit::AllExited));
    let stats = world.stats();
    assert!(stats.cross_cpu_steals > 0, "3 workers on 2 CPUs must steal");
    assert_eq!(trace_count(&world, "CpuSteal"), stats.cross_cpu_steals);

    let (single, _) = run_smp(3, 200, 1, None, None);
    assert_eq!(replay.obs, single.obs, "steals changed a guest observable");
}

/// The `ShootdownDrop` chaos site is pure cost noise: with every IPI's
/// first transmission dropped, the protocol retransmits — the page
/// count is unchanged, the IPI count doubles, the retried flag shows in
/// the trace, and no guest observable moves.
#[test]
fn dropped_shootdown_ipis_are_retransmitted_and_billed() {
    let budget = calibrated_half_budget();
    let (plain, plain_world) = run_smp(WORKERS, 300, 4, Some(budget), None);
    let plan = FaultPlan::new(7, 1_000_000).only(&[FaultSite::ShootdownDrop]);
    let (chaos, chaos_world) = run_smp(WORKERS, 300, 4, Some(budget), Some(plan));

    assert_eq!(
        chaos.obs, plain.obs,
        "a dropped shootdown IPI must not change guest behavior"
    );
    let p = plain_world.stats();
    let c = chaos_world.stats();
    assert!(c.faults_injected > 0, "full rate must inject");
    assert_eq!(c.shootdowns, p.shootdowns, "same pages invalidated");
    assert_eq!(c.ipis, 2 * p.ipis, "every first IPI dropped, all resent");
    assert!(
        chaos_world
            .trace()
            .records()
            .any(|r| matches!(r.event, TraceEvent::TlbShootdown { retried: true, .. })),
        "retransmissions must be visible in the trace"
    );

    // And the chaos run replays from its seed.
    let plan = FaultPlan::new(7, 1_000_000).only(&[FaultSite::ShootdownDrop]);
    let (again, _) = run_smp(WORKERS, 300, 4, Some(budget), Some(plan));
    assert_eq!(again, chaos, "chaos outcome must replay from its seed");
}

// --- 4. cross-CPU locking --------------------------------------------

/// The TAS acquire/release edges order memory accesses *across* CPUs:
/// four workers hammering the counter from four CPUs in the same
/// sub-quantum are race-free and sum exactly, while the lock-elided
/// twin of the very same schedule is flagged — racing accesses in the
/// same sub-quantum on different CPUs are unordered, and hsan sees it.
#[test]
fn tas_counter_is_race_free_across_cpus_and_elided_twin_is_not() {
    let (count, world) = run_counter(COUNTER_LOCKED, 4, 4, |_| {});
    assert_eq!(count, 4 * 5, "locked counter must sum exactly");
    assert_eq!(world.stats().races_detected, 0, "log: {:?}", world.log);
    assert!(world.races().is_empty());
    let san = world.stats();
    assert!(san.sync_edges > 0, "TAS edges must be observed");

    let (_, world) = run_counter(COUNTER_ELIDED, 4, 4, |_| {});
    assert!(
        world.stats().races_detected >= 1,
        "elided lock must be reported across CPUs"
    );
    let races = world.races();
    assert!(!races.is_empty());
    assert!(
        races[0].first_pid != races[0].second_pid,
        "cross-process by definition"
    );
}

/// Per-CPU observation streams: on a multi-CPU world the sanitizer
/// attributes shared accesses to more than one CPU; on a single-CPU
/// world everything lands on CPU 0.
#[test]
fn sanitizer_sees_accesses_from_every_cpu() {
    let (_, world) = run_counter(COUNTER_ELIDED, 4, 4, |_| {});
    let san = world.sanitizer().expect("armed");
    let san = san.lock().unwrap();
    assert!(
        san.cpu_accesses().len() > 1,
        "4 workers on 4 CPUs must be observed from >1 CPU: {:?}",
        san.cpu_accesses()
    );

    let (_, world) = run_counter(COUNTER_ELIDED, 4, 1, |_| {});
    let san = world.sanitizer().expect("armed");
    let san = san.lock().unwrap();
    assert_eq!(
        san.cpu_accesses().keys().copied().collect::<Vec<_>>(),
        vec![0],
        "single-CPU accesses all execute on CPU 0"
    );
}
