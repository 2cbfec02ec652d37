//! E10 — memory pressure: bounded frames, eviction, swap, and the
//! deterministic OOM path (DESIGN.md §10).
//!
//! Four claims are tested here:
//!
//! 1. **Semantic invisibility** (property): for *any* frame budget ≥ 1
//!    (the slice-boundary safety valve makes one frame the minimum
//!    working set) and any scheduling quantum, a pressured run produces
//!    bit-identical guest observables — exit codes, console output, and
//!    final shared memory — to the unbounded run. Eviction costs time;
//!    it never changes answers.
//! 2. **Accounting** (acceptance): a 4-worker run at roughly half its
//!    working-set budget completes identically with evictions,
//!    writebacks, and swap-ins all observed, and every counter
//!    reconciles exactly with the `htrace` journal, record by record
//!    and nanosecond by nanosecond.
//! 3. **Deterministic OOM**: below the minimum working set with the
//!    swap area exhausted, exactly one victim (largest resident set,
//!    ties to the lowest pid) dies with exit 137, the survivors finish
//!    seed-identically, and the world settles.
//! 4. **Chaos on the swap path**: the `SwapWrite`/`SwapRead` fault
//!    sites — unreachable without pressure (see `e8_chaos`) — inject
//!    under thrash, stay contained, and replay exactly from the seed.

use bench::fixtures::{
    budget_override, build_pressure_world, cpus_override, expected_checksum, run_pressured,
    settle_workers, spawn_worker, trace_cost, trace_count, Observables, SETTLE_SLICES, WORKERS,
};
use hemlock::{CostModel, FaultPlan, FaultSite, TraceBuffer, Unsettled, WorldExit};
use proptest::prelude::*;

/// Runs `workers` pressure workers on the `CPUS` sweep's CPU count and
/// collects every observable.
fn run_pressure(
    workers: usize,
    quantum: u64,
    budget: Option<u64>,
    plan: Option<FaultPlan>,
) -> (Observables, hemlock::World) {
    run_pressured(workers, quantum, cpus_override(), budget, plan, |_| {})
}

// --- 2. the acceptance scenario: half-budget thrash ------------------

/// Four workers at roughly half their working-set budget: the run
/// completes bit-identically to the unbounded run, with real eviction,
/// writeback, and swap-in traffic, and the counters reconcile exactly
/// with the `htrace` journal — both the record counts and the simulated
/// nanoseconds they carry.
#[test]
fn half_budget_thrash_is_identical_and_reconciles() {
    let (baseline, base_world) = run_pressure(WORKERS, 300, None, None);
    assert_eq!(baseline.settled, Ok(WorldExit::AllExited));
    assert_eq!(baseline.exits, vec![Some(0); WORKERS]);
    let expected_consoles: Vec<String> = (0..WORKERS as u32)
        .map(|id| format!("{}\n", expected_checksum(id)))
        .collect();
    assert_eq!(baseline.consoles, expected_consoles);
    let (done, results) = baseline.shared.clone().expect("segment instantiated");
    assert_eq!(done, WORKERS as u32);
    let expected_results: Vec<u32> = (0..WORKERS as u32).map(expected_checksum).collect();
    assert_eq!(results, expected_results);

    let base_stats = base_world.stats();
    assert_eq!(base_stats.page_evictions, 0, "default budget is generous");
    assert_eq!(base_stats.swap_ins, 0);
    let peak = base_stats.peak_resident_frames;
    assert!(peak >= 16, "scenario touches a real working set ({peak})");

    let budget = budget_override().unwrap_or_else(|| (peak / 2).max(1));
    let (pressured, world) = run_pressure(WORKERS, 300, Some(budget), None);
    assert_eq!(pressured, baseline, "eviction changed a guest observable");

    let stats = world.stats();
    assert_eq!(stats.frame_budget, budget);
    assert_eq!(stats.oom_kills, 0, "swap absorbs the pressure");
    if budget < peak {
        assert!(stats.page_evictions > 0, "over-budget run must evict");
        assert!(stats.swap_ins > 0, "re-touched pages must come back in");
        assert!(stats.page_writebacks > 0, "dirty shared pages age out");
        assert!(stats.swap_outs > 0, "anon pages go to the swap area");
    }
    assert!(
        stats.peak_resident_frames <= base_stats.peak_resident_frames,
        "pressured peak cannot exceed the unbounded peak"
    );

    // Record-by-record reconciliation with the journal.
    assert_eq!(world.trace().evicted(), 0, "ring was sized for the run");
    assert_eq!(trace_count(&world, "PageEvicted"), stats.page_evictions);
    assert_eq!(trace_count(&world, "WritebackTaken"), stats.page_writebacks);
    assert_eq!(trace_count(&world, "PageSwappedIn"), stats.swap_ins);

    // Nanosecond reconciliation: the trace carries exactly what the
    // cost model charges for pressure.
    let m = CostModel::default();
    let charged = stats.page_evictions * m.evict_ns
        + (stats.page_writebacks + stats.swap_outs) * m.swap_io_ns
        + stats.swap_ins * m.swap_in_ns;
    let traced = trace_cost(&world, "PageEvicted")
        + trace_cost(&world, "WritebackTaken")
        + trace_cost(&world, "PageSwappedIn");
    assert_eq!(traced, charged, "trace costs diverge from the cost model");

    // Pressure is charged, not hidden: the pressured run is slower in
    // simulated time by at least the pressure bill. (It is not *exactly*
    // the bill: every evicted-shared refault also pays the fault
    // protocol, and the shifted interleaving moves spin-lock work.)
    let base_time = m.time(&base_world.stats());
    let time = m.time(&stats);
    assert!(time > base_time, "thrash must cost simulated time");
    if budget < peak {
        assert!(
            time.0 - base_time.0 >= charged,
            "slowdown ({}) below the pressure bill ({charged})",
            time.0 - base_time.0
        );
    }
}

// --- 1. the property: any budget is semantically invisible -----------

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Any worker count, any quantum, any budget ≥ 1 frame: guest
    /// observables are identical to the unbounded run. (One frame is
    /// the true minimum working set because pages touched within a
    /// slice are only reclaimed at the next slice boundary.) When the
    /// budget never binds, even simulated time is identical.
    #[test]
    fn any_budget_is_semantically_invisible(
        workers in 2usize..5,
        quantum in 40u64..400,
        budget_pct in 4u64..120,
    ) {
        let (baseline, base_world) = run_pressure(workers, quantum, None, None);
        prop_assert_eq!(&baseline.settled, &Ok(WorldExit::AllExited));
        let peak = base_world.stats().peak_resident_frames;
        let budget = (peak * budget_pct / 100).max(1);
        let (pressured, world) = run_pressure(workers, quantum, Some(budget), None);
        prop_assert_eq!(&pressured, &baseline, "budget {} of peak {}", budget, peak);
        let stats = world.stats();
        prop_assert_eq!(stats.oom_kills, 0);
        if stats.page_evictions == 0 {
            let m = CostModel::default();
            prop_assert_eq!(
                m.time(&stats),
                m.time(&base_world.stats()),
                "an unbinding budget must be entirely free"
            );
        }
    }
}

// --- 3. the deterministic OOM path -----------------------------------

/// Below the minimum working set with *no* swap to fall back on: the
/// anon image pages are unevictable, so the pool kills exactly one
/// victim — all four workers are byte-identical, so the tie breaks to
/// the lowest pid — with exit 137 before it retires a single
/// instruction. The survivors finish bit-identically to their slots in
/// the unbounded run, and the whole outcome replays.
#[test]
fn oom_kills_exactly_one_victim_deterministically() {
    let (baseline, _) = run_pressure(WORKERS, 300, None, None);

    let run_oom = || {
        let (mut world, exe) = build_pressure_world();
        world.set_cpus(cpus_override());
        *world.trace_mut() = TraceBuffer::new(1 << 20);
        let pids: Vec<u32> = (0..WORKERS as u32)
            .map(|id| spawn_worker(&mut world, &exe, id))
            .collect();
        // Calibrate from the spawned images themselves: every worker
        // holds the same anon resident set, so a budget of 3.5× one
        // image fits three workers but not four.
        let image_frames: Vec<u64> = pids
            .iter()
            .map(|p| world.kernel.procs[p].aspace.resident_pages())
            .collect();
        let per = image_frames[0];
        assert!(per >= 4, "image spans several pages ({per})");
        assert!(
            image_frames.iter().all(|f| *f == per),
            "identical images must have identical resident sets"
        );
        world.set_frame_budget(3 * per + per / 2);
        world.set_swap_pages(0);
        let obs = settle_workers(&mut world, &pids, 300);
        (world, pids, obs)
    };

    let (world, pids, obs) = run_oom();
    let Observables {
        settled,
        exits,
        consoles,
        shared,
    } = &obs;
    // The world settles: the kill reclaimed the victim's frames at once.
    assert_eq!(*settled, Ok(WorldExit::AllExited), "log: {:?}", world.log);
    // Exactly one victim, and it is the lowest pid of the (all-equal)
    // candidates; it died before running, so its console is empty.
    assert_eq!(exits[0], Some(137), "victim exits with the OOM status");
    assert_eq!(consoles[0], "", "the victim never retired an instruction");
    assert_eq!(
        exits.iter().filter(|e| **e == Some(137)).count(),
        1,
        "exactly one OOM victim: {exits:?}"
    );
    for id in 1..WORKERS {
        assert_eq!(exits[id], Some(0), "survivor {id} unharmed");
        assert_eq!(
            consoles[id], baseline.consoles[id],
            "survivor {id} must finish seed-identically"
        );
    }
    let stats = world.stats();
    assert_eq!(stats.oom_kills, 1);
    assert_eq!(stats.swap_outs, 0, "no swap area to go to");
    assert_eq!(exits[0], world.exit_code(pids[0]));
    // The recovery is typed in the journal and explained in the log.
    assert_eq!(trace_count(&world, "RecoveryTaken"), 1);
    assert!(world.trace_dump().contains("oom-kill"));
    assert!(world.log.iter().any(|l| l.contains("out of memory")));
    // The survivors' work is in shared memory; the victim's slot is the
    // template's zero.
    let (done, results) = shared.clone().expect("survivors instantiated it");
    assert_eq!(done, WORKERS as u32 - 1);
    assert_eq!(results[0], 0);
    for id in 1..WORKERS as u32 {
        assert_eq!(results[id as usize], expected_checksum(id));
    }

    // And the whole outcome replays exactly.
    let (_, _, again) = run_oom();
    assert_eq!(again, obs);
}

/// A *tiny* swap area instead of none: eviction fills all four slots,
/// exhausts them, and the pool degrades to a deterministic OOM kill —
/// while slot recycling (a swap-in frees its slot) keeps the survivors
/// moving to completion.
#[test]
fn exhausted_swap_still_kills_deterministically() {
    let (mut world, exe) = build_pressure_world();
    world.set_cpus(cpus_override());
    let pids: Vec<u32> = (0..WORKERS as u32)
        .map(|id| spawn_worker(&mut world, &exe, id))
        .collect();
    let per = world.kernel.procs[&pids[0]].aspace.resident_pages();
    // Low enough that four slots of swap cannot absorb the overshoot
    // (cf. the no-swap test: 3.5× fits three workers *with* headroom).
    world.set_frame_budget(3 * per + 1);
    world.set_swap_pages(4);
    world.quantum = 300;
    let settled = world.run_to_settle(SETTLE_SLICES);
    assert_eq!(settled, Ok(WorldExit::AllExited), "log: {:?}", world.log);
    let exits: Vec<Option<i32>> = pids.iter().map(|p| world.exit_code(*p)).collect();
    let stats = world.stats();
    let victims = exits.iter().filter(|e| **e == Some(137)).count() as u64;
    assert!(victims >= 1, "exhaustion must kill: {exits:?}");
    assert!(victims < WORKERS as u64, "someone must survive: {exits:?}");
    assert_eq!(stats.oom_kills, victims, "every 137 is an OOM kill");
    assert!(
        stats.swap_outs > 0,
        "the swap area was used before it ran out"
    );
    // Slots recycle as pages come back in, so total swap-outs may
    // exceed four — but never four *at once*.
    let pool = world.frame_pool().stats();
    assert_eq!(pool.swap_pages, 4);
    assert!(pool.swap_used <= 4, "slot accounting overflowed the area");
    assert!(stats.swap_ins > 0, "recycling means pages came back in");
}

// --- 4. chaos on the swap path ---------------------------------------

/// The swap-path fault sites fire under pressure, stay contained —
/// victims die, survivors print their injection-free output, bounded
/// non-settles name the live processes — and replay from the seed.
#[test]
fn swap_chaos_is_contained_and_replays() {
    let (baseline, base_world) = run_pressure(WORKERS, 300, None, None);
    let budget = (base_world.stats().peak_resident_frames / 2).max(1);
    let plan = |seed: u64| {
        FaultPlan::new(seed, 150_000).only(&[FaultSite::SwapWrite, FaultSite::SwapRead])
    };
    let mut fired = 0u64;
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let (out, world) = run_pressure(WORKERS, 300, Some(budget), Some(plan(seed)));
        let stats = world.stats();
        fired += stats.faults_injected;
        match &out.settled {
            Ok(_) => {}
            Err(Unsettled { live, waits }) => {
                assert!(*live <= WORKERS, "unbounded unsettled state");
                assert_eq!(waits.len(), *live, "every live process names its wait");
            }
        }
        // Survivors are bit-identical to the injection-free run.
        for (slot, exit) in out.exits.iter().enumerate() {
            if *exit == Some(0) {
                assert_eq!(
                    out.consoles[slot], baseline.consoles[slot],
                    "seed {seed}: survivor in slot {slot} diverged"
                );
            }
        }
        if stats.faults_injected == 0 {
            assert_eq!(out, baseline, "no injections ⇒ the unpressured answer");
        }
        // The whole outcome replays exactly from the seed.
        let (replay, replay_world) = run_pressure(WORKERS, 300, Some(budget), Some(plan(seed)));
        assert_eq!(replay, out, "seed {seed}: chaos outcome must replay");
        assert_eq!(
            replay_world.stats().faults_injected,
            stats.faults_injected,
            "seed {seed}"
        );
    }
    assert!(
        fired > 0,
        "pressure makes the swap sites reachable (cf. e8's exemption)"
    );
}
