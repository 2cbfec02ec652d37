//! E10 — memory pressure (DESIGN.md §10): resident set vs. slowdown.
//!
//! The shape: the same 4-worker run under a shrinking frame budget. The
//! answers never change — eviction is semantically invisible — but the
//! simulated time grows by exactly the pressure traffic the cost model
//! charges (writebacks, swap-outs, swap-ins, and the refaults that
//! bring evicted pages back). The rows pin both axes: the peak resident
//! set each budget permits and the simulated time the thrash costs.

use bench::fixtures::{build_pressure_world, spawn_worker, WORKERS};
use bench::{report_detailed, run_ok, sim_delta, sim_time};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hemlock::{SimTime, WorldStats};

/// One pressured run: spawn `WORKERS` wid-patched workers under
/// `budget` frames (or unbounded) on `cpus` simulated CPUs, run to
/// completion, and return the stats, the simulated delta, and the
/// concatenated consoles (the cross-budget identity check — each
/// worker's console depends only on its own arithmetic, so it must
/// survive any budget and any CPU count).
fn run_budget(budget: Option<u64>, cpus: u32) -> (WorldStats, SimTime, String) {
    run_budget_cache(budget, cpus, true)
}

fn run_budget_cache(budget: Option<u64>, cpus: u32, cache: bool) -> (WorldStats, SimTime, String) {
    let (mut world, exe) = build_pressure_world();
    world.set_cpus(cpus);
    world.set_bbcache(cache);
    if let Some(frames) = budget {
        world.set_frame_budget(frames);
    }
    let pids: Vec<u32> = (0..WORKERS as u32)
        .map(|id| spawn_worker(&mut world, &exe, id))
        .collect();
    world.quantum = 300;
    let t0 = sim_time(&world);
    run_ok(&mut world);
    let consoles: String = pids.iter().map(|p| world.console(*p)).collect();
    for pid in &pids {
        assert_eq!(world.exit_code(*pid), Some(0));
    }
    (world.stats(), sim_delta(t0, sim_time(&world)), consoles)
}

fn simulated_table() {
    let mut rows = Vec::new();
    // Calibration row: the unbounded run fixes the peak working set and
    // the answer every bounded run must reproduce. Labels are stable
    // keys for the bench gate; the volatile observables (peak frames,
    // eviction and swap traffic) ride in the detail field.
    let (base, t_base, consoles) = run_budget(None, 1);
    assert_eq!(base.page_evictions, 0, "default budget is generous");
    let peak = base.peak_resident_frames;
    assert!(peak >= 16, "scenario touches a real working set ({peak})");
    rows.push((
        format!("{WORKERS} workers, unbounded"),
        t_base,
        format!("peak {peak} frames"),
    ));
    // Bounded rows: ½ and ¼ of the peak. The traffic counts are
    // deterministic; they are recorded (not compared) by the gate.
    for (name, div) in [("peak/2", 2u64), ("peak/4", 4)] {
        let budget = (peak / div).max(1);
        let (s, t, c) = run_budget(Some(budget), 1);
        assert_eq!(c, consoles, "eviction changed a guest observable");
        assert_eq!(s.oom_kills, 0, "swap absorbs the pressure");
        assert!(s.page_evictions > 0, "budget {budget} must bind");
        assert!(
            s.peak_resident_frames <= peak,
            "bounded peak cannot exceed the unbounded peak"
        );
        rows.push((
            format!("budget {name}"),
            t,
            format!(
                "{budget} frames; {} evictions, {} wb, {} swap-ins",
                s.page_evictions, s.page_writebacks, s.swap_ins
            ),
        ));
    }
    // Block-cache identity row: peak/2 pressure with the decoded-block
    // cache disabled reproduces the consoles *and* the simulated time
    // exactly — eviction-driven block drops are host-side only (E12).
    {
        let budget = (peak / 2).max(1);
        let on_t = rows
            .iter()
            .find(|(label, _, _)| label == "budget peak/2")
            .map(|(_, t, _)| *t)
            .unwrap();
        let (s, t, c) = run_budget_cache(Some(budget), 1, false);
        assert_eq!(c, consoles, "bbcache changed a guest observable");
        assert_eq!(t, on_t, "bbcache must not move simulated time");
        assert!(s.page_evictions > 0, "budget {budget} must bind");
        rows.push((
            "budget peak/2 (bbcache off)".into(),
            t,
            format!("{budget} frames; identical to cache-on run"),
        ));
    }
    // SMP rows: the same peak/2 pressure with the workers spread over
    // N CPUs. The extra simulated time is pure contention cost — the
    // shootdown IPIs reclaim must send when a victim's translations
    // sit on a remote CPU, plus cold TLBs from cross-CPU steals.
    let budget = (peak / 2).max(1);
    for cpus in [2u32, 4, 8] {
        let (s, t, c) = run_budget(Some(budget), cpus);
        assert_eq!(c, consoles, "CPU count changed a guest observable");
        assert_eq!(s.oom_kills, 0, "swap absorbs the pressure");
        assert!(s.page_evictions > 0, "budget {budget} must bind");
        rows.push((
            format!("budget peak/2, cpus={cpus}"),
            t,
            format!(
                "{} evictions, {} shootdowns, {} ipis, {} steals",
                s.page_evictions, s.shootdowns, s.ipis, s.cross_cpu_steals
            ),
        ));
    }
    report_detailed(
        "E10",
        "memory pressure — resident set vs. slowdown under frame budgets",
        &rows,
    );
}

fn bench_e10(c: &mut Criterion) {
    simulated_table();
    let base_peak = run_budget(None, 1).0.peak_resident_frames;
    let mut g = c.benchmark_group("e10_pressure");
    g.sample_size(10);
    for budget in [0u64, 2, 4] {
        // 0 = unbounded; otherwise the budget is peak/divisor.
        g.bench_with_input(BenchmarkId::new("budget_div", budget), &budget, |b, &d| {
            b.iter(|| {
                let arg = base_peak
                    .checked_div(d)
                    .filter(|_| d != 0)
                    .map(|b| b.max(1));
                run_budget(arg, 1)
            })
        });
    }
    // E12 wall lane: the peak/2 pressured run with the decoded-block
    // cache on vs. off — eviction keeps invalidating hot blocks, so
    // this bounds the cache's worst-case benefit under memory pressure.
    for (label, cache) in [
        ("budget_div_bbcache_on", true),
        ("budget_div_bbcache_off", false),
    ] {
        g.bench_with_input(BenchmarkId::new(label, 2u64), &2u64, |b, &d| {
            b.iter(|| run_budget_cache(Some((base_peak / d).max(1)), 1, cache))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_e10);
criterion_main!(benches);
