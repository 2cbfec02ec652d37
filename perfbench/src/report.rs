//! The result line: end-to-end metrics from an untraced run, per-layer
//! metrics from a traced one.

use crate::layers::{Layers, SelfTime};
use crate::stats::{median, quantile, ratio};
use crate::workloads::ROUND;
use crate::{rss_kb, Phase};
use hemlock::CostModel;
use std::collections::BTreeMap;

pub struct Report {
    pub correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new(p: &Phase) -> Report {
        let mut r = Report {
            correct: p.failed == 0,
            attempted: p.ops(),
            failed: p.failed,
            metrics: Vec::new(),
        };
        r.check("rounds repeat", p.rounds_repeat());
        r
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed self-check: the run's figures are not trusted.
    fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            eprintln!("perfbench: self-check failed ({what}): {e}");
            self.correct = false;
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What a user of the system sees, measured with tracing off. Host
/// times are each cycle position's best repetition.
pub fn end_to_end(p: &Phase) -> Report {
    let ops = p.ops() as f64;
    let total = p.total();
    let best = p.best_latency_ms();
    let cycle_s = best.iter().sum::<f64>() / 1e3;
    let cycles = ops / best.len() as f64;
    let mut r = Report::new(p);
    r.put("setup_s", median(&p.setup_s), "s");
    r.put("ops_per_s", best.len() as f64 / cycle_s, "1/s");
    r.put("op_p50_ms", quantile(&best, 0.5), "ms");
    r.put("op_p90_ms", quantile(&best, 0.9), "ms");
    r.put("sim_ms_per_op", total.sim_ns as f64 / ops / 1e6, "ms");
    r.put(
        "sim_mips",
        total.instructions as f64 / cycles / 1e6 / cycle_s,
        "MIPS",
    );
    r.put("peak_rss_mb", rss_kb("VmHWM") as f64 / 1024.0, "MB");
    r.put("ok_ratio", (ops - p.failed as f64) / ops, "ratio");
    r
}

/// Per-op work and self time of each layer, from a traced run `p`, and
/// the checks that tracing changed nothing but host time: `reference`
/// ran the same seed untraced.
pub fn per_layer(p: &Phase, reference: &Phase, l: &Layers, costs: &CostModel) -> Report {
    let n = reference.ops();
    let mut r = Report::new(p);
    r.correct &= reference.failed == 0;
    r.check(
        "traced ops match untraced",
        if p.per_op[..n] == reference.per_op[..] {
            Ok(())
        } else {
            Err("per-op counters differ".to_string())
        },
    );
    r.check(
        "traced World::stats() matches untraced",
        if p.stats_after_round == reference.stats_after_round {
            Ok(())
        } else {
            Err(format!(
                "traced {} vs untraced {}",
                p.stats_after_round, reference.stats_after_round
            ))
        },
    );

    let ops = p.ops() as f64;
    let builds = p.setup_s.len() as f64;
    let c = p.total();
    let per_op = |v: u64| v as f64 / ops;
    let times = l.self_times();
    let op_ms = |name: &str| times.get(name).map_or(0.0, |t| t.op_ns as f64 / 1e6 / ops);
    let setup_ms = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |t| t.setup_ns as f64 / 1e6 / builds)
    };

    r.put("hobj.assemble_ms", setup_ms("hobj.assemble"), "ms/world");
    r.put("hlink.lds.link_ms", setup_ms("hlink.lds.link"), "ms/world");

    r.put("hlink.ldl.slice_ms", op_ms("hlink.ldl.slice"), "ms/op");
    r.put("hlink.ldl.init_links", per_op(c.init_links), "1/op");
    r.put("hlink.ldl.lazy_links", per_op(c.lazy_links), "1/op");
    r.put(
        "hlink.ldl.symbols_resolved",
        per_op(c.symbols_resolved),
        "1/op",
    );
    r.put(
        "hlink.ldl.resolve_cache_hit_ratio",
        ratio(
            c.resolve_cache_hits as f64,
            (c.symbols_resolved + c.symbols_unresolved) as f64,
        ),
        "ratio",
    );
    r.put(
        "hlink.ldl.snapshot_hit_ratio",
        ratio(
            c.snapshot_hits as f64,
            (c.snapshot_hits + c.snapshot_misses + c.snapshot_invalidations) as f64,
        ),
        "ratio",
    );
    r.put(
        "hlink.ldl.snapshot_rebuilds",
        per_op(c.snapshot_rebuilds),
        "1/op",
    );

    r.put("hvm.slice_ms", op_ms("hvm.slice"), "ms/op");
    r.put("hvm.instructions", per_op(c.instructions), "1/op");
    r.put(
        "hvm.bblock_hit_ratio",
        ratio(
            c.bblock_hits as f64,
            (c.bblock_hits + c.bblocks_built) as f64,
        ),
        "ratio",
    );
    r.put("hvm.bblocks_built", per_op(c.bblocks_built), "1/op");
    r.put(
        "hvm.bblock_invalidations",
        per_op(c.bblock_invalidations),
        "1/op",
    );

    r.put("hkernel.spawn_ms", op_ms("hkernel.spawn"), "ms/op");
    r.put("hkernel.dispatches", per_op(c.dispatches), "1/op");
    r.put("hkernel.syscalls", per_op(c.syscalls), "1/op");
    r.put("hkernel.segv_faults", per_op(c.segv_faults), "1/op");
    r.put(
        "hkernel.tlb_hit_ratio",
        ratio(c.tlb_hits as f64, (c.tlb_hits + c.tlb_misses) as f64),
        "ratio",
    );
    r.put("hkernel.cow_copies", per_op(c.cow_copies), "1/op");
    r.put("hkernel.procs_retained", p.procs_retained as f64, "count");

    r.put("hsfs.barrier_ms", op_ms("hsfs.barrier"), "ms/op");
    r.put("hsfs.scrub_ms", op_ms("hsfs.scrub"), "ms/op");
    r.put("hsfs.power_cut_ms", op_ms("hsfs.power_cut"), "ms/op");
    r.put("hsfs.reboot_ms", op_ms("hsfs.reboot"), "ms/op");
    r.put("hsfs.device_writes", per_op(l.device_writes), "1/op");
    r.put("hsfs.priced_blocks", per_op(c.priced_blocks), "1/op");
    r.put("hsfs.lookups", per_op(c.lookups), "1/op");
    r.put("hsfs.addr_probe_steps", per_op(c.addr_probe_steps), "1/op");
    r.put(
        "hsfs.write_amplification",
        ratio(
            (c.data_blocks_written + c.integrity_blocks_written) as f64,
            c.data_blocks_written as f64,
        ),
        "ratio",
    );
    r.put("hsfs.blocks_scrubbed", per_op(c.blocks_scrubbed), "1/op");
    r.put("hsfs.journal_replays", per_op(c.journal_replays), "1/op");

    let creep = &p.latency_ms[..p.creep_ops];
    r.put(
        "core.rss_kb_per_op",
        ratio(
            p.rss_kb.1.saturating_sub(p.rss_kb.0) as f64,
            (creep.len() - ROUND) as f64,
        ),
        "KB/op",
    );
    // Tenths are rounded up to whole rounds so both hold the same op mix.
    let tenth = (creep.len() / 10).div_ceil(ROUND).max(1) * ROUND;
    r.put(
        "core.op_creep_ratio",
        ratio(
            median(&creep[creep.len() - tenth..]),
            median(&creep[..tenth]),
        ),
        "ratio",
    );
    let mut attributed = 0;
    for (term, ns) in c.sim_terms(costs) {
        attributed += ns;
        r.put(
            &format!("core.sim.{term}_ms"),
            ns as f64 / 1e6 / ops,
            "ms/op",
        );
    }
    let unattributed = c.sim_ns as i64 - attributed as i64;
    if unattributed != 0 {
        eprintln!(
            "perfbench: stale breakdown: {unattributed} simulated ns are in \
             CostModel::time but in no core.sim term"
        );
    }
    r.put(
        "core.sim.unattributed_ms",
        unattributed as f64 / 1e6 / ops,
        "ms/op",
    );
    r.put(
        "trace.overhead_ratio",
        ratio(median(&p.latency_ms[..n]), median(&reference.latency_ms)),
        "ratio",
    );
    print_layer_table(&times, p.op_seconds() * 1e9);
    r
}

/// Self time per span inside ops, and its share of op time, on
/// standard error.
fn print_layer_table(times: &BTreeMap<&str, SelfTime>, op_ns: f64) {
    eprintln!("perfbench: self time inside ops, by span");
    for (name, t) in times {
        if t.op_ns > 0 {
            eprintln!(
                "  {name:<18} {:>10.1} ms  {:>5.1}%",
                t.op_ns as f64 / 1e6,
                100.0 * t.op_ns as f64 / op_ns
            );
        }
    }
}
