//! The repository benchmark. One process, one thread, one closed-loop
//! client: each op waits for the previous one. See README.md.
//!
//! ```text
//! perfbench --workload <cold_link|rwho_scan|reboot_cycle> [--seed <n|default|held-out>]
//!           [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.

mod layers;
mod report;
mod stats;
mod workloads;

use layers::Layers;
use stats::Counters;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Kind, Workload, ROUND};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1993;
/// A seed kept out of tuning: use it only to confirm a claim made on
/// other seeds.
const HELD_OUT_SEED: u64 = 8_651_203;

/// World builds timed for `setup_s` before the first op, on top of any
/// the workload makes as it goes; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Environment switches that select a non-default mode of the system or
/// of its tests. A number measured under any of them would not describe
/// the shipped configuration.
const MODE_SWITCHES: [&str; 9] = [
    "HVM_BBCACHE",
    "LDL_SNAPSHOT",
    "HSFS_JOURNAL",
    "HSFS_INTEGRITY",
    "CPUS",
    "PRESSURE_BUDGET",
    "CHAOS_SEED",
    "CRASH_SEED",
    "CORRUPT_SITE",
];

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 30.0, false);
    let mut name = String::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?);
                name = value;
            }
            "--seed" => {
                seed = match value.as_str() {
                    "default" => DEFAULT_SEED,
                    "held-out" => HELD_OUT_SEED,
                    n => n.parse().map_err(|_| format!("bad seed {n}"))?,
                }
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Refuses to measure a toggled mode.
fn check_default_config() -> Result<(), String> {
    let set: Vec<&str> = MODE_SWITCHES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; the benchmark measures the default configuration only",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_default_config().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

// --- running ops ---

/// Everything one pass over a workload measured.
#[derive(Default)]
pub struct Phase {
    /// Host latency of each op, in ms (failed ops included).
    pub latency_ms: Vec<f64>,
    /// Counter deltas of each op.
    pub per_op: Vec<Counters>,
    /// Host seconds of each world build.
    pub setup_s: Vec<f64>,
    pub failed: usize,
    pub first_failure: Option<String>,
    /// `World::stats()` after the first round, for the traced/untraced
    /// identity check.
    pub stats_after_round: String,
    /// Processes the kernel still holds at the end.
    pub procs_retained: usize,
    /// Ops in one cycle of the replayed op list: a round, or a boot on
    /// `rwho_scan`. A run is a whole number of cycles.
    pub cycle: usize,
    /// Ops in the creep window, the ops from the first: the first
    /// world's when worlds host many ops (lifetimes pile up there on a
    /// fresh heap), else the whole run.
    pub creep_ops: usize,
    /// RSS after the first round and at the end of the creep window, in
    /// KB. The first round is left out because a traced run shares it
    /// with its untraced reference.
    pub rss_kb: (u64, u64),
}

impl Phase {
    pub fn ops(&self) -> usize {
        self.latency_ms.len()
    }

    pub fn total(&self) -> Counters {
        let mut t = Counters::default();
        for c in &self.per_op {
            t += *c;
        }
        t
    }

    /// Host seconds spent in ops.
    pub fn op_seconds(&self) -> f64 {
        self.latency_ms.iter().sum::<f64>() / 1e3
    }

    /// Per position in the cycle, the fastest latency any repetition of
    /// it took, in ms. Repetitions do identical work, so the minimum
    /// drops the time the host spent in slow phases.
    pub fn best_latency_ms(&self) -> Vec<f64> {
        let mut best = self.latency_ms[..self.cycle].to_vec();
        for (i, &ms) in self.latency_ms.iter().enumerate().skip(self.cycle) {
            let b = &mut best[i % self.cycle];
            *b = b.min(ms);
        }
        best
    }

    /// Checks that every round repeated the first round's per-op counts.
    pub fn rounds_repeat(&self) -> Result<(), String> {
        for (i, c) in self.per_op.iter().enumerate().skip(ROUND) {
            if *c != self.per_op[i % ROUND] {
                return Err(format!(
                    "op {i} did different simulated work than op {}: {c:?} vs {:?}",
                    i % ROUND,
                    self.per_op[i % ROUND]
                ));
            }
        }
        Ok(())
    }
}

/// One workload driven op by op.
struct Runner {
    wl: Box<dyn Workload>,
    l: Layers,
    p: Phase,
    /// The last build's outcome: ops on a world that failed to build fail.
    built: Result<(), String>,
}

impl Runner {
    /// Times `SETUP_REPEATS` builds of the workload's first world.
    fn new(kind: Kind, seed: u64, tracing: bool) -> Runner {
        let mut r = Runner {
            wl: workloads::new(kind, seed),
            l: Layers::new(tracing),
            p: Phase::default(),
            built: Ok(()),
        };
        for _ in 0..SETUP_REPEATS {
            r.build(0);
        }
        r
    }

    fn build(&mut self, i: usize) {
        let t = Instant::now();
        self.l.begin_setup();
        self.built = self.wl.build(i, &mut self.l);
        self.l.end_setup();
        self.p.setup_s.push(t.elapsed().as_secs_f64());
    }

    /// Ops between the points where a run may stop: where a round ends
    /// and a world's ops end.
    fn stop_every(&self) -> usize {
        self.wl.ops_per_world().map_or(ROUND, |k| k.max(ROUND))
    }

    /// Runs the next op, first building it a fresh world if its
    /// workload wants one. Only the op itself is timed.
    fn step(&mut self) {
        let i = self.p.ops();
        if let Some(k) = self.wl.ops_per_world().filter(|&k| i.is_multiple_of(k)) {
            if k > 1 && i == k {
                self.p.creep_ops = i;
                self.p.rss_kb.1 = rss_kb("VmRSS");
            }
            self.build(i);
        }
        let before = Counters::of(self.wl.world());
        let t = Instant::now();
        self.l.begin_op(i);
        let r = self.built.clone().and_then(|()| self.wl.op(i, &mut self.l));
        self.l.end_op();
        self.p.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.p.per_op.push(Counters::of(self.wl.world()) - before);
        if let Err(e) = r {
            self.p.failed += 1;
            self.p.first_failure.get_or_insert(format!("op {i}: {e}"));
        }
        if i + 1 == ROUND {
            self.p.stats_after_round = format!("{:?}", self.wl.world().stats());
            self.p.rss_kb.0 = rss_kb("VmRSS");
        }
    }

    /// Steps until `seconds` have passed since `start`, stopping only
    /// where `stop_every` allows (so at least one round runs).
    fn run_until(&mut self, start: Instant, seconds: f64) {
        let budget = Duration::from_secs_f64(seconds);
        while self.p.ops() == 0
            || !self.p.ops().is_multiple_of(self.stop_every())
            || start.elapsed() < budget
        {
            self.step();
        }
        if self.p.creep_ops == 0 {
            self.p.creep_ops = self.p.ops();
            self.p.rss_kb.1 = rss_kb("VmRSS");
        }
        self.p.procs_retained = self.wl.world().kernel.procs.len();
        self.p.cycle = self.stop_every();
    }
}

/// A field of `/proc/self/status`, in KB (0 where unavailable).
pub fn rss_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn untraced(args: &Args) -> report::Report {
    let start = Instant::now();
    let mut run = Runner::new(args.kind, args.seed, false);
    run.run_until(start, args.seconds);
    let p = &run.p;
    eprintln!(
        "perfbench: {} seed {}: {} ops, {} repetitions of a {}-op cycle ({} positions \
         beyond p90), {} failed, {} world builds",
        args.name,
        args.seed,
        p.ops(),
        p.ops() / p.cycle,
        p.cycle,
        p.cycle - (0.9 * p.cycle as f64).ceil() as usize,
        p.failed,
        p.setup_s.len()
    );
    if let Some(e) = &p.first_failure {
        eprintln!("perfbench: first failure: {e}");
    }
    report::end_to_end(p)
}

fn traced(args: &Args) -> report::Report {
    let start = Instant::now();
    let mut traced = Runner::new(args.kind, args.seed, true);
    // The untraced reference: the same seed's first round stepped by
    // `run_to_settle`, one op after each traced op so that both see the
    // same machine. The traced run must do identical simulated work.
    let mut reference = Runner::new(args.kind, args.seed, false);
    for _ in 0..ROUND {
        traced.step();
        reference.step();
    }
    traced.run_until(start, args.seconds);

    let costs = traced.wl.world().costs;
    let mut r = report::per_layer(&traced.p, &reference.p, &traced.l, &costs);
    let path = format!("perfbench/out/spans-{}-{}.jsonl", args.name, args.seed);
    match traced.l.write_spans(std::path::Path::new(&path)) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {path}",
            traced.l.spans().len()
        ),
        Err(e) => {
            eprintln!("perfbench: writing {path}: {e}");
            r.correct = false;
        }
    }
    if let Some(e) = traced
        .p
        .first_failure
        .as_ref()
        .or(reference.p.first_failure.as_ref())
    {
        eprintln!("perfbench: first failure: {e}");
    }
    r
}
