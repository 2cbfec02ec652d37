//! Guest programs, workloads and helpers shared by the root package's
//! test suites and the benches, so each exists once.
//!
//! The CI sweep hooks (`CPUS`, `PRESSURE_BUDGET`, `CHAOS_SEED`,
//! `CRASH_SEED`) are parsed here, and only read: nothing here sets or
//! removes an environment variable.

use crate::{run_ok, sim_time};
use hemlock::{
    switch_is_off, FaultPlan, ShareClass, TraceBuffer, Unsettled, World, WorldExit, WorldStats,
};
use hkernel::Pid;

/// Scheduler slices before a guest run counts as stuck.
pub const RUN_SLICES: u64 = 200_000;

/// Scheduler slices before a run counts as unsettled.
pub const SETTLE_SLICES: u64 = 400_000;

// --- CI sweep hooks ----------------------------------------------------

fn env_number<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|s| s.trim().parse().ok())
}

/// `CPUS=<n>` runs a suite on an n-CPU world (default 1).
pub fn cpus_override() -> u32 {
    env_number("CPUS").unwrap_or(1)
}

/// `PRESSURE_BUDGET=<frames>` overrides a test's frame budget; `0`
/// (the matrix default) or unset means "calibrate as usual".
pub fn budget_override() -> Option<u64> {
    env_number("PRESSURE_BUDGET").filter(|b| *b > 0)
}

/// `CHAOS_SEED=<n>` folds extra entropy into seeded fault plans, so the
/// nightly matrix explores disjoint schedules while any single run
/// stays reproducible.
pub fn chaos_seed_offset() -> u64 {
    env_number("CHAOS_SEED").unwrap_or(0)
}

/// `CRASH_SEED=<n>`: [`chaos_seed_offset`] for the seeded crash plans.
pub fn crash_seed_offset() -> u64 {
    env_number("CRASH_SEED").unwrap_or(0)
}

/// Whether the ambient environment leaves an on-by-default switch
/// (`HVM_BBCACHE`, `LDL_SNAPSHOT`) on, by the parser `World::new` uses.
pub fn env_switch_on(name: &str) -> bool {
    !switch_is_off(std::env::var(name).ok().as_deref())
}

// --- the counter program -----------------------------------------------

/// A public module with one exported counter and a bump function.
pub const COUNTER: &str = r#"
.module counter
.text
.globl bump
bump:   la   r8, count
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        or   v0, r9, r0
        jr   ra
.data
.globl count
count:  .word 0
"#;

/// Bumps the counter once and exits with the new count.
pub const MAIN: &str = r#"
.module main
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  bump
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;

/// Installs [`COUNTER`] (dynamic public) and [`MAIN`] and links them
/// as `/bin/p`.
pub fn build_counter(world: &mut World) -> String {
    world
        .install_template("/shared/lib/counter.o", COUNTER)
        .unwrap();
    world.install_template("/src/main.o", MAIN).unwrap();
    world
        .link(
            "/bin/p",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/counter.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap()
}

/// Spawns `exe` and runs the world until every process has exited.
pub fn spawn_run(world: &mut World, exe: &str) -> Pid {
    let pid = world.spawn(exe).unwrap();
    assert_eq!(
        world.run(RUN_SLICES),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
    pid
}

/// [`spawn_run`], returning the exit code.
pub fn run_prog(world: &mut World, exe: &str) -> i32 {
    let pid = spawn_run(world, exe);
    world.exit_code(pid).unwrap()
}

/// Deterministic byte pattern: recognizable, offset-sensitive.
pub fn pat(tag: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add((i as u8).wrapping_mul(131)))
        .collect()
}

/// The landmark workload of the E13/E14 benches: the counter program
/// twice (mapped stores into a public module), a raw two-block
/// segment, then a barrier. Returns the world after the barrier.
pub fn landmark_workload() -> World {
    let mut world = World::new();
    let exe = build_counter(&mut world);
    for _ in 0..2 {
        world.spawn(&exe).unwrap();
        run_ok(&mut world);
    }
    let vfs = &mut world.kernel.vfs;
    vfs.mkdir_all("/shared/data", 0o755, 0).unwrap();
    vfs.create_file("/shared/data/d", 0o644, 0).unwrap();
    vfs.write("/shared/data/d", 0, &[0x5A; 8192]).unwrap();
    world.barrier();
    world
}

// --- the TAS-guarded shared counter (sanitizer scenarios) ----------------

/// The counter application's shared data: the counter and the
/// spin-lock word that guards it (cf. `examples/parallel.rs`).
pub const COUNTER_DATA: &str = r#"
.module shcount
.data
.globl count
count:  .word 0
.globl lock
lock:   .word 0
"#;

/// A worker that increments `count` five times under the test-and-set
/// spin lock.
pub const COUNTER_LOCKED: &str = r#"
.module worker
.text
.globl main
main:   li   r16, 5            ; iterations
loop:
acq:    la   a0, lock
        li   a1, 1
        li   v0, 102           ; SVC_TAS
        syscall
        bne  v0, r0, acq       ; spin while old value was 1
        la   r8, count         ; critical section: count += 1
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        la   r8, lock          ; unlock
        sw   r0, 0(r8)
        addi r16, r16, -1
        bgtz r16, loop
        li   v0, 0
        jr   ra
"#;

/// The same worker with the lock elided — the seeded race.
pub const COUNTER_ELIDED: &str = r#"
.module worker
.text
.globl main
main:   li   r16, 5            ; iterations
loop:   la   r8, count         ; unguarded: count += 1
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        addi r16, r16, -1
        bgtz r16, loop
        li   v0, 0
        jr   ra
"#;

/// Installs [`COUNTER_DATA`] and `worker_src` and links `/bin/worker`.
pub fn build_counter_world(worker_src: &str) -> (World, String) {
    let mut world = World::new();
    world
        .install_template("/shared/lib/shcount.o", COUNTER_DATA)
        .unwrap();
    world.install_template("/src/worker.o", worker_src).unwrap();
    let exe = world
        .link(
            "/bin/worker",
            &[
                ("/src/worker.o", ShareClass::StaticPrivate),
                ("/shared/lib/shcount.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    (world, exe)
}

/// Runs `workers` copies of a counter worker on `cpus` CPUs with the
/// sanitizer armed and a 50-instruction quantum, after `setup` has
/// configured the world. Every worker must exit 0; returns the final
/// count.
pub fn run_counter(
    worker_src: &str,
    workers: usize,
    cpus: u32,
    setup: impl FnOnce(&mut World),
) -> (u32, World) {
    let (mut world, exe) = build_counter_world(worker_src);
    setup(&mut world);
    world.set_cpus(cpus);
    world.arm_sanitizer();
    let pids: Vec<Pid> = (0..workers).map(|_| world.spawn(&exe).unwrap()).collect();
    world.quantum = 50;
    let exit = world.run_to_settle(SETTLE_SLICES).expect("world settles");
    assert_eq!(exit, WorldExit::AllExited);
    for pid in pids {
        assert_eq!(world.exit_code(pid), Some(0));
    }
    let count = world
        .peek_shared_word("/shared/lib/shcount", "count")
        .unwrap();
    (count, world)
}

// --- the memory-pressure workers -----------------------------------------

/// Workers in the pressure scenario.
pub const WORKERS: usize = 4;

/// Bytes of private buffer the standard pressure worker churns (4 pages).
const BUF_BYTES: u32 = 16_384;

/// The workers' write/read stride over the buffer.
const STRIDE: u32 = 256;

/// Shared data of the pressure scenario: per-worker result slots, a
/// completion counter, and the spin-lock word guarding it. Workers
/// dirty this page, so eviction must take a writeback.
pub const SHARED_DATA: &str = r#"
.module shared_data
.data
.globl results
results: .space 64
.globl done_count
done_count: .word 0
.globl done_lock
done_lock: .word 0
"#;

/// The pressure worker: dirties its shared result slot *early* (so the
/// clock hand finds a dirty unreferenced shared page mid-churn), makes
/// `passes` passes over a private `buf_bytes` buffer — the anon working
/// set the pool must swap — then publishes its checksum and bumps
/// `done_count` under the test-and-set lock. The launcher patches the
/// worker id into `wid` (see [`spawn_worker`]).
pub fn pressure_worker(passes: u32, buf_bytes: u32) -> String {
    format!(
        r#"
.module worker
.text
.globl main
main:   la   r8, wid
        lw   r16, 0(r8)        ; worker id
        la   r8, results       ; dirty results[id] now
        sll  r12, r16, 2
        add  r8, r8, r12
        sw   r0, 0(r8)
        li   r13, {passes}
pass:   la   r8, buf
        li   r9, 0             ; byte offset
        li   r10, {buf_bytes}
fill:   add  r11, r8, r9
        add  r12, r9, r16      ; value = offset + id
        sw   r12, 0(r11)
        addi r9, r9, {STRIDE}
        slt  r12, r9, r10
        bne  r12, r0, fill
        li   r17, 0            ; checksum the buffer back
        li   r9, 0
sum:    add  r11, r8, r9
        lw   r12, 0(r11)
        add  r17, r17, r12
        addi r9, r9, {STRIDE}
        slt  r12, r9, r10
        bne  r12, r0, sum
        addi r13, r13, -1
        bgtz r13, pass
        la   r8, results       ; publish results[id]
        sll  r12, r16, 2
        add  r8, r8, r12
        sw   r17, 0(r8)
acq:    la   a0, done_lock     ; done_count += 1 under the TAS lock
        li   a1, 1
        li   v0, 102           ; SVC_TAS
        syscall
        bne  v0, r0, acq
        la   r8, done_count
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        la   r8, done_lock
        sw   r0, 0(r8)
        or   a0, r17, r0
        li   v0, 106           ; print_int(checksum)
        syscall
        li   v0, 0
        jr   ra
.data
.globl wid
wid:    .word 0
.globl buf
buf:    .space {buf_bytes}
"#
    )
}

/// The checksum the standard worker with id `id` prints: Σ over offsets of
/// (offset + id).
pub fn expected_checksum(id: u32) -> u32 {
    let touches = BUF_BYTES / STRIDE;
    STRIDE * (touches * (touches - 1) / 2) + touches * id
}

/// Installs [`SHARED_DATA`] and the standard worker (three passes over
/// four pages) and links `/bin/worker`.
pub fn build_pressure_world() -> (World, String) {
    let mut world = World::new();
    world
        .install_template("/shared/lib/shared_data.o", SHARED_DATA)
        .unwrap();
    world
        .install_template("/src/worker.o", &pressure_worker(3, BUF_BYTES))
        .unwrap();
    let exe = world
        .link(
            "/bin/worker",
            &[
                ("/src/worker.o", ShareClass::StaticPrivate),
                ("/shared/lib/shared_data.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    (world, exe)
}

/// Spawns one pressure worker and patches its id into `wid`.
pub fn spawn_worker(world: &mut World, exe: &str, id: u32) -> Pid {
    let image_wid = {
        let bytes = world.kernel.vfs.read_all(exe).unwrap();
        hobj::binfmt::decode_image(&bytes)
            .unwrap()
            .find_export("wid")
            .unwrap()
    };
    let pid = world.spawn(exe).unwrap();
    let proc = world.kernel.procs.get_mut(&pid).unwrap();
    proc.aspace
        .write_bytes(&mut world.kernel.vfs.shared, image_wid, &id.to_le_bytes())
        .unwrap();
    pid
}

/// Final shared memory of the pressure scenario, read through the
/// registry like `examples/parallel.rs` does: `(done_count,
/// results[0..workers])`, or `None` if no worker lived long enough to
/// instantiate the shared segment.
pub fn shared_words(world: &mut World, workers: usize) -> Option<(u32, Vec<u32>)> {
    let inst = "/shared/lib/shared_data";
    let ino = world.kernel.vfs.resolve(inst).ok()?.ino;
    let base = {
        let meta = world.registry.get(&mut world.kernel.vfs, ino)?;
        meta.find_export("results").unwrap() - meta.base
    };
    let done = world.peek_shared_word(inst, "done_count").unwrap();
    let bytes = world.kernel.vfs.shared.fs.file_bytes(ino).unwrap();
    let results = (0..workers)
        .map(|i| {
            let off = base as usize + 4 * i;
            u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
        })
        .collect();
    Some((done, results))
}

/// Everything a pressured run is judged on. Simulated time is *not*
/// here: pressure and contention are charged honestly, so time
/// legitimately differs between budgets and CPU counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observables {
    /// How the run settled.
    pub settled: Result<WorldExit, Unsettled>,
    /// Each worker's exit code.
    pub exits: Vec<Option<i32>>,
    /// Each worker's console output.
    pub consoles: Vec<String>,
    /// [`shared_words`] after the run.
    pub shared: Option<(u32, Vec<u32>)>,
}

/// Runs the spawned pressure workers `pids` to settlement with the
/// given quantum and collects their observables.
pub fn settle_workers(world: &mut World, pids: &[Pid], quantum: u64) -> Observables {
    world.quantum = quantum;
    let settled = world.run_to_settle(SETTLE_SLICES);
    Observables {
        settled,
        exits: pids.iter().map(|p| world.exit_code(*p)).collect(),
        consoles: pids.iter().map(|p| world.console(*p)).collect(),
        shared: shared_words(world, pids.len()),
    }
}

/// Runs `workers` standard pressure workers on `cpus` CPUs under an
/// optional frame `budget` and fault `plan`, after `setup` has
/// configured the world. The trace ring is widened so thrash-scale runs
/// evict no records and journal reconciliation stays exact.
pub fn run_pressured(
    workers: usize,
    quantum: u64,
    cpus: u32,
    budget: Option<u64>,
    plan: Option<FaultPlan>,
    setup: impl FnOnce(&mut World),
) -> (Observables, World) {
    let (mut world, exe) = build_pressure_world();
    *world.trace_mut() = TraceBuffer::new(1 << 20);
    setup(&mut world);
    world.set_cpus(cpus);
    if let Some(frames) = budget {
        world.set_frame_budget(frames);
    }
    if let Some(plan) = plan {
        world.arm_faults(plan);
    }
    let pids: Vec<Pid> = (0..workers as u32)
        .map(|id| spawn_worker(&mut world, &exe, id))
        .collect();
    let obs = settle_workers(&mut world, &pids, quantum);
    (obs, world)
}

/// Half the unbounded single-CPU peak working set of the standard
/// pressure scenario: a budget that binds.
pub fn calibrated_half_budget() -> u64 {
    let (_, world) = run_pressured(WORKERS, 300, 1, None, None, |_| {});
    (world.stats().peak_resident_frames / 2).max(1)
}

// --- differential comparison ---------------------------------------------

/// Full fidelity for comparing two runs: observables, the simulated
/// clock, the trace stream and `WorldStats`, minus whatever a
/// differential lets differ (see [`Replay::capture`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The guest observables.
    pub obs: Observables,
    /// Simulated nanoseconds of the whole run.
    pub sim_ns: u64,
    /// The trace as `pid cost event` lines, in stream order.
    pub trace: Vec<String>,
    /// `WorldStats`, as a comparable string (the struct deliberately
    /// has no `PartialEq`).
    pub stats: String,
}

impl Replay {
    /// Captures a finished run. Trace records of the kinds in
    /// `drop_kinds` are left out — 0-cost diagnostics that exist on
    /// only one side of a differential and occupy sequence slots there,
    /// which is also why `seq` is not compared — and `mask` zeroes the
    /// stats fields allowed to differ.
    pub fn capture(
        obs: Observables,
        world: &World,
        drop_kinds: &[&str],
        mask: impl FnOnce(&mut WorldStats),
    ) -> Replay {
        let mut stats = world.stats();
        mask(&mut stats);
        Replay {
            obs,
            sim_ns: sim_time(world).0,
            trace: world
                .trace()
                .records()
                .filter(|r| !drop_kinds.contains(&r.event.kind()))
                .map(|r| format!("{} {} {}", r.pid, r.cost_ns, r.event))
                .collect(),
            stats: format!("{stats:?}"),
        }
    }
}

/// Trace records of one kind.
pub fn trace_count(world: &World, kind: &str) -> u64 {
    world
        .trace()
        .records()
        .filter(|r| r.event.kind() == kind)
        .count() as u64
}

/// Summed cost of one kind of trace record.
pub fn trace_cost(world: &World, kind: &str) -> u64 {
    world
        .trace()
        .records()
        .filter(|r| r.event.kind() == kind)
        .map(|r| r.cost_ns)
        .sum()
}
