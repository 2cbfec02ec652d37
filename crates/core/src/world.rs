//! The `World`: a complete simulated Hemlock machine.
//!
//! A `World` owns the kernel (processes, address spaces, file systems),
//! the public-module registry, and per-process dynamic-linking state. It
//! runs the event loop that the paper distributes between the kernel and
//! the user-level run-time library: SIGSEGV-class faults go to Hemlock's
//! fault handler (`ldl`), service traps go to the run-time library, and
//! everything else is ordinary execution.

use crate::costs::{CostModel, WorldStats};
use crate::crt0::crt0_object;
use crate::htrace::{TraceBuffer, TraceEvent};
use crate::segheap::SegHeap;
use crate::services::*;
use hfault::{FaultHandle, FaultPlan};
use hkernel::kernel::ExecImage;
use hkernel::{Kernel, Pid, ProcState, RunEvent};
use hlink::ldl::{FaultDisposition, LinkEvent};
use hlink::{Ldl, Lds, LdsInput, LinkError, LinkState, ModuleRegistry, ModuleSpec};
use hobj::binfmt::{self, BinError};
use hobj::hasm::{assemble, AsmError};
use hobj::{LoadImage, ShareClass};
use hsan::{Report, Sanitizer};
use hsfs::path as fspath;
use hsfs::vfs::{Mount, Vnode};
use hsfs::FsError;
use hvm::Reg;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Why [`World::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldExit {
    /// Every process has exited.
    AllExited,
    /// Live processes remain but none can run.
    Deadlock,
    /// The slice budget ran out.
    StepLimit,
}

/// Returned by [`World::run_to_settle`] when the slice budget ran out
/// before the world reached a stable state (all exited or deadlocked).
/// Under chaos testing this is the *bounded* failure mode: the caller
/// knows exactly how many processes were still live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsettled {
    /// Live (non-zombie) processes remaining at the step limit.
    pub live: usize,
    /// What each live process was doing (pid order), so livelocks —
    /// pressure thrash, lock convoys, fault loops — are diagnosable
    /// from the error alone.
    pub waits: Vec<(Pid, WaitReason)>,
}

/// What a live process was waiting on when the slice budget ran out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitReason {
    /// Eligible to run — still working (or starved of slices).
    Runnable,
    /// Runnable, but its last observed event was a fault at this
    /// address that the runtime was still resolving (a process stuck
    /// re-faulting shows up here, not as plain `Runnable`).
    AwaitingFault {
        /// The faulting address.
        addr: u32,
    },
    /// Blocked acquiring a file lock.
    BlockedOnLock {
        /// Path of the locked file.
        path: String,
    },
    /// Blocked in P() on a kernel semaphore.
    BlockedOnSem {
        /// The semaphore id.
        sem: u32,
    },
    /// Blocked in `waitpid`.
    AwaitingChild {
        /// The specific child awaited, or `None` for any.
        child: Option<Pid>,
    },
}

impl std::fmt::Display for WaitReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitReason::Runnable => write!(f, "runnable"),
            WaitReason::AwaitingFault { addr } => {
                write!(f, "awaiting-fault {addr:#010x}")
            }
            WaitReason::BlockedOnLock { path } => write!(f, "blocked-on-lock {path}"),
            WaitReason::BlockedOnSem { sem } => write!(f, "blocked-on-sem #{sem}"),
            WaitReason::AwaitingChild { child: Some(pid) } => {
                write!(f, "awaiting-child {pid}")
            }
            WaitReason::AwaitingChild { child: None } => write!(f, "awaiting-child any"),
        }
    }
}

impl std::fmt::Display for Unsettled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "world did not settle: {} process(es) still live",
            self.live
        )?;
        for (i, (pid, reason)) in self.waits.iter().enumerate() {
            write!(
                f,
                "{}pid {pid}: {reason}{}",
                if i == 0 { " (" } else { ", " },
                if i + 1 == self.waits.len() { ")" } else { "" }
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for Unsettled {}

/// A race the armed sanitizer reported, decorated with the raced
/// segment's shared-partition path (see DESIGN.md §9).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceRecord {
    /// Path of the raced segment (e.g. `/shared/lib/counter#1`).
    pub path: String,
    /// Byte offset of the first overlapping byte within the segment.
    pub offset: u32,
    /// The earlier access.
    pub first_pid: Pid,
    /// PC of the earlier access.
    pub first_pc: u32,
    /// Whether the earlier access was a store.
    pub first_is_write: bool,
    /// The later access (the one that exposed the race).
    pub second_pid: Pid,
    /// PC of the later access.
    pub second_pc: u32,
    /// Whether the later access was a store.
    pub second_is_write: bool,
}

/// A recorded process exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExitRecord {
    /// The process.
    pub pid: Pid,
    /// Its status (negative ⇒ killed by the runtime).
    pub code: i32,
}

/// Errors from the host-level `World` API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorldError {
    /// Assembly failed.
    Asm(Vec<AsmError>),
    /// Linking failed.
    Link(LinkError),
    /// A file operation failed.
    Fs(FsError),
    /// An executable failed to decode.
    Bin(BinError),
    /// The pid does not name a live process.
    NoSuchProcess,
    /// A symbol was not found where expected.
    NoSuchSymbol(String),
    /// The machine is between a power cut and the next reboot.
    PoweredOff,
}

impl From<LinkError> for WorldError {
    fn from(e: LinkError) -> WorldError {
        WorldError::Link(e)
    }
}
impl From<FsError> for WorldError {
    fn from(e: FsError) -> WorldError {
        WorldError::Fs(e)
    }
}
impl From<Vec<AsmError>> for WorldError {
    fn from(e: Vec<AsmError>) -> WorldError {
        WorldError::Asm(e)
    }
}
impl From<BinError> for WorldError {
    fn from(e: BinError) -> WorldError {
        WorldError::Bin(e)
    }
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::Asm(errs) => {
                write!(f, "assembly failed:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            WorldError::Link(e) => write!(f, "link failed: {e}"),
            WorldError::Fs(e) => write!(f, "file system: {e}"),
            WorldError::Bin(e) => write!(f, "bad executable: {e}"),
            WorldError::NoSuchProcess => write!(f, "no such process"),
            WorldError::NoSuchSymbol(s) => write!(f, "no such symbol `{s}`"),
            WorldError::PoweredOff => write!(f, "machine is powered off"),
        }
    }
}

impl std::error::Error for WorldError {}

/// The complete simulated machine.
pub struct World {
    /// The kernel (public for inspection by tests and benches).
    pub kernel: Kernel,
    /// The public-module metadata registry.
    pub registry: ModuleRegistry,
    link: HashMap<Pid, LinkState>,
    images: HashMap<Pid, Arc<LoadImage>>,
    /// Recorded exit statuses. Bounded like [`World::log`]: once it
    /// holds more than `2 × EXITS_KEEP` statuses, the start of each
    /// [`World::run`] keeps only the newest `EXITS_KEEP` pids.
    exits: HashMap<Pid, i32>,
    fault_guard: HashMap<Pid, (u32, u32)>,
    /// Runtime diagnostics (linker warnings, kill reasons). Bounded:
    /// once it holds more than `2 × LOG_KEEP` lines, the start of each
    /// [`World::run`] and each [`World::reboot`] drops all but the
    /// newest `LOG_KEEP`, so a world that lives through thousands of
    /// boots does not grow without bound.
    pub log: Vec<String>,
    /// Scheduler quantum in instructions.
    pub quantum: u64,
    /// Force a full transitive link at `ldl`-init time instead of lazy,
    /// fault-driven linking (the eager baseline for experiment E2).
    pub eager: bool,
    /// Accumulated stats from processes that have been reaped.
    reaped_cow: u64,
    reaped_ldl: hlink::ldl::LdlStats,
    /// Fault-path trace ring (see [`crate::htrace`]).
    trace: TraceBuffer,
    /// Cost constants used to stamp trace records.
    pub costs: CostModel,
    /// Chaos handle shared with the kernel, file systems, and linker
    /// (unarmed — and free — unless [`World::arm_faults`] is called).
    faults: FaultHandle,
    /// Recoveries taken in response to injected faults (kills, retries,
    /// refused spawns); mirrors the `RecoveryTaken` trace records.
    recovered: u64,
    /// The happens-before sanitizer (None — and free — unless
    /// [`World::arm_sanitizer`] is called). The kernel holds a second
    /// handle as its installed [`hkernel::Monitor`].
    sanitizer: Option<Arc<Mutex<Sanitizer>>>,
    /// Races drained from the sanitizer, decorated with segment paths.
    races: Vec<RaceRecord>,
    /// False between a [`World::power_cut`] and the next
    /// [`World::reboot`] — the machine is off; nothing can run.
    powered: bool,
    /// Power cuts taken (DESIGN.md §13).
    crashes: u64,
    /// Reboots that replayed a non-empty journal.
    journal_replays: u64,
    /// Disk block writes discarded by power cuts.
    blocks_discarded: u64,
    /// Simulated nanoseconds spent in crash recovery (journal replay).
    recovery_ns: u64,
    /// Blocks verified by explicit scrub passes (DESIGN.md §14).
    blocks_scrubbed: u64,
    /// Corrupt blocks detected by scrub or boot-time verification.
    corruptions_detected: u64,
    /// Corrupt blocks healed from the replica region or the journal.
    blocks_repaired: u64,
    /// Processes killed by an uncorrectable-corruption `Eio` fault.
    eio_kills: u64,
    /// Run a scrub pass every N scheduler slices (`None` = never).
    scrub_interval: Option<u64>,
    /// Slices since the last interval-driven scrub pass.
    slices_since_scrub: u64,
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

/// Log lines a world keeps once its log outgrows twice this many.
const LOG_KEEP: usize = 4096;

/// Exit statuses a world keeps once it holds more than twice this many.
const EXITS_KEEP: usize = 4096;

/// How many identical consecutive faults a process may take before the
/// runtime concludes the fault is unresolvable and kills it.
const FAULT_LOOP_LIMIT: u32 = 64;

/// Whether an on-by-default environment switch's value turns it off:
/// `off`, `0` or `false`. Unset and every other value leave it on.
pub fn switch_is_off(value: Option<&str>) -> bool {
    matches!(value, Some("off" | "0" | "false"))
}

impl World {
    /// Creates a world with the conventional directory skeleton.
    pub fn new() -> World {
        let mut kernel = Kernel::new();
        let env_off = |name| switch_is_off(std::env::var(name).ok().as_deref());
        // `HVM_BBCACHE=off` disables the decoded basic-block cache
        // (DESIGN.md §12) — the CI identity lanes re-prove every suite
        // against the pure fetch+decode interpreter this way.
        if env_off("HVM_BBCACHE") {
            kernel.set_bbcache(false);
        }
        // `LDL_SNAPSHOT=off` disables persistent prelink snapshots
        // (DESIGN.md §15) — the CI identity lanes re-prove every suite
        // against full from-scratch resolution this way.
        if env_off("LDL_SNAPSHOT") {
            kernel.set_link_snapshots(false);
        }
        for dir in [
            "/src",
            "/bin",
            "/tmp",
            "/home",
            "/etc",
            "/usr/hemlock/lib",
            "/var/hemlock/meta",
            "/shared/lib",
            "/shared/templates",
            "/shared/tmp",
        ] {
            kernel
                .vfs
                .mkdir_all(dir, 0o777, 0)
                .expect("fresh namespace");
        }
        World {
            kernel,
            registry: ModuleRegistry::new(),
            link: HashMap::new(),
            images: HashMap::new(),
            exits: HashMap::new(),
            fault_guard: HashMap::new(),
            log: Vec::new(),
            quantum: 10_000,
            eager: false,
            reaped_cow: 0,
            reaped_ldl: Default::default(),
            trace: TraceBuffer::default(),
            costs: CostModel::default(),
            faults: FaultHandle::unarmed(),
            recovered: 0,
            sanitizer: None,
            races: Vec::new(),
            powered: true,
            crashes: 0,
            journal_replays: 0,
            blocks_discarded: 0,
            recovery_ns: 0,
            blocks_scrubbed: 0,
            corruptions_detected: 0,
            blocks_repaired: 0,
            eio_kills: 0,
            scrub_interval: None,
            slices_since_scrub: 0,
        }
    }

    // --- chaos ---

    /// Arms a fault-injection plan across the whole stack (kernel,
    /// address spaces, both file systems, and — via the kernel — the
    /// dynamic linker). Returns a clone of the shared handle so callers
    /// can inspect counters mid-run. Arm *after* building and installing
    /// programs if setup should stay failure-free.
    pub fn arm_faults(&mut self, plan: FaultPlan) -> FaultHandle {
        let handle = FaultHandle::armed(plan);
        self.kernel.arm_faults(handle.clone());
        self.faults = handle.clone();
        handle
    }

    /// The world's chaos handle (unarmed by default).
    pub fn fault_handle(&self) -> &FaultHandle {
        &self.faults
    }

    /// Moves injections journaled by the plan into the trace ring,
    /// attributed to `pid` (0 for world-level work).
    fn drain_injections(&mut self, pid: Pid) {
        for site in self.faults.drain_journal() {
            self.trace
                .record(pid, 0, TraceEvent::FaultInjected { site: site.name() });
        }
    }

    /// Records one recovery action, keeping the counter and the trace in
    /// lock-step (`WorldStats::faults_recovered` == `RecoveryTaken`
    /// records emitted).
    fn record_recovery(&mut self, pid: Pid, cost_ns: u64, action: &'static str) {
        self.recovered += 1;
        self.trace
            .record(pid, cost_ns, TraceEvent::RecoveryTaken { action });
    }

    // --- memory pressure ---

    /// Bounds the physical frame pool to `frames` pages. The default
    /// (`hkernel::layout::DEFAULT_FRAME_BUDGET`) is generous enough
    /// that ordinary workloads never evict; lower it to simulate
    /// pressure. Takes effect at the next scheduling slice.
    pub fn set_frame_budget(&mut self, frames: u64) {
        self.kernel.frame_pool().set_capacity(frames);
    }

    /// Bounds the kernel swap area to `pages` pages of anonymous
    /// memory. When pool *and* swap are exhausted, the deterministic
    /// OOM killer fires.
    pub fn set_swap_pages(&mut self, pages: u32) {
        self.kernel.frame_pool().set_swap_pages(pages);
    }

    /// The world's frame pool (budget configuration and statistics).
    pub fn frame_pool(&self) -> &hkernel::FramePool {
        self.kernel.frame_pool()
    }

    // --- SMP ---

    /// Gives the kernel `n` simulated CPUs (clamped to 1..=64). The
    /// default of 1 reproduces the classic one-process-per-slice
    /// schedule byte for byte; with more, each scheduling round binds up
    /// to `n` runnable processes (affinity + steal-on-idle) and
    /// advances them in lockstep sub-quanta of `quantum / n`
    /// instructions — a fixed interleave, so any seed replays exactly
    /// (DESIGN.md §11). Takes effect at the next round boundary.
    pub fn set_cpus(&mut self, n: u32) {
        self.kernel.set_cpus(n);
    }

    /// Number of simulated CPUs (1 unless [`World::set_cpus`] raised it).
    pub fn cpus(&self) -> u32 {
        self.kernel.cpus()
    }

    /// Drains the kernel's SMP journal into the trace ring. Shootdowns
    /// are stamped with the same IPI + per-page invalidation price the
    /// cost model bills, so trace costs and the clock reconcile; steals
    /// are free diagnostics (their price is the cold TLB they cause).
    fn pump_smp(&mut self) {
        for ev in self.kernel.drain_smp_events() {
            let (pid, cost, event) = match ev {
                hkernel::SmpEvent::Shootdown {
                    from_cpu,
                    to_cpu,
                    pid,
                    addr,
                    pages,
                    retried,
                } => {
                    let ipis = if retried { 2 } else { 1 };
                    (
                        pid,
                        ipis * self.costs.ipi_ns + pages as u64 * self.costs.shootdown_ns,
                        TraceEvent::TlbShootdown {
                            from_cpu,
                            to_cpu,
                            addr,
                            pages,
                            retried,
                        },
                    )
                }
                hkernel::SmpEvent::Steal { cpu, pid, from_cpu } => {
                    (pid, 0, TraceEvent::CpuSteal { cpu, from_cpu })
                }
            };
            self.trace.record(pid, cost, event);
        }
    }

    /// Drains every block cache's invalidation journal into the trace
    /// ring. Zero-cost diagnostics (the cache must not move simulated
    /// time), attributed to the owning pid; a cache-off run drains
    /// nothing, so these records never perturb the identity suites'
    /// filtered streams.
    fn pump_bb(&mut self) {
        for (pid, ev) in self.kernel.drain_bb_events() {
            self.trace.record(
                pid,
                0,
                TraceEvent::BlockInvalidated {
                    addr: ev.addr,
                    blocks: ev.blocks,
                    cause: ev.cause,
                },
            );
        }
    }

    /// Enables or disables the decoded basic-block cache at runtime
    /// (overrides the `HVM_BBCACHE` environment hook; the differential
    /// suite uses this to run the same workload both ways).
    pub fn set_bbcache(&mut self, enabled: bool) {
        self.kernel.set_bbcache(enabled);
    }

    /// Enables or disables persistent prelink snapshots at runtime
    /// (overrides the `LDL_SNAPSHOT` environment hook; the identity
    /// suite and the `(snapshot off)` bench lanes run the same workload
    /// both ways). Affects processes spawned afterwards.
    pub fn set_link_snapshots(&mut self, enabled: bool) {
        self.kernel.set_link_snapshots(enabled);
    }

    /// Drains the frame pool's pressure journal into the trace ring,
    /// stamping each record with its cost-model price. The counters
    /// these records mirror are billed identically by
    /// [`CostModel::time`], so trace costs and the clock reconcile:
    /// an anonymous eviction carries its swap write, a shared eviction
    /// just the bookkeeping, a writeback/swap-in one page of I/O.
    fn pump_pressure(&mut self) {
        for ev in self.kernel.frame_pool().drain_events() {
            let (pid, cost, event) = match ev {
                hkernel::PageEvent::Evicted { pid, addr, kind } => {
                    let io = if kind == "anon" {
                        self.costs.swap_io_ns
                    } else {
                        0
                    };
                    (
                        pid,
                        self.costs.evict_ns + io,
                        TraceEvent::PageEvicted { addr, kind },
                    )
                }
                hkernel::PageEvent::Writeback { pid, addr } => (
                    pid,
                    self.costs.swap_io_ns,
                    TraceEvent::WritebackTaken { addr },
                ),
                hkernel::PageEvent::SwappedIn { pid, addr } => (
                    pid,
                    self.costs.swap_in_ns,
                    TraceEvent::PageSwappedIn { addr },
                ),
            };
            self.trace.record(pid, cost, event);
        }
    }

    // --- sanitizer ---

    /// Arms the happens-before sanitizer (see `crates/hsan` and
    /// DESIGN.md §9): every guest load/store reaching a shared-file page
    /// and every kernel-mediated synchronization edge is observed from
    /// now on, and data races, lock-order cycles, and protection drift
    /// are reported through [`World::races`], the trace ring, and the
    /// log. Returns a clone of the shared handle for direct inspection.
    ///
    /// The sanitizer is an observer: it adds zero simulated time, and an
    /// unarmed world pays only one `Option` branch per shared access.
    /// Arm *after* building and installing programs so setup traffic
    /// (host-level pokes are invisible anyway) stays out of the shadow.
    pub fn arm_sanitizer(&mut self) -> Arc<Mutex<Sanitizer>> {
        let san = Arc::new(Mutex::new(Sanitizer::new()));
        self.kernel.set_monitor(san.clone());
        self.sanitizer = Some(san.clone());
        san
    }

    /// True if [`World::arm_sanitizer`] has been called.
    pub fn sanitizer_armed(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// The armed sanitizer's shared handle, if any — for direct
    /// inspection (per-CPU access streams, shadow sizes) without
    /// having kept the clone [`World::arm_sanitizer`] returned.
    pub fn sanitizer(&self) -> Option<Arc<Mutex<Sanitizer>>> {
        self.sanitizer.clone()
    }

    /// Races reported by the armed sanitizer so far, oldest first.
    pub fn races(&self) -> &[RaceRecord] {
        &self.races
    }

    /// The shared-partition path of inode `ino`, for report decoration.
    fn shared_path(&self, ino: u32) -> String {
        self.kernel
            .vfs
            .path_of(Vnode {
                mount: Mount::Shared,
                ino,
            })
            .unwrap_or_else(|_| format!("/shared/#{ino}"))
    }

    /// Moves findings out of the armed sanitizer into the trace ring
    /// (at zero cost — diagnostics, not simulation), the log, and the
    /// decorated race list. Trace records are attributed to the pid
    /// each finding names.
    fn drain_sanitizer(&mut self) {
        let Some(san) = &self.sanitizer else {
            return;
        };
        let reports = san.lock().unwrap().drain_reports();
        for rep in reports {
            match rep {
                Report::Race {
                    ino,
                    off,
                    first,
                    second,
                } => {
                    let path = self.shared_path(ino);
                    let rw = |w: bool| if w { "write" } else { "read" };
                    self.log.push(format!(
                        "sanitizer: data race on {path}+{off:#x}: pid {} {} at {:#010x} \
                         vs pid {} {} at {:#010x}",
                        first.pid,
                        rw(first.is_write),
                        first.pc,
                        second.pid,
                        rw(second.is_write),
                        second.pc,
                    ));
                    self.trace.record(
                        second.pid,
                        0,
                        TraceEvent::RaceDetected {
                            path: path.clone(),
                            offset: off,
                            first: (first.pid, first.pc, first.is_write),
                            second: (second.pid, second.pc, second.is_write),
                        },
                    );
                    self.races.push(RaceRecord {
                        path,
                        offset: off,
                        first_pid: first.pid,
                        first_pc: first.pc,
                        first_is_write: first.is_write,
                        second_pid: second.pid,
                        second_pc: second.pc,
                        second_is_write: second.is_write,
                    });
                }
                Report::LockOrderCycle {
                    pid: culprit,
                    chain,
                } => {
                    let chain: Vec<String> = chain.iter().map(|l| l.to_string()).collect();
                    self.log.push(format!(
                        "sanitizer: lock-order cycle closed by pid {culprit}: {}",
                        chain.join(" -> ")
                    ));
                    self.trace.record(
                        culprit,
                        0,
                        TraceEvent::LockOrderCycle {
                            pid: culprit,
                            chain,
                        },
                    );
                }
                Report::ProtectionViolation {
                    pid: writer,
                    pc,
                    uid,
                    ino,
                    off,
                } => {
                    let path = self.shared_path(ino);
                    self.log.push(format!(
                        "sanitizer: pid {writer} (uid {uid}) wrote {path}+{off:#x} at \
                         {pc:#010x} but the current mode denies it (stale mapping)"
                    ));
                    self.trace.record(
                        writer,
                        0,
                        TraceEvent::ProtectionDrift {
                            path,
                            offset: off,
                            uid,
                        },
                    );
                }
            }
        }
    }

    // --- building programs ---

    /// Assembles `source` and installs the object file at `path`. The
    /// module name defaults to the file stem.
    pub fn install_template(&mut self, path: &str, source: &str) -> Result<(), WorldError> {
        let stem = fspath::split_parent(path)
            .map(|(_, name)| name.trim_end_matches(".o").to_string())
            .unwrap_or_else(|| "module".to_string());
        let obj = assemble(&stem, source)?;
        let bytes = binfmt::encode_object(&obj);
        self.kernel.vfs.write_file(path, &bytes, 0o666, 0)?;
        Ok(())
    }

    /// Links a program from `(module spec, sharing class)` pairs and
    /// writes the executable to `out_path`. Warnings go to `self.log`.
    pub fn link(
        &mut self,
        out_path: &str,
        modules: &[(&str, ShareClass)],
    ) -> Result<String, WorldError> {
        self.link_with(out_path, modules, "/", &[], None)
    }

    /// Full-control variant of [`World::link`].
    pub fn link_with(
        &mut self,
        out_path: &str,
        modules: &[(&str, ShareClass)],
        cwd: &str,
        cli_dirs: &[String],
        ld_library_path: Option<&str>,
    ) -> Result<String, WorldError> {
        let input = LdsInput {
            program: out_path.to_string(),
            cwd: cwd.to_string(),
            cli_dirs: cli_dirs.to_vec(),
            ld_library_path: ld_library_path.map(str::to_string),
            modules: modules
                .iter()
                .map(|(spec, class)| ModuleSpec::new(*spec, *class))
                .collect(),
            crt0: crt0_object(),
            strict_duplicates: false,
        };
        let out = Lds::link(&mut self.kernel.vfs, &mut self.registry, &input)?;
        self.log.extend(out.warnings);
        let bytes = binfmt::encode_image(&out.image);
        self.kernel.vfs.write_file(out_path, &bytes, 0o777, 0)?;
        Ok(out_path.to_string())
    }

    // --- running programs ---

    /// Spawns a process from an executable, with defaults (uid 1, cwd
    /// `/`, empty environment).
    pub fn spawn(&mut self, exe_path: &str) -> Result<Pid, WorldError> {
        self.spawn_with(exe_path, "/", 1, &[])
    }

    /// Spawns with explicit cwd, uid, and environment.
    pub fn spawn_with(
        &mut self,
        exe_path: &str,
        cwd: &str,
        uid: u32,
        env: &[(&str, &str)],
    ) -> Result<Pid, WorldError> {
        if !self.powered {
            return Err(WorldError::PoweredOff);
        }
        let bytes = self.kernel.vfs.read_all(exe_path)?;
        let image = binfmt::decode_image(&bytes)?;
        let injected_before = self.faults.injected();
        let pid = self.kernel.spawn(uid);
        let exec = ExecImage {
            name: image.name.clone(),
            text_base: image.text_base,
            text: image.text.clone(),
            data_base: image.data_base,
            data: image.data.clone(),
            bss_size: (image.bss_base + image.bss_size)
                .saturating_sub(image.data_base + image.data.len() as u32),
            entry: image.entry,
        };
        if self.kernel.exec_image(pid, &exec).is_err() {
            // The image never ran; reap the half-built process so the
            // rest of the world can still settle, and tell the caller.
            self.kernel.finalize_exit(pid, -1);
            if self.faults.injected() > injected_before {
                self.record_recovery(pid, self.costs.syscall_ns, "spawn-refused");
            }
            self.drain_injections(pid);
            return Err(WorldError::Fs(FsError::NoSpace));
        }
        {
            let proc = self.kernel.procs.get_mut(&pid).expect("just spawned");
            proc.cwd = cwd.to_string();
            for (k, v) in env {
                proc.env.insert(k.to_string(), v.to_string());
            }
        }
        self.images.insert(pid, Arc::new(image));
        self.link.insert(pid, LinkState::default());
        Ok(pid)
    }

    /// Runs the world for up to `max_slices` scheduler slices.
    pub fn run(&mut self, max_slices: u64) -> WorldExit {
        self.trim_log();
        self.trim_exits();
        for _ in 0..max_slices {
            self.sync_processes();
            let ev = self.kernel.step_system(self.quantum);
            let ev_pid = match &ev {
                RunEvent::Quantum(pid) | RunEvent::Blocked(pid) | RunEvent::Exited(pid, _) => *pid,
                RunEvent::AllExited | RunEvent::Deadlock => 0,
                RunEvent::Break { pid, .. }
                | RunEvent::Fatal { pid, .. }
                | RunEvent::Service { pid, .. }
                | RunEvent::Segv { pid, .. }
                | RunEvent::OomKill { pid, .. } => *pid,
            };
            match ev {
                RunEvent::Quantum(_) | RunEvent::Blocked(_) => {}
                RunEvent::Exited(pid, code) => {
                    self.exits.insert(pid, code);
                    self.flush_link_snapshot(pid);
                }
                RunEvent::AllExited => {
                    self.drain_injections(0);
                    self.pump_pressure();
                    self.pump_smp();
                    self.pump_bb();
                    self.drain_sanitizer();
                    return WorldExit::AllExited;
                }
                RunEvent::Deadlock => {
                    self.drain_injections(0);
                    self.pump_pressure();
                    self.pump_smp();
                    self.pump_bb();
                    self.drain_sanitizer();
                    return WorldExit::Deadlock;
                }
                RunEvent::Break { pid, code } => {
                    self.log.push(format!("pid {pid}: break {code}; killed"));
                    self.kill(pid, 128 + code as i32);
                }
                RunEvent::Fatal { pid, fault } => {
                    self.log.push(format!("pid {pid}: fatal fault: {fault}"));
                    if matches!(fault, hvm::Fault::Eio { .. }) {
                        // The SIGBUS-analog: a mapped page's backing
                        // block is uncorrectably corrupt. Only the
                        // touching process dies — the typed exit code
                        // (128 + SIGBUS) is the containment contract
                        // e14 pins.
                        self.eio_kills += 1;
                        self.kill(pid, 135);
                    } else {
                        self.kill(pid, -1);
                    }
                }
                RunEvent::Service { pid, num } => self.service(pid, num),
                RunEvent::Segv { pid, fault } => self.segv(pid, fault.addr()),
                RunEvent::OomKill { pid, resident } => {
                    // The kernel already finalized the victim's exit and
                    // reclaimed its frames; record the typed recovery.
                    self.log.push(format!(
                        "pid {pid}: out of memory (pool and swap exhausted); \
                         killed holding {resident} resident pages"
                    ));
                    self.exits.insert(pid, 137);
                    self.flush_link_snapshot(pid);
                    self.record_recovery(pid, self.costs.fault_ns, "oom-kill");
                }
            }
            // Publish injections decided during this slice (kernel
            // syscalls inject outside the linker's journal), then any
            // pressure and shootdown work the rebalance pass did.
            self.drain_injections(ev_pid);
            self.pump_pressure();
            self.pump_smp();
            self.pump_bb();
            self.drain_sanitizer();
            self.pump_scrub();
        }
        self.drain_injections(0);
        self.pump_pressure();
        self.pump_smp();
        self.pump_bb();
        self.drain_sanitizer();
        WorldExit::StepLimit
    }

    /// Runs until everything exits (or a generous slice cap).
    pub fn run_to_completion(&mut self) -> WorldExit {
        self.run(2_000_000)
    }

    /// Runs until the world reaches a *stable* state — every process has
    /// exited, or the survivors are deadlocked and can make no further
    /// progress. [`Err(Unsettled)`](Unsettled) is the bounded failure
    /// mode: the slice budget ran out with processes still live.
    pub fn run_to_settle(&mut self, max_slices: u64) -> Result<WorldExit, Unsettled> {
        match self.run(max_slices) {
            WorldExit::StepLimit => {
                let waits: Vec<(Pid, WaitReason)> = self
                    .kernel
                    .procs
                    .iter()
                    .filter(|(_, p)| !matches!(p.state, ProcState::Zombie(_)))
                    .map(|(&pid, p)| (pid, self.wait_reason(pid, p)))
                    .collect();
                Err(Unsettled {
                    live: waits.len(),
                    waits,
                })
            }
            exit => Ok(exit),
        }
    }

    /// Classifies what a live process is waiting on (the per-process
    /// snapshot [`Unsettled`] carries).
    fn wait_reason(&self, pid: Pid, proc: &hkernel::Process) -> WaitReason {
        use hkernel::process::Block;
        match proc.state {
            ProcState::Blocked(Block::Lock { vnode, .. }) => WaitReason::BlockedOnLock {
                path: self
                    .kernel
                    .vfs
                    .path_of(vnode)
                    .unwrap_or_else(|_| format!("#{}", vnode.ino)),
            },
            ProcState::Blocked(Block::Sem(sem)) => WaitReason::BlockedOnSem { sem },
            ProcState::Blocked(Block::Wait(child)) => WaitReason::AwaitingChild { child },
            // Runnable, but mid-fault-resolution per the guard: the
            // last event we saw from it was a fault at this address.
            _ => match self.fault_guard.get(&pid) {
                Some(&(addr, n)) if n > 0 => WaitReason::AwaitingFault { addr },
                _ => WaitReason::Runnable,
            },
        }
    }

    /// Kills a process (recording a synthetic exit status).
    pub fn kill(&mut self, pid: Pid, code: i32) {
        self.kernel.finalize_exit(pid, code);
        self.exits.insert(pid, code);
        self.flush_link_snapshot(pid);
    }

    /// Stores the prelink-snapshot record `pid`'s last successful
    /// resolve staged, if any (DESIGN.md §15), and publishes the
    /// resulting trace record. Called once per quiescent point —
    /// process exit or kill, a barrier, a clean halt — rather than per
    /// link, so a lifetime writes its record at most once per point.
    fn flush_link_snapshot(&mut self, pid: Pid) {
        let Some(state) = self.link.get_mut(&pid) else {
            return;
        };
        if !state.snapshot_staged() {
            return;
        }
        Ldl::new(&mut self.kernel, &mut self.registry, state, pid).flush_snapshot();
        self.pump_trace(pid);
    }

    /// [`World::flush_link_snapshot`] for every process, in pid order
    /// (the disk write stream must not depend on hash order).
    fn flush_all_link_snapshots(&mut self) {
        let mut pids: Vec<Pid> = self.link.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            self.flush_link_snapshot(pid);
        }
    }

    /// The recorded exit status of a process.
    ///
    /// Statuses are kept for the newest pids only: once more than
    /// `2 × 4096` are recorded, the next [`World::run`] forgets all but
    /// the newest 4096 (pids only grow, across boots too). An older
    /// pid then reads `None` unless the kernel still holds it as a
    /// zombie.
    pub fn exit_code(&self, pid: Pid) -> Option<i32> {
        self.exits
            .get(&pid)
            .copied()
            .or_else(|| match self.kernel.procs.get(&pid)?.state {
                ProcState::Zombie(code) => Some(code),
                _ => None,
            })
    }

    /// Applies the bound on [`World::log`].
    fn trim_log(&mut self) {
        if self.log.len() > 2 * LOG_KEEP {
            self.log.drain(..self.log.len() - LOG_KEEP);
        }
    }

    /// Applies the bound on [`World::exit_code`]'s statuses.
    fn trim_exits(&mut self) {
        if self.exits.len() > 2 * EXITS_KEEP {
            let mut pids: Vec<Pid> = self.exits.keys().copied().collect();
            let cut = pids.len() - EXITS_KEEP;
            let (_, &mut oldest_kept, _) = pids.select_nth_unstable(cut);
            self.exits.retain(|&pid, _| pid >= oldest_kept);
        }
    }

    /// A process's console output.
    pub fn console(&self, pid: Pid) -> String {
        self.kernel.console_of(pid)
    }

    /// Per-process dynamic-linker statistics.
    pub fn ldl_stats(&self, pid: Pid) -> Option<hlink::ldl::LdlStats> {
        self.link.get(&pid).map(|s| s.stats)
    }

    /// Link state of a process (for tests and diagnostics).
    pub fn link_state(&self, pid: Pid) -> Option<&LinkState> {
        self.link.get(&pid)
    }

    /// The fault-path trace ring (see [`crate::htrace`]).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable access to the trace ring (clearing between experiment
    /// phases, resizing).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// The trace ring rendered as text, for debugging E6-style runs.
    pub fn trace_dump(&self) -> String {
        self.trace.dump()
    }

    // --- event handlers ---

    /// Gives fork children a link state (cloned from the parent — the
    /// child shares the parent's public mappings and has COW copies of
    /// the private ones at identical addresses) and reaps state for
    /// processes that no longer exist.
    fn sync_processes(&mut self) {
        let pids: Vec<Pid> = self.kernel.procs.keys().copied().collect();
        for pid in &pids {
            if !self.link.contains_key(pid) {
                let ppid = self.kernel.procs[pid].ppid;
                // Journal entries and staged snapshot writes belong to
                // the process that generated them; a fork child starts
                // with neither.
                let inherited = self
                    .link
                    .get(&ppid)
                    .map(LinkState::inherit)
                    .unwrap_or_default();
                self.link.insert(*pid, inherited);
                if let Some(img) = self.images.get(&ppid).cloned() {
                    self.images.insert(*pid, img);
                }
            }
        }
        let gone: Vec<Pid> = self
            .link
            .keys()
            .filter(|pid| !self.kernel.procs.contains_key(pid))
            .copied()
            .collect();
        for pid in gone {
            if let Some(state) = self.link.remove(&pid) {
                self.merge_ldl(&state.stats);
            }
            self.images.remove(&pid);
            self.fault_guard.remove(&pid);
        }
    }

    /// Drains the linker's event journal into the trace ring, stamping
    /// each step with its cost-model price.
    fn pump_trace(&mut self, pid: Pid) {
        let Some(state) = self.link.get_mut(&pid) else {
            return;
        };
        for ev in state.journal.drain(..) {
            let (cost, event) = match ev {
                LinkEvent::AddrTranslated { addr, path } => (
                    self.costs.lookup_ns,
                    TraceEvent::AddrTranslated { addr, path },
                ),
                LinkEvent::SegmentMapped { base, module } => (
                    self.costs.map_ns,
                    TraceEvent::SegmentMapped { base, module },
                ),
                LinkEvent::SymbolResolved {
                    module,
                    symbol,
                    addr,
                } => (
                    self.costs.resolve_ns,
                    TraceEvent::SymbolResolved {
                        module,
                        symbol,
                        addr,
                    },
                ),
                LinkEvent::FaultRetried { what: _, attempts } => {
                    // The linker absorbed a transient injected failure by
                    // retrying; each attempt cost roughly one fault.
                    self.recovered += 1;
                    (
                        self.costs.fault_ns * u64::from(attempts),
                        TraceEvent::RecoveryTaken {
                            action: "ldl-retry",
                        },
                    )
                }
                // Snapshot records mirror the pricing rule exactly: a
                // hit or an invalidation bills one flat validation; a
                // miss and a rebuild are free (DESIGN.md §15).
                LinkEvent::SnapshotHit { exe, modules } => (
                    self.costs.snapshot_validate_ns,
                    TraceEvent::SnapshotHit { exe, modules },
                ),
                LinkEvent::SnapshotMiss { exe } => (0, TraceEvent::SnapshotMiss { exe }),
                LinkEvent::SnapshotInvalidated { exe, why } => (
                    self.costs.snapshot_validate_ns,
                    TraceEvent::SnapshotInvalidated { exe, why },
                ),
                LinkEvent::SnapshotRebuilt { exe, modules } => {
                    (0, TraceEvent::SnapshotRebuilt { exe, modules })
                }
            };
            self.trace.record(pid, cost, event);
        }
    }

    fn merge_ldl(&mut self, s: &hlink::ldl::LdlStats) {
        self.reaped_ldl.absorb(s);
    }

    fn segv(&mut self, pid: Pid, addr: u32) {
        // A refault on a page the clock hand evicted is legitimate
        // forward progress — the guest ran long enough between the two
        // faults for the page to age out — not a resolution loop. Under
        // a tight frame budget one hot shared word can fault at the same
        // address hundreds of times, so it must not count toward
        // FAULT_LOOP_LIMIT.
        let evicted_refault = self
            .kernel
            .procs
            .get(&pid)
            .and_then(|p| p.aspace.entry(addr))
            .map(|e| e.was_evicted())
            .unwrap_or(false);
        let guard = self.fault_guard.entry(pid).or_insert((addr, 0));
        if evicted_refault {
            *guard = (addr, 0);
        } else if guard.0 == addr {
            guard.1 += 1;
            if guard.1 > FAULT_LOOP_LIMIT {
                self.log.push(format!(
                    "pid {pid}: unresolvable fault loop at {addr:#010x}; killed"
                ));
                self.kill(pid, 139);
                return;
            }
        } else {
            *guard = (addr, 0);
        }
        self.trace
            .record(pid, self.costs.fault_ns, TraceEvent::FaultTaken { addr });
        let injected_before = self.faults.injected();
        let result = {
            let state = self.link.entry(pid).or_default();
            let mut ldl = Ldl::new(&mut self.kernel, &mut self.registry, state, pid);
            ldl.handle_fault(addr)
        };
        self.pump_trace(pid);
        self.drain_injections(pid);
        // Did the handler hit an injected failure on this fault?
        let hit_injection = self.faults.injected() > injected_before;
        match result {
            Ok(FaultDisposition::Resolved) => {
                self.trace.record(
                    pid,
                    self.costs.instruction_ns,
                    TraceEvent::InstructionRestarted { addr },
                );
            }
            Ok(FaultDisposition::DeliveredToGuest) => {}
            Ok(FaultDisposition::Fatal) => {
                self.log.push(format!(
                    "pid {pid}: segmentation fault at {addr:#010x} (unresolvable)"
                ));
                if hit_injection {
                    self.record_recovery(pid, self.costs.fault_ns, "killed-victim");
                }
                self.kill(pid, 139);
            }
            Err(e) => {
                self.log
                    .push(format!("pid {pid}: fault at {addr:#010x}: {e}"));
                if !self.kernel.deliver_segv(pid, addr) {
                    if hit_injection {
                        self.record_recovery(pid, self.costs.fault_ns, "killed-victim");
                    }
                    self.kill(pid, 139);
                }
            }
        }
    }

    fn reg(&self, pid: Pid, r: Reg) -> u32 {
        self.kernel
            .procs
            .get(&pid)
            .map(|p| p.cpu.reg(r))
            .unwrap_or(0)
    }

    fn guest_str(&self, pid: Pid, addr: u32) -> Result<String, i32> {
        let proc = self.kernel.procs.get(&pid).ok_or(-14)?;
        let raw = proc
            .aspace
            .read_cstr(&self.kernel.vfs.shared, addr)
            .map_err(|_| -14)?;
        let cwd = proc.cwd.clone();
        fspath::absolutize(&raw, &cwd).map_err(|e| -e.errno())
    }

    fn guest_str_raw(&self, pid: Pid, addr: u32) -> Result<String, i32> {
        let proc = self.kernel.procs.get(&pid).ok_or(-14)?;
        proc.aspace
            .read_cstr(&self.kernel.vfs.shared, addr)
            .map_err(|_| -14)
    }

    fn service(&mut self, pid: Pid, num: u32) {
        let a0 = self.reg(pid, Reg::A0);
        let a1 = self.reg(pid, Reg::A1);
        let result: i32 = match num {
            SVC_LDL_INIT => self.svc_ldl_init(pid),
            SVC_MAP_SEGMENT => match self.guest_str(pid, a0) {
                Ok(path) => {
                    let result = {
                        let state = self.link.entry(pid).or_default();
                        let mut ldl = Ldl::new(&mut self.kernel, &mut self.registry, state, pid);
                        ldl.map_segment_by_path(&path)
                    };
                    match result {
                        Ok(base) => base as i32,
                        Err(e) => {
                            self.log
                                .push(format!("pid {pid}: map_segment({path}): {e}"));
                            err_code(&e)
                        }
                    }
                }
                Err(e) => e,
            },
            SVC_TAS => {
                let proc = self.kernel.procs.get_mut(&pid);
                match proc {
                    Some(p) => match p.aspace.read_bytes(&self.kernel.vfs.shared, a0, 4) {
                        Ok(old) => {
                            let oldv = u32::from_le_bytes([old[0], old[1], old[2], old[3]]);
                            match p.aspace.write_bytes(
                                &mut self.kernel.vfs.shared,
                                a0,
                                &a1.to_le_bytes(),
                            ) {
                                Ok(()) => {
                                    if let Some(san) = &self.sanitizer {
                                        if hsfs::SharedFs::contains(a0) {
                                            // Invert the fixed slot layout
                                            // arithmetically; `addr_to_ino`
                                            // would bill address-table probes
                                            // to the guest.
                                            let rel = a0 - hsfs::SHARED_BASE;
                                            let ino = rel / hsfs::SLOT_SIZE;
                                            let off = rel % hsfs::SLOT_SIZE;
                                            let pc = p.cpu.pc.wrapping_sub(4);
                                            san.lock().unwrap().tas(pid, pc, ino, off, oldv, a1);
                                        }
                                    }
                                    oldv as i32
                                }
                                Err(_) => -14,
                            }
                        }
                        Err(_) => -14,
                    },
                    None => -14,
                }
            }
            SVC_HEAP_INIT => self.svc_heap(a0, a1, HeapOp::Init),
            SVC_HEAP_ALLOC => self.svc_heap(a0, a1, HeapOp::Alloc),
            SVC_HEAP_FREE => self.svc_heap(a0, a1, HeapOp::Free),
            SVC_PRINT_INT => {
                let text = format!("{}\n", a0 as i32);
                if let Some(p) = self.kernel.procs.get_mut(&pid) {
                    p.console.extend_from_slice(text.as_bytes());
                }
                0
            }
            SVC_SETENV => match (self.guest_str_raw(pid, a0), self.guest_str_raw(pid, a1)) {
                (Ok(name), Ok(value)) => {
                    if let Some(p) = self.kernel.procs.get_mut(&pid) {
                        p.env.insert(name, value);
                    }
                    0
                }
                (Err(e), _) | (_, Err(e)) => e,
            },
            SVC_LINK_MODULE => match self.guest_str(pid, a0) {
                Ok(path) => {
                    let class = if a1 == 1 {
                        ShareClass::DynamicPublic
                    } else {
                        ShareClass::DynamicPrivate
                    };
                    let result = {
                        let state = self.link.entry(pid).or_default();
                        let mut ldl = Ldl::new(&mut self.kernel, &mut self.registry, state, pid);
                        ldl.load_module(&path, class, hlink::scope::ROOT)
                            .map(|name| ldl.state.modules.get(&name).map(|m| m.base).unwrap_or(0))
                    };
                    match result {
                        Ok(base) => base as i32,
                        Err(e) => {
                            self.log
                                .push(format!("pid {pid}: link_module({path}): {e}"));
                            err_code(&e)
                        }
                    }
                }
                Err(e) => e,
            },
            SVC_LOOKUP_SYMBOL => match self.guest_str_raw(pid, a0) {
                Ok(name) => {
                    let state = self.link.entry(pid).or_default();
                    state.lookup_global(&name).unwrap_or(0) as i32
                }
                Err(e) => e,
            },
            other => {
                self.log.push(format!("pid {pid}: unknown service {other}"));
                -38
            }
        };
        // Several services run the linker; publish whatever it journaled.
        self.pump_trace(pid);
        self.kernel.set_reg(pid, Reg::V0, result as u32);
    }

    fn svc_ldl_init(&mut self, pid: Pid) -> i32 {
        let Some(image) = self.images.get(&pid).cloned() else {
            self.log
                .push(format!("pid {pid}: ldl_init without an image"));
            return -14;
        };
        let eager = self.eager;
        let result = {
            let state = self.link.entry(pid).or_default();
            if !state.modules.is_empty() || !state.image_exports.is_empty() {
                // Fork children inherit a fully initialized state; crt0
                // runs only in fresh processes, but be idempotent.
                return 0;
            }
            let mut ldl = Ldl::new(&mut self.kernel, &mut self.registry, state, pid);
            ldl.init(&image).and_then(|warnings| {
                if eager {
                    // Eager baseline: keep linking until no module is
                    // still awaiting its first touch (transitive).
                    loop {
                        let lazy: Vec<String> = ldl
                            .state
                            .modules
                            .values()
                            .filter(|m| m.lazy)
                            .map(|m| m.name.clone())
                            .collect();
                        if lazy.is_empty() {
                            break;
                        }
                        for name in lazy {
                            ldl.lazy_link(&name)?;
                        }
                    }
                }
                Ok(warnings)
            })
        };
        match result {
            Ok(warnings) => {
                for w in warnings {
                    self.log.push(format!("pid {pid}: {w}"));
                }
                0
            }
            Err(e) => {
                self.log.push(format!("pid {pid}: ldl init failed: {e}"));
                -1
            }
        }
    }

    fn svc_heap(&mut self, region_addr: u32, arg: u32, op: HeapOp) -> i32 {
        let (ino, off) = match self.kernel.vfs.shared.addr_to_ino(region_addr) {
            Ok(x) => x,
            Err(e) => return -e.errno(),
        };
        if let HeapOp::Init = op {
            // Grow the file so the heap region is materialized.
            let need = off as u64 + arg as u64;
            let size = self
                .kernel
                .vfs
                .shared
                .fs
                .metadata(ino)
                .map(|m| m.size)
                .unwrap_or(0);
            if size < need {
                if let Err(e) = self.kernel.vfs.shared.fs.truncate(ino, need) {
                    return -e.errno();
                }
            }
        }
        let bytes = match self.kernel.vfs.shared.fs.file_bytes_mut(ino) {
            Ok(b) => b,
            Err(e) => return -e.errno(),
        };
        if off as usize >= bytes.len() {
            // The region address lies beyond the backing file (possible
            // for alloc/free on a never-initialized heap address).
            return -22;
        }
        let region = &mut bytes[off as usize..];
        match op {
            HeapOp::Init => {
                if region.len() < arg as usize {
                    return -22;
                }
                match SegHeap::init(&mut region[..arg as usize], region_addr) {
                    Ok(_) => 0,
                    Err(_) => -22,
                }
            }
            HeapOp::Alloc => match SegHeap::attach(region, region_addr) {
                Ok(mut h) => h.alloc(arg).map(|p| p as i32).unwrap_or(0),
                Err(_) => 0,
            },
            HeapOp::Free => match SegHeap::attach(region, region_addr) {
                Ok(mut h) => match h.free(arg) {
                    Ok(()) => 0,
                    Err(_) => -22,
                },
                Err(_) => -22,
            },
        }
    }

    // --- system administration ---

    /// Everything that dies when the machine stops, cleanly or not:
    /// processes (their cumulative counters folded in first, as a reap
    /// would), linker state, cached images, semaphores, the scheduler
    /// round, frame and swap residency, all advisory locks, the
    /// in-kernel address table, and the module-metadata cache. On a
    /// clean halt the shared partition is flushed first, so nothing in
    /// the write pipeline is lost; on a crash the un-flushed suffix is
    /// discarded (and counted).
    fn halt(&mut self, crash: bool) {
        // Get pending diagnostics into the ring before the state that
        // produced them disappears.
        self.drain_injections(0);
        self.pump_pressure();
        self.pump_smp();
        self.pump_bb();
        self.drain_sanitizer();
        if !crash {
            self.flush_all_link_snapshots();
            self.kernel.vfs.shared.fs.barrier();
        }
        for (_, s) in self.link.drain() {
            self.reaped_ldl.absorb(&s.stats);
        }
        let discarded = self.kernel.vfs.shared.fs.power_cut();
        self.kernel.power_cut();
        self.images.clear();
        self.fault_guard.clear();
        self.kernel.vfs.shared.linear_table_clear_for_test();
        self.registry.clear_cache();
        self.powered = false;
        if crash {
            self.crashes += 1;
            self.blocks_discarded += discarded;
            self.trace.record(
                0,
                0,
                TraceEvent::CrashTaken {
                    blocks_discarded: discarded,
                },
            );
            self.log.push(format!(
                "power cut: {discarded} un-flushed block writes lost"
            ));
        }
    }

    /// Pulls the plug (DESIGN.md §13): every process dies mid-
    /// instruction, all volatile kernel state — TLBs, block caches,
    /// advisory locks, frame pool, swap slots, the in-kernel address
    /// table — vanishes, and any disk write not yet flushed by a
    /// barrier is discarded. The simulated disk (the flushed prefix of
    /// the write stream plus the on-disk journal) survives for
    /// [`World::reboot`]. Nothing can run until then.
    pub fn power_cut(&mut self) {
        self.halt(true);
    }

    /// Brings the machine back up: replays the metadata journal onto
    /// the surviving disk image (idempotent — a reboot that crashes
    /// during recovery just replays again), rebuilds the address table
    /// by the boot-time scan of §3, then runs `fsck` and self-heals any
    /// residual damage (including crash-orphaned swap files). Called on
    /// a running machine it is a *clean* reboot: the pipeline is
    /// flushed first, so no journal replay is needed and nothing is
    /// lost. Public module instances and their on-disk metadata
    /// survive; programs can be spawned again immediately.
    pub fn reboot(&mut self) {
        if self.powered {
            self.halt(false);
        }
        let rs = self.kernel.vfs.shared.fs.replay_journal();
        if rs.records > 0 {
            // Recovery is billed once, here: reading the journal (one
            // block per record) plus writing the block images home.
            let ns = (rs.records + rs.blocks) * self.costs.disk_block_ns;
            self.journal_replays += 1;
            self.recovery_ns += ns;
            self.trace.record(
                0,
                ns,
                TraceEvent::JournalReplayed {
                    records: rs.records,
                    blocks: rs.blocks,
                },
            );
            self.log.push(format!(
                "journal replay: {} records ({} block images) applied",
                rs.records, rs.blocks
            ));
        }
        self.kernel.vfs.shared.boot_scan();
        self.fsck_at_boot();
        // A new boot re-validates each executable's prelink snapshot
        // exactly once (DESIGN.md §15).
        self.kernel.clear_snapshot_consults();
        self.powered = true;
        self.trim_log();
        self.log
            .push("system rebooted; address table rebuilt by scan".to_string());
    }

    /// True unless a [`World::power_cut`] has not yet been followed by a
    /// [`World::reboot`].
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Flushes the shared partition's write pipeline (mapped-store dirt
    /// included) and checkpoints its journal — the machine-level
    /// `sync`. Data flushed by a completed barrier survives any later
    /// crash. Staged prelink-snapshot records of live processes are
    /// stored first, so they are covered too. Returns the disk write
    /// index after the flush.
    pub fn barrier(&mut self) -> u64 {
        self.flush_all_link_snapshots();
        self.kernel.vfs.shared.fs.barrier()
    }

    /// The shared disk's write index: how many block writes the device
    /// has accepted. Crash-point enumeration runs the workload once to
    /// learn the final index, then re-runs killing the device at each
    /// earlier index.
    pub fn disk_seq(&self) -> u64 {
        self.kernel.vfs.shared.fs.disk_seq()
    }

    /// Arms a deterministic crash point: the shared disk dies at write
    /// `k` (0-based), discarding that write and everything after it.
    /// With `tear`, the first discarded write is half-applied — the
    /// torn-block case. The death is invisible until [`World::power_cut`]
    /// makes it matter.
    pub fn set_crash_at(&mut self, k: u64, tear: bool) {
        self.kernel.vfs.shared.fs.set_crash_at(k, tear);
    }

    // --- disk integrity (DESIGN.md §14) ---

    /// Whether the shared partition runs the end-to-end integrity
    /// machinery — block checksums, self-describing address stamps,
    /// the replica region, and scrub. It ships with the durability
    /// pipeline, which the shared partition always has.
    pub fn integrity_enabled(&self) -> bool {
        self.kernel.vfs.shared.fs.integrity_enabled()
    }

    /// Runs a scrub pass every `every` scheduler slices during
    /// [`World::run`] (`None` disables the hook — the default).
    pub fn set_scrub_interval(&mut self, every: Option<u64>) {
        self.scrub_interval = every;
        self.slices_since_scrub = 0;
    }

    /// `(data blocks written, integrity-region blocks written)` on the
    /// shared partition — the write-amplification pair the e14 bench
    /// gates.
    pub fn write_amplification(&self) -> (u64, u64) {
        self.kernel.vfs.shared.fs.write_amplification()
    }

    /// Pages of the shared partition currently poisoned (uncorrectable
    /// corruption contained; 0 in every healthy run).
    pub fn poisoned_blocks(&self) -> u64 {
        self.kernel.vfs.shared.fs.poisoned_blocks()
    }

    /// The every-N-slices scrub hook of [`World::run`].
    fn pump_scrub(&mut self) {
        let Some(every) = self.scrub_interval else {
            return;
        };
        self.slices_since_scrub += 1;
        if self.slices_since_scrub >= every {
            self.slices_since_scrub = 0;
            self.scrub();
        }
    }

    /// One deterministic scrub pass over the shared partition: verify
    /// every stamped block against the checksum region, heal each
    /// corrupt one from the replica region or the journal, poison what
    /// cannot be healed. Priced per verified block plus per repair;
    /// every finding is journaled and counted. `None` only for a
    /// write-through file system, which the shared partition never is.
    pub fn scrub(&mut self) -> Option<hsfs::ScrubReport> {
        let report = self.kernel.vfs.shared.fs.scrub()?;
        self.blocks_scrubbed += report.blocks_scanned;
        let corrupt = report.findings.len() as u64;
        let mut repaired = 0u64;
        for f in &report.findings {
            self.corruptions_detected += 1;
            self.trace.record(
                0,
                0,
                TraceEvent::CorruptionDetected {
                    ino: f.ino,
                    block: f.offset,
                    reason: f.reason,
                },
            );
            self.log.push(format!(
                "scrub: corruption detected ino {} block {} ({})",
                f.ino, f.offset, f.reason
            ));
            match f.repaired_from {
                Some(source) => {
                    repaired += 1;
                    self.blocks_repaired += 1;
                    self.trace.record(
                        0,
                        self.costs.repair_ns,
                        TraceEvent::BlockRepaired {
                            ino: f.ino,
                            block: f.offset,
                            source,
                        },
                    );
                    self.log.push(format!(
                        "scrub: ino {} block {} healed from {}",
                        f.ino, f.offset, source
                    ));
                }
                None => {
                    self.log.push(format!(
                        "scrub: ino {} block {} uncorrectable; page poisoned",
                        f.ino, f.offset
                    ));
                }
            }
        }
        self.trace.record(
            0,
            report.blocks_scanned * self.costs.scrub_block_ns,
            TraceEvent::ScrubPass {
                blocks: report.blocks_scanned,
                corrupt,
                repaired,
            },
        );
        Some(report)
    }

    /// Resolves `path` to a shared-partition inode without perturbing
    /// any priced counter — corruption is a disk phenomenon; injecting
    /// it must be invisible to the cost model (cf. `fsck_at_boot`).
    fn resolve_shared_unpriced(&mut self, path: &str) -> Option<hsfs::Ino> {
        let sfs = &mut self.kernel.vfs.shared;
        let (lookups, probes) = (sfs.addr_lookups, sfs.addr_probe_steps);
        let fs_stats = sfs.fs.stats;
        let resolved = self.kernel.vfs.resolve(path);
        let sfs = &mut self.kernel.vfs.shared;
        sfs.addr_lookups = lookups;
        sfs.addr_probe_steps = probes;
        sfs.fs.stats = fs_stats;
        match resolved {
            Ok(Vnode {
                mount: Mount::Shared,
                ino,
            }) => Some(ino),
            _ => None,
        }
    }

    /// Deterministically corrupts one block of a shared segment on the
    /// simulated disk (chaos-site mirror for tests and experiments).
    /// `block` is a block index, not a byte offset. False when the path
    /// does not name a stamped shared file block.
    pub fn corrupt_shared_block(
        &mut self,
        path: &str,
        block: u64,
        kind: hsfs::CorruptKind,
    ) -> bool {
        let Some(ino) = self.resolve_shared_unpriced(path) else {
            return false;
        };
        let offset = block * u64::from(hsfs::BLOCK_SIZE);
        self.kernel
            .vfs
            .shared
            .fs
            .corrupt_block_for_test(ino, offset, kind)
    }

    /// Corrupts the replica-region copy of one shared-segment block
    /// (tests; with the journal checkpointed this makes the block
    /// uncorrectable — the double-corruption case of e14).
    pub fn corrupt_shared_replica(&mut self, path: &str, block: u64) -> bool {
        let Some(ino) = self.resolve_shared_unpriced(path) else {
            return false;
        };
        let offset = block * u64::from(hsfs::BLOCK_SIZE);
        self.kernel
            .vfs
            .shared
            .fs
            .corrupt_replica_for_test(ino, offset)
    }

    /// Order-insensitive digest of the shared partition's logical state
    /// (metadata + bytes; locks and counters excluded). Two worlds with
    /// equal digests relink identically.
    pub fn shared_digest(&self) -> u32 {
        self.kernel.vfs.shared.fs.state_digest()
    }

    /// Boot-time `fsck`: after the address-table scan, check the shared
    /// partition for residual crash damage and self-heal it before the
    /// first map, surfacing each repair as an [`TraceEvent::FsckRepaired`]
    /// record (at zero cost — administrative work is not billed to
    /// guests; the address-table counters the check perturbs are
    /// restored afterward, so simulated time is unchanged).
    fn fsck_at_boot(&mut self) {
        let sfs = &mut self.kernel.vfs.shared;
        let (lookups, probes) = (sfs.addr_lookups, sfs.addr_probe_steps);
        let fs_stats = sfs.fs.stats;
        let issues = hsfs::tools::fsck_boot(sfs);
        for issue in &issues {
            let verdict = hsfs::tools::fsck_repair(&mut self.kernel.vfs.shared, issue);
            // Corrupt blocks get the full integrity bookkeeping: typed
            // trace records and counters, with successful heals priced
            // like a scrub repair (the scan itself rides fsck for free).
            if let hsfs::tools::FsckIssue::CorruptBlock {
                ino,
                offset,
                reason,
            } = issue
            {
                self.corruptions_detected += 1;
                self.trace.record(
                    0,
                    0,
                    TraceEvent::CorruptionDetected {
                        ino: *ino,
                        block: *offset,
                        reason,
                    },
                );
                if let hsfs::tools::RepairVerdict::Repaired(ref d) = verdict {
                    self.blocks_repaired += 1;
                    let source = if d.ends_with("replica") {
                        "replica"
                    } else {
                        "journal"
                    };
                    self.trace.record(
                        0,
                        self.costs.repair_ns,
                        TraceEvent::BlockRepaired {
                            ino: *ino,
                            block: *offset,
                            source,
                        },
                    );
                }
            }
            let detail = match verdict {
                hsfs::tools::RepairVerdict::Repaired(d) => d,
                hsfs::tools::RepairVerdict::Unrepaired(d) => format!("UNREPAIRED: {d}"),
            };
            self.log.push(format!("fsck: {detail}"));
            self.trace.record(0, 0, TraceEvent::FsckRepaired { detail });
        }
        let sfs = &mut self.kernel.vfs.shared;
        sfs.addr_lookups = lookups;
        sfs.addr_probe_steps = probes;
        sfs.fs.stats = fs_stats;
    }

    /// Enumerates every shared segment, annotated with whether it is a
    /// linked module (has linker metadata) and its exported symbols —
    /// the "peruse all of the segments in existence" facility of §5,
    /// module-aware.
    pub fn list_segments(&mut self) -> Vec<(hsfs::tools::SegmentInfo, Option<Vec<String>>)> {
        let infos = hsfs::tools::list_segments(&mut self.kernel.vfs.shared);
        infos
            .into_iter()
            .map(|info| {
                let exports = self
                    .registry
                    .get(&mut self.kernel.vfs, info.ino)
                    .map(|m| m.exports.iter().map(|(n, _)| n.clone()).collect());
                (info, exports)
            })
            .collect()
    }

    // --- inspection helpers ---

    /// Reads the word at an exported symbol of a public module instance.
    pub fn peek_shared_word(
        &mut self,
        instance_path: &str,
        symbol: &str,
    ) -> Result<u32, WorldError> {
        let v = self.kernel.vfs.resolve(instance_path)?;
        let meta = self
            .registry
            .get(&mut self.kernel.vfs, v.ino)
            .ok_or_else(|| WorldError::NoSuchSymbol(symbol.to_string()))?;
        let addr = meta
            .find_export(symbol)
            .ok_or_else(|| WorldError::NoSuchSymbol(symbol.to_string()))?;
        let off = (addr - meta.base) as usize;
        let bytes = self.kernel.vfs.shared.fs.file_bytes(v.ino)?;
        // A crash can recover the instance with its metadata committed
        // but its content still short of this symbol's slot.
        let word = bytes
            .get(off..off + 4)
            .ok_or_else(|| WorldError::NoSuchSymbol(symbol.to_string()))?;
        Ok(u32::from_le_bytes(word.try_into().unwrap()))
    }

    /// Writes the word at an exported symbol of a public module instance.
    pub fn poke_shared_word(
        &mut self,
        instance_path: &str,
        symbol: &str,
        value: u32,
    ) -> Result<(), WorldError> {
        let v = self.kernel.vfs.resolve(instance_path)?;
        let meta = self
            .registry
            .get(&mut self.kernel.vfs, v.ino)
            .ok_or_else(|| WorldError::NoSuchSymbol(symbol.to_string()))?;
        let addr = meta
            .find_export(symbol)
            .ok_or_else(|| WorldError::NoSuchSymbol(symbol.to_string()))?;
        let off = addr as usize - meta.base as usize;
        let bytes = self.kernel.vfs.shared.fs.file_bytes_mut(v.ino)?;
        let slot = bytes
            .get_mut(off..off + 4)
            .ok_or_else(|| WorldError::NoSuchSymbol(symbol.to_string()))?;
        slot.copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Gathers all counters for the cost model.
    pub fn stats(&self) -> WorldStats {
        let mut cow = self.reaped_cow + self.kernel.stats.cow_copies;
        let mut tlb_hits = self.kernel.stats.tlb_hits;
        let mut tlb_misses = self.kernel.stats.tlb_misses;
        for p in self.kernel.procs.values() {
            cow += p.aspace.stats.cow_copies;
            tlb_hits += p.aspace.stats.tlb_hits;
            tlb_misses += p.aspace.stats.tlb_misses;
        }
        let mut ldl = self.reaped_ldl;
        for s in self.link.values() {
            ldl.absorb(&s.stats);
        }
        let (races_detected, sync_edges, shadow_bytes) = match &self.sanitizer {
            Some(san) => {
                let s = san.lock().unwrap();
                (s.races_detected(), s.sync_edges(), s.shadow_bytes())
            }
            None => (0, 0, 0),
        };
        let pool = self.kernel.frame_pool().stats();
        let bb = self.kernel.bb_stats();
        WorldStats {
            kernel: self.kernel.stats,
            root_fs: self.kernel.vfs.root.stats,
            shared_fs: self.kernel.vfs.shared.fs.stats,
            addr_lookups: self.kernel.vfs.shared.addr_lookups,
            addr_probe_steps: self.kernel.vfs.shared.addr_probe_steps,
            ldl,
            cow_copies: cow,
            tlb_hits,
            tlb_misses,
            faults_injected: self.faults.injected(),
            faults_recovered: self.recovered,
            races_detected,
            sync_edges,
            shadow_bytes,
            page_evictions: pool.evictions,
            page_writebacks: pool.writebacks,
            swap_outs: pool.swap_outs,
            swap_ins: pool.swap_ins,
            resident_frames: pool.resident,
            peak_resident_frames: pool.peak_resident,
            frame_budget: pool.capacity,
            oom_kills: pool.oom_kills,
            shootdowns: self.kernel.stats.shootdowns,
            ipis: self.kernel.stats.ipis,
            cross_cpu_steals: self.kernel.stats.cross_cpu_steals,
            bblocks_built: bb.built,
            bblock_hits: bb.hits,
            bblock_invalidations: bb.invalidations,
            crashes: self.crashes,
            journal_replays: self.journal_replays,
            blocks_discarded: self.blocks_discarded,
            recovery_ns: self.recovery_ns,
            blocks_scrubbed: self.blocks_scrubbed,
            corruptions_detected: self.corruptions_detected,
            blocks_repaired: self.blocks_repaired,
            eio_kills: self.eio_kills,
            snapshot_hits: ldl.snapshot_hits,
            snapshot_misses: ldl.snapshot_misses,
            snapshot_invalidations: ldl.snapshot_invalidations,
            snapshot_rebuilds: ldl.snapshot_rebuilds,
            unpriced_bytes: self.kernel.vfs.unpriced_bytes(),
        }
    }
}

enum HeapOp {
    Init,
    Alloc,
    Free,
}

fn err_code(e: &LinkError) -> i32 {
    match e {
        LinkError::Fs(fs) => -fs.errno(),
        LinkError::AccessDenied { .. } => -13,
        _ => -14,
    }
}

#[cfg(test)]
mod tests {
    use super::{switch_is_off, World, WorldExit, EXITS_KEEP};
    use hobj::ShareClass;

    /// A parent that forks and reaps more than `2 × 8192` children, each
    /// exiting with its index, run in short slices: the recorded exit
    /// statuses stay bounded, and the newest are still readable.
    #[test]
    fn exit_statuses_stay_bounded_over_many_lifetimes() {
        const CHILDREN: u32 = 2 * 8192 + 500;
        let mut world = World::new();
        world
            .install_template(
                "/src/forkmany.o",
                &format!(
                    r#"
.module forkmany
.text
.globl main
main:   li   r16, 0
loop:   li   r9, {CHILDREN}
        beq  r16, r9, done
        li   v0, 6              ; fork
        syscall
        beq  v0, r0, child
        li   v0, 16             ; waitpid(any)
        li   a0, 0
        syscall
        addi r16, r16, 1
        b    loop
done:   li   v0, 0
        jr   ra
child:  or   a0, r16, r0        ; exit(index)
        li   v0, 1
        syscall
"#
                ),
            )
            .unwrap();
        let exe = world
            .link(
                "/bin/forkmany",
                &[("/src/forkmany.o", ShareClass::StaticPrivate)],
            )
            .unwrap();
        let parent = world.spawn(&exe).unwrap();
        let mut peak = 0;
        loop {
            let exit = world.run(1_000);
            peak = peak.max(world.exits.len());
            if exit == WorldExit::AllExited {
                break;
            }
            assert_eq!(exit, WorldExit::StepLimit, "log: {:?}", world.log);
        }
        assert_eq!(world.exit_code(parent), Some(0), "log: {:?}", world.log);
        assert_eq!(world.stats().kernel.forks, u64::from(CHILDREN));
        assert!(
            peak <= 2 * EXITS_KEEP + 1_000,
            "exit statuses grew to {peak}"
        );
        // Children exit in fork order with their index; the newest
        // statuses survive every trim.
        let mut children: Vec<_> = world
            .exits
            .keys()
            .copied()
            .filter(|&p| p != parent)
            .collect();
        children.sort_unstable();
        assert!(children.len() >= EXITS_KEEP);
        for (back, &pid) in children.iter().rev().take(EXITS_KEEP).enumerate() {
            let index = CHILDREN as i32 - 1 - back as i32;
            assert_eq!(world.exit_code(pid), Some(index), "pid {pid}");
        }
    }

    #[test]
    fn only_off_zero_and_false_turn_a_switch_off() {
        for v in ["off", "0", "false"] {
            assert!(switch_is_off(Some(v)), "{v}");
        }
        for v in ["on", "1", "true", "", "OFF", " off", "no"] {
            assert!(!switch_is_off(Some(v)), "{v:?}");
        }
        assert!(!switch_is_off(None));
    }
}
