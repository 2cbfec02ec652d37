//! E12 — the decoded basic-block cache (DESIGN.md §12) is semantically
//! invisible.
//!
//! The cache is a host-speed optimization: `Cpu::run_block` executes
//! straight-line decoded runs instead of fetch→decode→dispatch per
//! instruction, and `hkernel` drops cached blocks on exactly the events
//! that already invalidate the TLB. Nothing the guest — or the cost
//! model, or the sanitizer, or the chaos engine — can observe is allowed
//! to change. Four claims are tested here:
//!
//! 1. **Differential property**: over quantum × cpus ∈ {1,4} ×
//!    frame-budget, a cache-on run and a cache-off run of the same
//!    pressured multi-worker scenario produce identical observables,
//!    identical simulated time, an identical `htrace` stream (modulo the
//!    0-cost `BlockInvalidated` diagnostics the cache itself emits), and
//!    identical `WorldStats` modulo the three `bblock` counters; the
//!    counters themselves reconcile (`hits + built = entries`,
//!    `invalidations ≤ built`).
//! 2. **Chaos and sanitizer identity**: an armed fault plan injects the
//!    same failures with the same outcomes either way, and hsan reports
//!    the same races from the same PCs — the observed `MemBus` sees
//!    every load and store whether or not decode was skipped.
//! 3. **Invalidation edges**: a guest store into a cached executable
//!    page aborts the in-flight block (self-modifying code executes the
//!    *new* bytes), a store into the other block of the two-entry
//!    dispatch memo runs the new bytes, clock eviction under SMP
//!    pressure drops the victim's blocks, fork flushes the parent and
//!    starts the child cold, and a generation-counter wraparound
//!    flushes rather than ABA-matching.
//! 4. **Pinning and per-block translation**: a block never outlives a
//!    text-epoch movement — the partial run retires exactly the
//!    instructions that executed and hands control back to the dispatch
//!    loop. A block is translated fully once, at entry; later
//!    instructions re-check the TLB tag, and a data access that evicts
//!    the code page's entry mid-block costs the same TLB misses as
//!    per-instruction translation.

use bench::fixtures::{
    self, build_pressure_world, calibrated_half_budget, env_switch_on, run_counter, Replay,
    COUNTER_ELIDED, WORKERS,
};
use hemlock::{FaultPlan, FaultSite, ShareClass, World, WorldExit, WorldStats};
use proptest::prelude::*;

/// Runs the pressure scenario with the cache on or off and captures
/// the replay. `BlockInvalidated` records are the cache's own 0-cost
/// diagnostics — they exist only on a cache-on run — and the three
/// `bblock` counters are the only `WorldStats` fields allowed to
/// differ.
fn run_cached(
    cache: bool,
    quantum: u64,
    cpus: u32,
    budget: Option<u64>,
    plan: Option<FaultPlan>,
) -> (Replay, World) {
    let (obs, world) = fixtures::run_pressured(WORKERS, quantum, cpus, budget, plan, |w| {
        w.set_bbcache(cache)
    });
    let replay = Replay::capture(obs, &world, &["BlockInvalidated"], mask_bblocks);
    (replay, world)
}

/// Zeroes the three `bblock` counters: the only `WorldStats` fields a
/// cache-on run may differ in from its cache-off twin.
fn mask_bblocks(s: &mut WorldStats) {
    s.bblocks_built = 0;
    s.bblock_hits = 0;
    s.bblock_invalidations = 0;
}

/// Installs `modules` (`(path, source, class)`, the first holding
/// `main`), links them into one program and runs it to completion with
/// the cache on or off. Returns the exit code and the finished world.
fn run_program(cache: bool, modules: &[(&str, &str, ShareClass)]) -> (Option<i32>, World) {
    let mut world = World::new();
    world.set_bbcache(cache);
    for (path, source, _) in modules {
        world.install_template(path, source).unwrap();
    }
    let parts: Vec<(&str, ShareClass)> = modules.iter().map(|(p, _, c)| (*p, *c)).collect();
    let exe = world.link("/bin/prog", &parts).unwrap();
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    (world.exit_code(pid), world)
}

/// What a cache-off twin must reproduce of a finished world: the
/// simulated clock and every `WorldStats` field but the `bblock` ones.
fn cache_blind_stats(world: &World) -> (u64, String) {
    let mut stats = world.stats();
    mask_bblocks(&mut stats);
    (bench::sim_time(world).0, format!("{stats:?}"))
}

fn trace_cause_count(world: &World, cause: &str) -> u64 {
    world
        .trace()
        .records()
        .filter(|r| match &r.event {
            hemlock::TraceEvent::BlockInvalidated { cause: c, .. } => *c == cause,
            _ => false,
        })
        .count() as u64
}

// --- 1. the differential property -------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// For any quantum, cpus ∈ {1,4}, pressured or not: cache-on and
    /// cache-off runs are indistinguishable in every observable, the
    /// simulated clock, the trace stream, and `WorldStats` modulo the
    /// three `bblock` counters — and the counters reconcile.
    #[test]
    fn cache_is_semantically_invisible(
        quantum in 100u64..500,
        four_cpus in 0u32..2,
        pressured in 0u32..2,
    ) {
        let cpus = if four_cpus == 1 { 4 } else { 1 };
        let budget = (pressured == 1).then(calibrated_half_budget);
        let (on, on_world) = run_cached(true, quantum, cpus, budget, None);
        let (off, off_world) = run_cached(false, quantum, cpus, budget, None);
        prop_assert_eq!(&on, &off, "cache must be invisible (cpus={})", cpus);

        // The cache must actually have been exercised on / idle off.
        let bb = on_world.kernel.bb_stats();
        prop_assert!(bb.hits > 0, "fast path never taken: {bb:?}");
        prop_assert!(bb.built > 0);
        prop_assert_eq!(bb.hits + bb.built, bb.entries, "{:?}", bb);
        prop_assert!(bb.invalidations <= bb.built, "{bb:?}");
        let idle = off_world.kernel.bb_stats();
        prop_assert_eq!(idle.entries, 0, "disabled cache moved: {:?}", idle);

        // The WorldStats counters are the kernel's, verbatim.
        let stats = on_world.stats();
        prop_assert_eq!(stats.bblocks_built, bb.built);
        prop_assert_eq!(stats.bblock_hits, bb.hits);
        prop_assert_eq!(stats.bblock_invalidations, bb.invalidations);
    }
}

// --- 2. chaos + sanitizer identity ------------------------------------

/// An armed fault plan injects the same failures and the world takes the
/// same recoveries with the cache on or off — chaos outcomes replay
/// across the fast path, not just across host runs.
#[test]
fn chaos_outcomes_are_identical_with_cache_off() {
    let budget = calibrated_half_budget();
    let plan = || FaultPlan::new(7, 1_000_000).only(&[FaultSite::ShootdownDrop]);
    let (on, on_world) = run_cached(true, 300, 4, Some(budget), Some(plan()));
    let (off, _) = run_cached(false, 300, 4, Some(budget), Some(plan()));
    assert_eq!(on, off, "chaos must be cache-blind");
    assert!(on_world.stats().faults_injected > 0, "plan must inject");
    assert!(on_world.kernel.bb_stats().hits > 0);
}

/// hsan sees every load and store on the fast path: the lock-elided
/// racy counter (cf. `tests/e11_smp.rs`) is reported identically — same
/// verdict, same racing PCs — with the cache on or off.
#[test]
fn sanitizer_verdicts_are_identical_with_cache_off() {
    let run = |cache: bool| {
        let (_, world) = run_counter(COUNTER_ELIDED, 4, 4, |w| w.set_bbcache(cache));
        (world.stats().races_detected, world.races().to_vec(), world)
    };
    let (on_count, on_races, on_world) = run(true);
    let (off_count, off_races, _) = run(false);
    assert!(on_count >= 1, "elided lock must race");
    assert_eq!(on_count, off_count, "same verdict count");
    assert_eq!(on_races, off_races, "same races, same PCs");
    assert!(on_world.kernel.bb_stats().hits > 0, "fast path must run");
}

// --- 3. invalidation edges --------------------------------------------

/// Self-modifying code: private text is W^X (a guest store into it
/// segfaults, cache or no cache), but a lazily-linked public module's
/// text is mapped RWX — so a guest can patch a function it has already
/// executed *and cached*. The store must drop the stale block (the
/// bus's W^X dirty hook) and abort the in-flight run (text epoch), so
/// the second call executes the *patched* bytes, exactly as it does
/// with the cache off. Without the hook the stale decoded `addi v0, 1`
/// would win and the run would exit 1.
#[test]
fn store_into_cached_executable_page_aborts_the_running_block() {
    const PATCHMOD: &str = r#"
.module patchmod
.text
.globl func
func:   addi v0, r0, 1
        jr   ra
.globl donor
donor:  addi v0, r0, 77
"#;
    const MAIN: &str = r#"
.module main
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  func           ; warm the cache: v0 = 1
        la   r9, donor
        lw   r10, 0(r9)
        la   r8, func
        sw   r10, 0(r8)     ; patch func's first instruction
        jal  func           ; must run the patched bytes: v0 = 77
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;
    let run = |cache: bool| {
        run_program(
            cache,
            &[
                ("/src/main.o", MAIN, ShareClass::StaticPrivate),
                (
                    "/shared/lib/patchmod.o",
                    PATCHMOD,
                    ShareClass::DynamicPublic,
                ),
            ],
        )
    };
    let (on_code, on_world) = run(true);
    let (off_code, _) = run(false);
    assert_eq!(off_code, Some(77), "reference semantics: patched byte wins");
    assert_eq!(on_code, off_code, "cached run executed stale bytes");
    // The W^X dirty hook fired and dropped the warmed block.
    assert!(
        trace_cause_count(&on_world, "store-exec") > 0,
        "store-exec invalidation missing:\n{}",
        on_world.trace_dump()
    );
    assert!(on_world.kernel.bb_stats().invalidations > 0);
}

/// The dispatch memo holds two blocks, and a block may store into the
/// other one's text. Here the loop body rewrites the `addi` at `patch`
/// with this iteration's counter, so the store moves the cache's stamp
/// every iteration while `patch`'s old block is still in the memo. The
/// rewritten bytes must run each time (exit 9+8+…+0 = 45, as with the
/// cache off); a memo entry that outlived the stamp would replay the
/// first decode (9 ten times).
#[test]
fn store_into_the_other_memoized_block_runs_the_new_bytes() {
    const LOOPMOD: &str = r#"
.module loopmod
.text
.globl func
func:   li   r16, 10
        li   v0, 0
        la   r9, patch
        la   r11, donor
        lw   r11, 0(r11)    ; `addi v0, v0, 0`
body:   addi r16, r16, -1
        add  r10, r11, r16
        sw   r10, 0(r9)     ; patch becomes `addi v0, v0, r16`
patch:  addi v0, v0, 0
        bgtz r16, body
        jr   ra
donor:  addi v0, v0, 0
"#;
    const MAIN: &str = r#"
.module main
.text
.globl main
main:   addi sp, sp, -8
        sw   ra, 0(sp)
        jal  func
        lw   ra, 0(sp)
        addi sp, sp, 8
        jr   ra
"#;
    let run = |cache: bool| {
        run_program(
            cache,
            &[
                ("/src/main.o", MAIN, ShareClass::StaticPrivate),
                ("/shared/lib/loopmod.o", LOOPMOD, ShareClass::DynamicPublic),
            ],
        )
    };
    let (on_code, on_world) = run(true);
    let (off_code, off_world) = run(false);
    assert_eq!(off_code, Some(45), "reference semantics: every patch runs");
    assert_eq!(on_code, off_code, "cached run replayed a stale decode");
    assert_eq!(cache_blind_stats(&on_world), cache_blind_stats(&off_world));
    assert!(trace_cause_count(&on_world, "store-exec") >= 10);
}

/// Per-block translation stays exact when the block's own data access
/// evicts its code page's TLB entry. The sweep loads twice from each of
/// 64 consecutive stack pages in one 64-aligned group; the TLB's folded
/// index gives every page of such a group its own entry, so exactly one
/// page shares the loop's code entry. On that page the first load evicts
/// the code entry, the re-check of the next instruction misses and
/// refills it, the second load misses again, and so does the re-check
/// after it. A second pass over pages that are now resident pays exactly
/// those four misses, three of them mid-block. A re-check that counted
/// a hit without testing the tag would leave the data entry in place
/// and differ from the cache-off run.
#[test]
fn data_access_evicting_the_code_page_entry_mid_block_matches_cache_off() {
    // The sweep's group size (`lui 0xFFFC` masks to 256 KB) is one page
    // per TLB entry.
    assert_eq!(hkernel::mem::TLB_ENTRIES, 64);
    let sweep = |passes: u32| {
        format!(
            r#"
.module main
.text
.globl main
main:   li   r17, {passes}
        lui  r18, 0xFFFC
        and  r18, sp, r18       ; sp's 64-page group
        lui  r19, 4
        sub  r18, r18, r19      ; the group below it
        li   r20, 4096
pass:   move r8, r18
        li   r16, 64
sweep:  lw   r9, 0(r8)
        addi r10, r10, 1
        lw   r9, 0(r8)
        addi r10, r10, 1
        add  r8, r8, r20
        addi r16, r16, -1
        bgtz r16, sweep
        addi r17, r17, -1
        bgtz r17, pass
        li   v0, 0
        jr   ra
"#
        )
    };
    let run = |cache: bool, passes: u32| {
        let (code, world) = run_program(
            cache,
            &[("/src/main.o", &sweep(passes), ShareClass::StaticPrivate)],
        );
        assert_eq!(code, Some(0));
        world
    };
    let mut misses = Vec::new();
    for passes in [1, 2] {
        let on = run(true, passes);
        let off = run(false, passes);
        assert_eq!(
            cache_blind_stats(&on),
            cache_blind_stats(&off),
            "{passes} pass(es)"
        );
        assert!(on.kernel.bb_stats().hits > 0, "fast path must run");
        misses.push(on.stats().tlb_misses);
    }
    assert_eq!(
        misses[1] - misses[0],
        4,
        "the second pass misses only on the page sharing the code entry"
    );
}

/// Clock eviction under SMP pressure: the reclaim (running on the boot
/// CPU) evicts text pages whose blocks were built by victims on other
/// CPUs. The blocks drop with the page — visibly, via `BlockInvalidated
/// cause=evict` — and the victims re-fault, re-page, rebuild, and still
/// compute the same answers. Blocks are budget-capped so none is ever
/// mid-flight across a sub-quantum when a remote reclaim runs: the
/// "pinning" discipline is that eviction always lands between blocks.
#[test]
fn eviction_drops_cached_blocks_built_on_other_cpus() {
    let budget = calibrated_half_budget();
    let (on, on_world) = run_cached(true, 300, 4, Some(budget), None);
    assert_eq!(on.obs.settled, Ok(WorldExit::AllExited));
    let stats = on_world.stats();
    assert!(stats.page_evictions > 0, "budget {budget} must bind");
    assert!(stats.shootdowns > 0, "reclaim must cross CPUs");
    assert!(
        trace_cause_count(&on_world, "evict") > 0,
        "evictions must drop cached blocks"
    );
    // And the pressured, evicting, multi-CPU run still matches cache-off.
    let (off, _) = run_cached(false, 300, 4, Some(budget), None);
    assert_eq!(on, off);
}

/// `run_block` pins nothing across a text-epoch movement: the moment
/// the bus reports a moved epoch (here, the block's own store — the
/// same signal a cross-CPU invalidation raises), the partial run stops,
/// retires exactly the instructions that executed, and returns control
/// to the dispatch loop with no outcome pending.
#[test]
fn run_block_aborts_and_partially_retires_on_epoch_movement() {
    use hvm::{Bus, Cpu, Fault, Reg};

    /// 64 KB flat memory whose text epoch moves on every store.
    struct EpochBus {
        mem: Vec<u8>,
        epoch: u64,
    }
    impl Bus for EpochBus {
        fn fetch(&mut self, addr: u32) -> Result<u32, Fault> {
            self.load32(addr)
        }
        fn load8(&mut self, addr: u32) -> Result<u8, Fault> {
            Ok(self.mem[addr as usize])
        }
        fn load16(&mut self, addr: u32) -> Result<u16, Fault> {
            let a = addr as usize;
            Ok(u16::from_le_bytes(self.mem[a..a + 2].try_into().unwrap()))
        }
        fn load32(&mut self, addr: u32) -> Result<u32, Fault> {
            let a = addr as usize;
            Ok(u32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()))
        }
        fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
            self.mem[addr as usize] = val;
            self.epoch += 1;
            Ok(())
        }
        fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
            self.mem[addr as usize..addr as usize + 2].copy_from_slice(&val.to_le_bytes());
            self.epoch += 1;
            Ok(())
        }
        fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
            self.mem[addr as usize..addr as usize + 4].copy_from_slice(&val.to_le_bytes());
            self.epoch += 1;
            Ok(())
        }
        fn text_epoch(&mut self) -> u64 {
            self.epoch
        }
    }

    // addi r8,r8,1 ×3; sw r8,0x100(r0); addi r8,r8,1 ×2; jr ra — the
    // store moves the epoch, so the block must stop after 4 retired.
    let asm = "\
.module t\n.text\n.globl main\n\
main: addi r8, r8, 1\naddi r8, r8, 1\naddi r8, r8, 1\n\
sw r8, 256(r0)\naddi r8, r8, 1\naddi r8, r8, 1\njr ra\n";
    let obj = hobj::hasm::assemble("t", asm).unwrap();
    let code = hvm::bbcache::decode_run(&obj.text);
    assert_eq!(code.len(), 7, "whole run decodes up to the terminator");

    let mut bus = EpochBus {
        mem: vec![0u8; 1 << 16],
        epoch: 0,
    };
    bus.mem[..obj.text.len()].copy_from_slice(&obj.text);
    let mut cpu = Cpu::new();
    cpu.pc = 0;
    let (ran, outcome) = cpu.run_block(&mut bus, &code, 1_000);
    assert_eq!(ran, 4, "3 addis + the store retire, then the abort");
    assert_eq!(outcome, None, "abort is not an outcome — redispatch");
    assert_eq!(cpu.reg(Reg(8)), 3, "post-store addis did not run");
    assert_eq!(cpu.pc, 16, "pc parked on the first unexecuted instruction");

    // The dispatch loop re-enters from the parked pc and finishes.
    let tail = hvm::bbcache::decode_run(&obj.text[16..]);
    let (ran2, outcome2) = cpu.run_block(&mut bus, &tail, 1_000);
    assert_eq!((ran2, outcome2), (3, None), "2 addis + the retiring jr");
}

/// `run_block` translates once per block: one full `fetch_check` for
/// the first instruction and a `fetch_recheck` for each later one. A
/// fault raised by a re-check is precise: `pc` stays on the faulting
/// instruction and exactly the instructions before it retire.
#[test]
fn run_block_fetch_checks_once_and_rechecks_the_rest() {
    use hvm::{Access, Bus, Cpu, Fault, Reg, StepOutcome};

    /// 64 KB flat memory that logs each fetch hook's addresses and
    /// fails the re-check at `fault_at`.
    struct CheckBus {
        mem: Vec<u8>,
        checks: Vec<u32>,
        rechecks: Vec<u32>,
        fault_at: Option<u32>,
    }
    impl Bus for CheckBus {
        fn fetch(&mut self, addr: u32) -> Result<u32, Fault> {
            self.load32(addr)
        }
        fn load8(&mut self, addr: u32) -> Result<u8, Fault> {
            Ok(self.mem[addr as usize])
        }
        fn load16(&mut self, addr: u32) -> Result<u16, Fault> {
            let a = addr as usize;
            Ok(u16::from_le_bytes(self.mem[a..a + 2].try_into().unwrap()))
        }
        fn load32(&mut self, addr: u32) -> Result<u32, Fault> {
            let a = addr as usize;
            Ok(u32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()))
        }
        fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
            self.mem[addr as usize] = val;
            Ok(())
        }
        fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
            self.mem[addr as usize..addr as usize + 2].copy_from_slice(&val.to_le_bytes());
            Ok(())
        }
        fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
            self.mem[addr as usize..addr as usize + 4].copy_from_slice(&val.to_le_bytes());
            Ok(())
        }
        fn fetch_check(&mut self, addr: u32) -> Result<(), Fault> {
            self.checks.push(addr);
            Ok(())
        }
        fn fetch_recheck(&mut self, addr: u32) -> Result<(), Fault> {
            self.rechecks.push(addr);
            match self.fault_at {
                Some(at) if at == addr => Err(Fault::Protection {
                    addr,
                    access: Access::Exec,
                }),
                _ => Ok(()),
            }
        }
    }

    let asm = "\
.module t\n.text\n.globl main\n\
main: addi r8, r8, 1\naddi r8, r8, 1\naddi r8, r8, 1\naddi r8, r8, 1\njr ra\n";
    let obj = hobj::hasm::assemble("t", asm).unwrap();
    let code = hvm::bbcache::decode_run(&obj.text);
    assert_eq!(code.len(), 5);
    let run = |fault_at: Option<u32>| {
        let mut bus = CheckBus {
            mem: vec![0u8; 1 << 16],
            checks: Vec::new(),
            rechecks: Vec::new(),
            fault_at,
        };
        bus.mem[..obj.text.len()].copy_from_slice(&obj.text);
        let mut cpu = Cpu::new();
        let result = cpu.run_block(&mut bus, &code, 1_000);
        (result, cpu, bus)
    };

    let ((ran, outcome), _, bus) = run(None);
    assert_eq!((ran, outcome), (5, None), "the whole block retires");
    assert_eq!(bus.checks, [0], "one full fetch check, at block entry");
    assert_eq!(
        bus.rechecks,
        [4, 8, 12, 16],
        "a re-check per later instruction"
    );

    let ((ran, outcome), cpu, bus) = run(Some(8));
    let fault = Fault::Protection {
        addr: 8,
        access: Access::Exec,
    };
    assert_eq!(outcome, Some(StepOutcome::Fault(fault)));
    assert_eq!(
        ran, 2,
        "exactly the two instructions before the fault retire"
    );
    assert_eq!(cpu.pc, 8, "pc stays on the faulting instruction");
    assert_eq!(cpu.reg(Reg(8)), 2);
    assert_eq!((bus.checks, bus.rechecks), (vec![0], vec![4, 8]));
}

/// Fork COW un-sharing: the parent's cache is flushed at the fork (its
/// pages un-share underneath it) and the child starts cold — and the
/// forked world still computes exactly what the cache-off twin does.
#[test]
fn fork_flushes_parent_blocks_and_matches_cache_off() {
    const SHARED_CELL: &str = r#"
.module cell
.data
.globl cell
cell:   .word 0
"#;
    // Parent spins enough to cache its loop, forks; child bumps the
    // shared cell and exits 7; parent waits and exits with cell+10.
    const FORKER: &str = r#"
.module main
.text
.globl main
main:   li   r16, 6
warm:   addi r16, r16, -1
        bgtz r16, warm
        li   v0, 6          ; fork
        syscall
        bne  v0, r0, parent
        la   r8, cell
        li   r9, 7
        sw   r9, 0(r8)
        li   v0, 1          ; exit(7)
        li   a0, 7
        syscall
parent: li   v0, 16         ; waitpid(any)
        li   a0, 0
        syscall
        la   r8, cell
        lw   r9, 0(r8)
        addi a0, r9, 10
        li   v0, 1          ; exit(cell + 10)
        syscall
"#;
    let run = |cache: bool| {
        run_program(
            cache,
            &[
                ("/src/main.o", FORKER, ShareClass::StaticPrivate),
                ("/shared/lib/cell.o", SHARED_CELL, ShareClass::DynamicPublic),
            ],
        )
    };
    let (on_code, on_world) = run(true);
    let (off_code, _) = run(false);
    assert_eq!(off_code, Some(17), "child's 7 + 10");
    assert_eq!(on_code, off_code);
    assert!(
        trace_cause_count(&on_world, "fork") > 0,
        "fork must flush the parent's warmed cache:\n{}",
        on_world.trace_dump()
    );
}

/// Generation-counter wraparound: when a page's generation stamp wraps,
/// the cache must flush (epoch bump) rather than let a stale block
/// ABA-match the reset stamp. We warm the cache, pin the hot page's
/// generation to `u32::MAX` (restamping its live blocks), force one
/// more invalidation to wrap it, and the world still finishes correctly
/// with the whole cache demonstrably rebuilt.
#[test]
fn generation_wraparound_flushes_instead_of_aba_matching() {
    const SPINNER: &str = r#"
.module spin
.text
.globl main
main:   li   r16, 50000
loop:   addi r16, r16, -1
        bgtz r16, loop
        li   v0, 0
        jr   ra
"#;
    let mut world = World::new();
    // Explicitly on: the nightly lane runs this suite with
    // `HVM_BBCACHE=off`.
    world.set_bbcache(true);
    world.install_template("/src/spin.o", SPINNER).unwrap();
    let exe = world
        .link("/bin/spin", &[("/src/spin.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    world.quantum = 50;
    assert_eq!(world.run(40), WorldExit::StepLimit, "still mid-loop");

    let proc = world.kernel.procs.get_mut(&pid).unwrap();
    let vp = proc.cpu.pc / hsfs::PAGE_SIZE;
    let bb = proc.aspace.bbcache_mut();
    assert!(!bb.is_empty(), "the loop must be cached by now");
    let epoch_before = bb.flush_epoch();
    let built_before = bb.stats().built;
    bb.force_gen(vp, u32::MAX);
    bb.invalidate_page(vp, "wrap-test"); // MAX + 1 wraps ⇒ full flush
    assert!(
        bb.flush_epoch() > epoch_before,
        "wraparound must bump the flush epoch"
    );
    assert!(bb.is_empty(), "nothing may survive the wrap");

    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(0));
    let bb = world.kernel.bb_stats();
    assert!(
        bb.built > built_before,
        "the loop must have been rebuilt after the wrap: {bb:?}"
    );
    assert_eq!(bb.hits + bb.built, bb.entries);
}

// --- 4. the switches --------------------------------------------------

/// `World::set_bbcache(false)` reconfigures *live* processes too: a
/// world switched off mid-run stops building and still finishes with
/// the same answers.
#[test]
fn cache_can_be_disabled_mid_run() {
    let (mut world, exe) = build_pressure_world();
    world.set_bbcache(true); // on even in the `HVM_BBCACHE=off` lane
    let pid = world.spawn(&exe).unwrap();
    world.quantum = 50;
    assert_eq!(world.run(20), WorldExit::StepLimit);
    let warm = world.kernel.bb_stats();
    assert!(warm.entries > 0, "cache must be warm before the switch");
    world.set_bbcache(false);
    assert_eq!(world.run_to_completion(), WorldExit::AllExited);
    assert_eq!(world.exit_code(pid), Some(0), "log: {:?}", world.log);
    let cold = world.kernel.bb_stats();
    assert_eq!(cold.entries, warm.entries, "no entries after the switch");
}

/// The `HVM_BBCACHE` env hook decides the cache at `World::new` (the
/// CI nightly lane runs the whole suite with `HVM_BBCACHE=off`): a fresh
/// world agrees with the ambient environment.
#[test]
fn env_hook_disables_the_cache() {
    assert_eq!(
        World::new().kernel.bbcache_enabled(),
        env_switch_on("HVM_BBCACHE")
    );
}
