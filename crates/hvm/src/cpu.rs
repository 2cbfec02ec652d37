//! The H32 interpreter core.
//!
//! The CPU is deliberately decoupled from memory: every access goes through
//! the [`Bus`] trait, which the kernel crate implements with per-process
//! address spaces, page protections and copy-on-write. A memory access that
//! the bus rejects surfaces as [`StepOutcome::Fault`] *before* any
//! architectural state changes, so the kernel can run Hemlock's fault
//! handler (map the segment, run the lazy linker) and re-execute the same
//! instruction — the paper's "restarts the faulting instruction" protocol.

use crate::isa::{branch_target, jump_target, sext16, Access, Fault, Instr};
use crate::regs::Reg;

/// Memory interface the CPU executes against.
///
/// Implementations perform translation and protection checks. A `Fault`
/// return must leave memory unchanged.
pub trait Bus {
    /// Fetches the instruction word at `addr` (checked for execute access).
    fn fetch(&mut self, addr: u32) -> Result<u32, Fault>;
    /// Loads one byte.
    fn load8(&mut self, addr: u32) -> Result<u8, Fault>;
    /// Loads a halfword (alignment already verified by the CPU).
    fn load16(&mut self, addr: u32) -> Result<u16, Fault>;
    /// Loads a word (alignment already verified by the CPU).
    fn load32(&mut self, addr: u32) -> Result<u32, Fault>;
    /// Stores one byte.
    fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault>;
    /// Stores a halfword.
    fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault>;
    /// Stores a word.
    fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault>;

    /// Performs the side effects of an instruction fetch at `addr`
    /// (translation, protection, residency, reference bits) *without*
    /// returning the bytes — the block-cache fast path, where the word
    /// was already decoded. Must be observably identical to
    /// [`Bus::fetch`] minus the data. The default is exactly that.
    /// [`Cpu::run_block`] calls it once, for a block's first
    /// instruction; the rest of the block goes through
    /// [`Bus::fetch_recheck`].
    fn fetch_check(&mut self, addr: u32) -> Result<(), Fault> {
        self.fetch(addr).map(|_| ())
    }

    /// [`Bus::fetch_check`] for an instruction after the first of a
    /// cached block, whose entry fetch at `addr`'s page already
    /// succeeded. A bus may skip whatever that fetch proved and nothing
    /// since can have undone — a block never crosses a page, and
    /// protection changes only in syscalls, which end blocks — but must
    /// stay observably identical to `fetch_check`. The default is
    /// exactly that.
    fn fetch_recheck(&mut self, addr: u32) -> Result<(), Fault> {
        self.fetch_check(addr)
    }

    /// A stamp that moves whenever a store through this bus could have
    /// altered executable bytes. [`Cpu::run_block`] re-checks it before
    /// each cached instruction and aborts the block on movement
    /// (self-modifying code falls back to the fetch+decode path).
    /// Buses without a block cache never move it.
    fn text_epoch(&mut self) -> u64 {
        0
    }
}

/// What happened when the CPU attempted one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired normally.
    Retired,
    /// The instruction trapped to the kernel via `syscall`. The PC has
    /// already advanced past the instruction; the kernel reads arguments
    /// from the register file and writes results back.
    Syscall,
    /// A `break` trap with its code. The PC has advanced.
    Break(u32),
    /// The instruction faulted; no architectural state changed and the PC
    /// still addresses the faulting instruction.
    Fault(Fault),
}

/// Architectural state of one H32 hardware context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cpu {
    regs: [u32; 32],
    /// HI register (multiply/divide).
    pub hi: u32,
    /// LO register (multiply/divide).
    pub lo: u32,
    /// Program counter of the next instruction to execute.
    pub pc: u32,
    /// Count of retired instructions (the simulation's cycle clock).
    pub retired: u64,
    /// The simulated CPU this context last executed on (`None` until the
    /// first dispatch). The scheduler uses it for affinity; running the
    /// context on a different CPU costs a cold translation cache.
    pub last_cpu: Option<u32>,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates a CPU with all registers zero and PC at zero.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; 32],
            hi: 0,
            lo: 0,
            pc: 0,
            retired: 0,
            last_cpu: None,
        }
    }

    /// Reads a register; `$zero` always reads 0.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register; writes to `$zero` are discarded.
    pub fn set_reg(&mut self, r: Reg, val: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = val;
        }
    }

    /// Executes one instruction against `bus`.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> StepOutcome {
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return StepOutcome::Fault(Fault::Unaligned {
                addr: pc,
                access: Access::Exec,
            });
        }
        let word = match bus.fetch(pc) {
            Ok(w) => w,
            Err(f) => return StepOutcome::Fault(f),
        };
        let instr = match crate::decode::decode(word) {
            Ok(i) => i,
            Err(_) => {
                return StepOutcome::Fault(Fault::IllegalInstruction { addr: pc, word });
            }
        };
        self.execute(instr, bus)
    }

    /// Executes a decoded basic block (see [`crate::bbcache`]) of at most
    /// `max` *retiring* instructions, returning `(retired_in_block,
    /// outcome)`. The caller accounts the returned count exactly as it
    /// would `max` individual [`Cpu::step`] calls that returned
    /// [`StepOutcome::Retired`], and handles the final outcome (if any)
    /// as one more `step` — so `None` means "budget exhausted or block
    /// aborted mid-run; re-enter at `self.pc`".
    ///
    /// Per instruction this replays the slow path in order: budget
    /// check, [`Bus::text_epoch`] check (abort if a store invalidated
    /// the text under us — PC is correct, nothing is lost), the fetch's
    /// side effects without the bytes ([`Bus::fetch_check`] for the
    /// first instruction, [`Bus::fetch_recheck`] for the rest), then
    /// [`Cpu::execute`]. A fault leaves PC at the faulting instruction;
    /// `Syscall`/`Break` have already advanced it — identical to `step`.
    pub fn run_block<B: Bus>(
        &mut self,
        bus: &mut B,
        code: &[Instr],
        max: u64,
    ) -> (u64, Option<StepOutcome>) {
        let mut ran = 0u64;
        let epoch = bus.text_epoch();
        for instr in code {
            if ran >= max {
                return (ran, None);
            }
            if bus.text_epoch() != epoch {
                return (ran, None);
            }
            let fetched = if ran == 0 {
                bus.fetch_check(self.pc)
            } else {
                bus.fetch_recheck(self.pc)
            };
            if let Err(fault) = fetched {
                return (ran, Some(StepOutcome::Fault(fault)));
            }
            match self.execute(*instr, bus) {
                StepOutcome::Retired => ran += 1,
                outcome => return (ran, Some(outcome)),
            }
        }
        (ran, None)
    }

    /// Executes an already-decoded instruction.
    ///
    /// Exposed separately so tests and the linker's trampoline verifier can
    /// drive the CPU without a fetch path.
    pub fn execute<B: Bus>(&mut self, instr: Instr, bus: &mut B) -> StepOutcome {
        use Instr::*;
        let pc = self.pc;
        let mut next = pc.wrapping_add(4);
        match instr {
            Add { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_add(self.reg(rt));
                self.set_reg(rd, v);
            }
            Sub { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_sub(self.reg(rt));
                self.set_reg(rd, v);
            }
            And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Nor { rd, rs, rt } => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))),
            Slt { rd, rs, rt } => {
                let v = ((self.reg(rs) as i32) < (self.reg(rt) as i32)) as u32;
                self.set_reg(rd, v);
            }
            Sltu { rd, rs, rt } => self.set_reg(rd, (self.reg(rs) < self.reg(rt)) as u32),
            Sll { rd, rt, shamt } => self.set_reg(rd, self.reg(rt) << shamt),
            Srl { rd, rt, shamt } => self.set_reg(rd, self.reg(rt) >> shamt),
            Sra { rd, rt, shamt } => self.set_reg(rd, ((self.reg(rt) as i32) >> shamt) as u32),
            Sllv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) << (self.reg(rs) & 31)),
            Srlv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) >> (self.reg(rs) & 31)),
            Srav { rd, rt, rs } => {
                let v = ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32;
                self.set_reg(rd, v);
            }
            Mult { rs, rt } => {
                let p = (self.reg(rs) as i32 as i64) * (self.reg(rt) as i32 as i64);
                self.hi = (p >> 32) as u32;
                self.lo = p as u32;
            }
            Multu { rs, rt } => {
                let p = (self.reg(rs) as u64) * (self.reg(rt) as u64);
                self.hi = (p >> 32) as u32;
                self.lo = p as u32;
            }
            Div { rs, rt } => {
                let (n, d) = (self.reg(rs) as i32, self.reg(rt) as i32);
                if d == 0 {
                    return StepOutcome::Fault(Fault::DivideByZero { addr: pc });
                }
                self.lo = n.wrapping_div(d) as u32;
                self.hi = n.wrapping_rem(d) as u32;
            }
            Divu { rs, rt } => {
                let (n, d) = (self.reg(rs), self.reg(rt));
                if d == 0 {
                    return StepOutcome::Fault(Fault::DivideByZero { addr: pc });
                }
                self.lo = n / d;
                self.hi = n % d;
            }
            Mfhi { rd } => self.set_reg(rd, self.hi),
            Mflo { rd } => self.set_reg(rd, self.lo),
            Addi { rt, rs, imm } => self.set_reg(rt, self.reg(rs).wrapping_add(sext16(imm))),
            Slti { rt, rs, imm } => {
                let v = ((self.reg(rs) as i32) < (sext16(imm) as i32)) as u32;
                self.set_reg(rt, v);
            }
            Sltiu { rt, rs, imm } => self.set_reg(rt, (self.reg(rs) < sext16(imm)) as u32),
            Andi { rt, rs, imm } => self.set_reg(rt, self.reg(rs) & imm as u32),
            Ori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) | imm as u32),
            Xori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) ^ imm as u32),
            Lui { rt, imm } => self.set_reg(rt, (imm as u32) << 16),
            Lb { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                match bus.load8(addr) {
                    Ok(v) => self.set_reg(rt, v as i8 as i32 as u32),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Lbu { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                match bus.load8(addr) {
                    Ok(v) => self.set_reg(rt, v as u32),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Lh { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(2) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Read,
                    });
                }
                match bus.load16(addr) {
                    Ok(v) => self.set_reg(rt, v as i16 as i32 as u32),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Lhu { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(2) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Read,
                    });
                }
                match bus.load16(addr) {
                    Ok(v) => self.set_reg(rt, v as u32),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Lw { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(4) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Read,
                    });
                }
                match bus.load32(addr) {
                    Ok(v) => self.set_reg(rt, v),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Sb { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if let Err(f) = bus.store8(addr, self.reg(rt) as u8) {
                    return StepOutcome::Fault(f);
                }
            }
            Sh { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(2) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Write,
                    });
                }
                if let Err(f) = bus.store16(addr, self.reg(rt) as u16) {
                    return StepOutcome::Fault(f);
                }
            }
            Sw { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(4) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Write,
                    });
                }
                if let Err(f) = bus.store32(addr, self.reg(rt)) {
                    return StepOutcome::Fault(f);
                }
            }
            Beq { rs, rt, imm } => {
                if self.reg(rs) == self.reg(rt) {
                    next = branch_target(pc, imm);
                }
            }
            Bne { rs, rt, imm } => {
                if self.reg(rs) != self.reg(rt) {
                    next = branch_target(pc, imm);
                }
            }
            Blez { rs, imm } => {
                if (self.reg(rs) as i32) <= 0 {
                    next = branch_target(pc, imm);
                }
            }
            Bgtz { rs, imm } => {
                if (self.reg(rs) as i32) > 0 {
                    next = branch_target(pc, imm);
                }
            }
            Bltz { rs, imm } => {
                if (self.reg(rs) as i32) < 0 {
                    next = branch_target(pc, imm);
                }
            }
            Bgez { rs, imm } => {
                if (self.reg(rs) as i32) >= 0 {
                    next = branch_target(pc, imm);
                }
            }
            J { target } => next = jump_target(pc, target),
            Jal { target } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next = jump_target(pc, target);
            }
            Jr { rs } => next = self.reg(rs),
            Jalr { rd, rs } => {
                // Read rs before the link write so `jalr $ra, $ra` works.
                let dest = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                next = dest;
            }
            Syscall => {
                self.pc = next;
                self.retired += 1;
                return StepOutcome::Syscall;
            }
            Break { code } => {
                self.pc = next;
                self.retired += 1;
                return StepOutcome::Break(code);
            }
        }
        self.pc = next;
        self.retired += 1;
        StepOutcome::Retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use std::collections::HashMap;

    /// A flat test bus: sparse byte map, everything readable/writable,
    /// with an optional set of pages that fault until "mapped".
    #[derive(Default)]
    struct TestBus {
        mem: HashMap<u32, u8>,
        hole: Option<(u32, u32)>,
    }

    impl TestBus {
        fn write_word(&mut self, addr: u32, word: u32) {
            for (i, b) in word.to_le_bytes().iter().enumerate() {
                self.mem.insert(addr + i as u32, *b);
            }
        }
        fn load_program(&mut self, base: u32, prog: &[Instr]) {
            for (i, instr) in prog.iter().enumerate() {
                self.write_word(base + 4 * i as u32, encode(*instr));
            }
        }
        fn in_hole(&self, addr: u32) -> bool {
            self.hole
                .map(|(lo, hi)| addr >= lo && addr < hi)
                .unwrap_or(false)
        }
    }

    impl Bus for TestBus {
        fn fetch(&mut self, addr: u32) -> Result<u32, Fault> {
            self.load32(addr)
        }
        fn load8(&mut self, addr: u32) -> Result<u8, Fault> {
            if self.in_hole(addr) {
                return Err(Fault::Unmapped {
                    addr,
                    access: Access::Read,
                });
            }
            Ok(*self.mem.get(&addr).unwrap_or(&0))
        }
        fn load16(&mut self, addr: u32) -> Result<u16, Fault> {
            Ok(u16::from_le_bytes([
                self.load8(addr)?,
                self.load8(addr + 1)?,
            ]))
        }
        fn load32(&mut self, addr: u32) -> Result<u32, Fault> {
            Ok(u32::from_le_bytes([
                self.load8(addr)?,
                self.load8(addr + 1)?,
                self.load8(addr + 2)?,
                self.load8(addr + 3)?,
            ]))
        }
        fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
            if self.in_hole(addr) {
                return Err(Fault::Unmapped {
                    addr,
                    access: Access::Write,
                });
            }
            self.mem.insert(addr, val);
            Ok(())
        }
        fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
            let b = val.to_le_bytes();
            self.store8(addr, b[0])?;
            self.store8(addr + 1, b[1])
        }
        fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
            let b = val.to_le_bytes();
            for (i, byte) in b.iter().enumerate() {
                self.store8(addr + i as u32, *byte)?;
            }
            Ok(())
        }
    }

    fn run(prog: &[Instr]) -> (Cpu, TestBus) {
        let mut bus = TestBus::default();
        bus.load_program(0x1000, prog);
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        for _ in 0..prog.len() * 4 {
            match cpu.step(&mut bus) {
                StepOutcome::Retired => {}
                StepOutcome::Break(_) => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        (cpu, bus)
    }

    use Instr::*;

    #[test]
    fn arithmetic_and_immediates() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg(8),
                rs: Reg::ZERO,
                imm: 100,
            },
            Addi {
                rt: Reg(9),
                rs: Reg::ZERO,
                imm: 0xFFF6,
            }, // -10
            Add {
                rd: Reg(10),
                rs: Reg(8),
                rt: Reg(9),
            },
            Sub {
                rd: Reg(11),
                rs: Reg(8),
                rt: Reg(9),
            },
            Slt {
                rd: Reg(12),
                rs: Reg(9),
                rt: Reg(8),
            },
            Sltu {
                rd: Reg(13),
                rs: Reg(9),
                rt: Reg(8),
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(10)), 90);
        assert_eq!(cpu.reg(Reg(11)), 110);
        assert_eq!(cpu.reg(Reg(12)), 1); // -10 < 100 signed
        assert_eq!(cpu.reg(Reg(13)), 0); // 0xFFFFFFF6 > 100 unsigned
    }

    #[test]
    fn lui_ori_materializes_address() {
        let (cpu, _) = run(&[
            Lui {
                rt: Reg(8),
                imm: 0x3000,
            },
            Ori {
                rt: Reg(8),
                rs: Reg(8),
                imm: 0x0042,
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(8)), 0x3000_0042);
    }

    #[test]
    fn loads_and_stores_all_widths() {
        let (cpu, bus) = run(&[
            Lui {
                rt: Reg(8),
                imm: 0x0002,
            }, // base 0x20000
            Addi {
                rt: Reg(9),
                rs: Reg::ZERO,
                imm: 0xFFFF,
            }, // -1 = 0xFFFFFFFF
            Sw {
                rt: Reg(9),
                rs: Reg(8),
                imm: 0,
            },
            Lb {
                rt: Reg(10),
                rs: Reg(8),
                imm: 0,
            },
            Lbu {
                rt: Reg(11),
                rs: Reg(8),
                imm: 0,
            },
            Lh {
                rt: Reg(12),
                rs: Reg(8),
                imm: 0,
            },
            Lhu {
                rt: Reg(13),
                rs: Reg(8),
                imm: 0,
            },
            Sb {
                rt: Reg::ZERO,
                rs: Reg(8),
                imm: 1,
            },
            Lw {
                rt: Reg(14),
                rs: Reg(8),
                imm: 0,
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(10)), 0xFFFF_FFFF);
        assert_eq!(cpu.reg(Reg(11)), 0xFF);
        assert_eq!(cpu.reg(Reg(12)), 0xFFFF_FFFF);
        assert_eq!(cpu.reg(Reg(13)), 0xFFFF);
        assert_eq!(cpu.reg(Reg(14)), 0xFFFF_00FF);
        assert_eq!(bus.mem[&0x20001], 0);
    }

    #[test]
    fn branches_taken_and_not() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg(8),
                rs: Reg::ZERO,
                imm: 3,
            },
            // Loop: decrement until zero.
            Addi {
                rt: Reg(8),
                rs: Reg(8),
                imm: 0xFFFF,
            },
            Addi {
                rt: Reg(9),
                rs: Reg(9),
                imm: 1,
            },
            Bne {
                rs: Reg(8),
                rt: Reg::ZERO,
                imm: 0xFFFD,
            }, // back 3
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(9)), 3);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        // 0x1000: jal 0x1010; 0x1004: break; pad; 0x1010: jr ra.
        let mut bus = TestBus::default();
        bus.load_program(
            0x1000,
            &[
                Jal {
                    target: 0x1010 >> 2,
                },
                Break { code: 7 },
                Break { code: 99 },
                Break { code: 99 },
                Jr { rs: Reg::RA },
            ],
        );
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        assert_eq!(cpu.step(&mut bus), StepOutcome::Retired);
        assert_eq!(cpu.pc, 0x1010);
        assert_eq!(cpu.reg(Reg::RA), 0x1004);
        assert_eq!(cpu.step(&mut bus), StepOutcome::Retired);
        assert_eq!(cpu.pc, 0x1004);
        assert_eq!(cpu.step(&mut bus), StepOutcome::Break(7));
    }

    #[test]
    fn fault_is_precise_and_restartable() {
        let mut bus = TestBus {
            hole: Some((0x3000_0000, 0x3000_1000)),
            ..Default::default()
        };
        bus.load_program(
            0x1000,
            &[
                Lui {
                    rt: Reg(8),
                    imm: 0x3000,
                },
                Lw {
                    rt: Reg(9),
                    rs: Reg(8),
                    imm: 0,
                },
                Break { code: 0 },
            ],
        );
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        assert_eq!(cpu.step(&mut bus), StepOutcome::Retired);
        let before = cpu.clone();
        // The load faults: PC unchanged, registers unchanged, not retired.
        let outcome = cpu.step(&mut bus);
        assert_eq!(
            outcome,
            StepOutcome::Fault(Fault::Unmapped {
                addr: 0x3000_0000,
                access: Access::Read
            })
        );
        assert_eq!(cpu, before);
        // "Map" the segment (fill the hole) and restart: now it retires.
        bus.hole = None;
        bus.write_word(0x3000_0000, 0xDEAD_BEEF);
        assert_eq!(cpu.step(&mut bus), StepOutcome::Retired);
        assert_eq!(cpu.reg(Reg(9)), 0xDEAD_BEEF);
    }

    #[test]
    fn divide_by_zero_faults_precisely() {
        let mut bus = TestBus::default();
        bus.load_program(
            0x1000,
            &[Div {
                rs: Reg(8),
                rt: Reg::ZERO,
            }],
        );
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        assert_eq!(
            cpu.step(&mut bus),
            StepOutcome::Fault(Fault::DivideByZero { addr: 0x1000 })
        );
        assert_eq!(cpu.pc, 0x1000);
    }

    #[test]
    fn unaligned_word_access_faults() {
        let mut bus = TestBus::default();
        bus.load_program(
            0x1000,
            &[
                Addi {
                    rt: Reg(8),
                    rs: Reg::ZERO,
                    imm: 0x2001,
                },
                Lw {
                    rt: Reg(9),
                    rs: Reg(8),
                    imm: 0,
                },
            ],
        );
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        cpu.step(&mut bus);
        assert_eq!(
            cpu.step(&mut bus),
            StepOutcome::Fault(Fault::Unaligned {
                addr: 0x2001,
                access: Access::Read
            })
        );
    }

    #[test]
    fn syscall_advances_pc() {
        let mut bus = TestBus::default();
        bus.load_program(0x1000, &[Syscall]);
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        assert_eq!(cpu.step(&mut bus), StepOutcome::Syscall);
        assert_eq!(cpu.pc, 0x1004);
    }

    #[test]
    fn mult_div_results() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg(8),
                rs: Reg::ZERO,
                imm: 0xFFFA,
            }, // -6
            Addi {
                rt: Reg(9),
                rs: Reg::ZERO,
                imm: 7,
            },
            Mult {
                rs: Reg(8),
                rt: Reg(9),
            },
            Mflo { rd: Reg(10) },
            Mfhi { rd: Reg(11) },
            Div {
                rs: Reg(8),
                rt: Reg(9),
            },
            Mflo { rd: Reg(12) },
            Mfhi { rd: Reg(13) },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(10)) as i32, -42);
        assert_eq!(cpu.reg(Reg(11)) as i32, -1); // sign extension of the product
        assert_eq!(cpu.reg(Reg(12)) as i32, 0);
        assert_eq!(cpu.reg(Reg(13)) as i32, -6);
    }

    #[test]
    fn zero_register_is_immutable() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg::ZERO,
                rs: Reg::ZERO,
                imm: 5,
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn shifts() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg(8),
                rs: Reg::ZERO,
                imm: 0xFFF0,
            }, // 0xFFFFFFF0
            Sll {
                rd: Reg(9),
                rt: Reg(8),
                shamt: 4,
            },
            Srl {
                rd: Reg(10),
                rt: Reg(8),
                shamt: 4,
            },
            Sra {
                rd: Reg(11),
                rt: Reg(8),
                shamt: 4,
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(9)), 0xFFFF_FF00);
        assert_eq!(cpu.reg(Reg(10)), 0x0FFF_FFFF);
        assert_eq!(cpu.reg(Reg(11)), 0xFFFF_FFFF);
    }
}
