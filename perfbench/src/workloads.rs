//! The three workloads: their seeded inputs, the guest programs they
//! build, and the reference each op's output is checked against.
//!
//! A seed expands into one *round* of `ROUND` op specs; a run replays
//! the round in a closed loop (one client, each op waits for the last)
//! and stops only on a round boundary, so every run of a seed does the
//! same work per op and its simulated figures repeat bit-exactly.

use crate::layers::Layers;
use hemlock::{ShareClass, World};

/// Ops per round: enough that p90 has at least ten samples beyond it.
pub const ROUND: usize = 100;

/// Hosts in the rwho database (the paper's §4 fleet, scaled up).
const HOSTS: u32 = 200;

/// Modules in `reboot_cycle`'s warm chain.
const WARM_CHAIN: usize = 40;

/// Reader lifetimes per `rwho_scan` boot. Lifetimes pile up within a
/// boot; a fixed count makes every boot, and so every run, climb the
/// same pile-up curve whatever the host speed. At 1500 the pile-up
/// outgrew the host caches and a run's speed swung by a quarter from
/// run to run; at 500 it repeats within about 1%.
const LIFETIMES_PER_BOOT: usize = 5 * ROUND;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ColdLink,
    RwhoScan,
    RebootCycle,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cold_link" => Some(Kind::ColdLink),
            "rwho_scan" => Some(Kind::RwhoScan),
            "reboot_cycle" => Some(Kind::RebootCycle),
            _ => None,
        }
    }
}

/// A workload: a current world plus the seeded op specs run on it.
pub trait Workload {
    /// How many ops run on one world before the next is built: 1, a
    /// multiple of `ROUND`, or `None` for one world per run.
    fn ops_per_world(&self) -> Option<usize>;
    /// Builds a fresh world (assemble, `lds`, populate) for op `i` and
    /// every later op until the next build.
    fn build(&mut self, i: usize, l: &mut Layers) -> Result<(), String>;
    /// Runs op `i` and checks its output against the reference.
    fn op(&mut self, i: usize, l: &mut Layers) -> Result<(), String>;
    fn world(&self) -> &World;
}

pub fn new(kind: Kind, seed: u64) -> Box<dyn Workload> {
    let mut rng = Rng(seed);
    match kind {
        Kind::ColdLink => Box::new(ColdLink::new(&mut rng)),
        Kind::RwhoScan => Box::new(RwhoScan::new(&mut rng)),
        Kind::RebootCycle => Box::new(RebootCycle::new(&mut rng)),
    }
}

// --- seeded inputs ---

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }

    /// `ROUND` points in `[0, 1)`, one in each of `ROUND` equal strata,
    /// in seeded order. Stratifying keeps a round's size mix the same
    /// from seed to seed, so seeds differ in detail, not in load.
    fn strata(&mut self) -> Vec<f64> {
        let mut v: Vec<f64> = (0..ROUND)
            .map(|k| (k as f64 + self.unit()) / ROUND as f64)
            .collect();
        self.shuffle(&mut v);
        v
    }

    /// `ROUND` picks among `n` choices, each equally often, in seeded order.
    fn balanced(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..ROUND).map(|k| k % n).collect();
        self.shuffle(&mut v);
        v
    }
}

/// The daemon's rule for host `i`'s logged-in users:
/// `(i * mul + add) % modulus + 1`.
#[derive(Clone, Copy, Debug)]
struct Rule {
    mul: u32,
    add: u32,
    modulus: u32,
}

impl Rule {
    fn seeded(rng: &mut Rng) -> Rule {
        Rule {
            mul: rng.range(1, 97),
            add: rng.range(0, 50),
            modulus: rng.range(3, 16),
        }
    }

    /// The reference: what every reader must sum to.
    fn host_sum(&self) -> u32 {
        (0..HOSTS)
            .map(|i| (i * self.mul + self.add) % self.modulus + 1)
            .sum()
    }
}

// --- guest programs ---

/// The shared database: a generation count bumped by every daemon run,
/// a host count, and 32-byte host records (users at offset 16).
fn db_module() -> String {
    format!(
        ".module rwho_db\n.data\n.globl gen\ngen: .word 0\n.globl nhosts\nnhosts: .word 0\n\
         .globl hosts\nhosts: .space {}\n",
        HOSTS * 32
    )
}

/// The rwho daemon: bumps `gen`, then stores every host record by `rule`.
fn daemon(rule: Rule) -> String {
    format!(
        r#"
.module rwhod
.text
.globl main
main:   la   r8, hosts
        la   r10, nhosts
        la   r18, gen
        lw   r9, 0(r18)
        addi r9, r9, 1
        sw   r9, 0(r18)
        li   r16, 0
loop:   li   r9, {HOSTS}
        slt  r9, r16, r9
        beq  r9, r0, done
        sll  r11, r16, 5
        add  r11, r8, r11
        sw   r16, 0(r11)
        li   r12, {mul}
        mult r16, r12
        mflo r12
        addi r12, r12, {add}
        li   r13, {modulus}
        divu r12, r13
        mfhi r12
        addi r12, r12, 1
        sw   r12, 16(r11)
        addi r16, r16, 1
        sw   r16, 0(r10)
        b    loop
done:   li   v0, 0
        jr   ra
"#,
        mul = rule.mul,
        add = rule.add,
        modulus = rule.modulus,
    )
}

/// An rwho reader that scans the database `passes` times (per-record
/// parse and accumulate work) and exits with the last pass's user sum.
fn scan_reader(passes: u32) -> String {
    format!(
        r#"
.module rwho
.text
.globl main
main:   li   r15, {passes}
outer:  la   r8, hosts
        la   r10, nhosts
        lw   r10, 0(r10)
        li   r16, 0
        li   r17, 0
loop:   slt  r9, r16, r10
        beq  r9, r0, done
        sll  r11, r16, 5
        add  r11, r8, r11
        lw   r12, 16(r11)
        add  r17, r17, r12
        xor  r14, r14, r12
        sll  r13, r12, 2
        add  r19, r19, r13
        slt  r9, r12, r17
        add  r20, r20, r9
        addi r16, r16, 1
        b    loop
done:   addi r15, r15, -1
        bgtz r15, outer
        or   v0, r17, r0
        jr   ra
"#
    )
}

/// A one-pass reader that exits with `gen * 4096 + user sum`, so both
/// the generation and the records are checked against the model.
const CHECK_READER: &str = r#"
.module rwho
.text
.globl main
main:   la   r8, hosts
        la   r10, nhosts
        lw   r10, 0(r10)
        li   r16, 0
        li   r17, 0
loop:   slt  r9, r16, r10
        beq  r9, r0, done
        sll  r11, r16, 5
        add  r11, r8, r11
        lw   r12, 16(r11)
        add  r17, r17, r12
        addi r16, r16, 1
        b    loop
done:   la   r18, gen
        lw   r9, 0(r18)
        sll  r9, r9, 12
        add  v0, r9, r17
        jr   ra
"#;

/// Installs an `n`-module public `.uses` chain: `mod_i` decrements its
/// argument and calls `mod_{i+1}` unless it reached zero, in which case
/// it returns `i`. Calling `mod0_fn(depth)` touches — and so lazily
/// links — exactly `depth` modules and returns `depth - 1`.
fn install_chain(l: &mut Layers, w: &mut World, n: usize, depth: usize) -> Result<String, String> {
    for i in 0..n {
        let body = if i + 1 < n {
            format!(
                ".module mod{i}\n.uses mod{next}\n.text\n.globl mod{i}_fn\n\
                 mod{i}_fn: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 addi a0, a0, -1\nblez a0, stop\njal mod{next}_fn\n\
                 b out\nstop: li v0, {i}\nout: lw ra, 0(sp)\naddi sp, sp, 8\njr ra\n",
                next = i + 1
            )
        } else {
            format!(".module mod{i}\n.text\n.globl mod{i}_fn\nmod{i}_fn: li v0, {i}\njr ra\n")
        };
        l.install(w, &format!("/shared/lib/mod{i}.o"), &body)?;
    }
    l.install(
        w,
        "/src/chain.o",
        &format!(
            ".module chain\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\n\
             li a0, {depth}\njal mod0_fn\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n"
        ),
    )?;
    l.link(
        w,
        "/bin/chain",
        &[
            ("/src/chain.o", ShareClass::StaticPrivate),
            ("/shared/lib/mod0.o", ShareClass::DynamicPublic),
        ],
    )
}

/// Links `/src/<name>.o` against the shared database as `/bin/<name>`.
fn install_db_program(
    l: &mut Layers,
    w: &mut World,
    name: &str,
    source: &str,
) -> Result<String, String> {
    let obj = format!("/src/{name}.o");
    l.install(w, &obj, source)?;
    l.link(
        w,
        &format!("/bin/{name}"),
        &[
            (obj.as_str(), ShareClass::StaticPrivate),
            ("/shared/lib/rwho_db.o", ShareClass::DynamicPublic),
        ],
    )
}

/// A world in the shipped default configuration. No `set_*` switch is
/// called and no chaos or sanitizer is armed; this confirms nothing
/// else toggled a mode either.
fn default_world() -> Result<World, String> {
    let w = World::new();
    if w.cpus() != 1 || w.sanitizer_armed() || !w.integrity_enabled() || w.eager {
        return Err("World::new() is not in the default configuration".to_string());
    }
    Ok(w)
}

fn expect_exit(what: &str, got: i32, want: i32) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} exited {got}, expected {want}"))
    }
}

// --- cold_link ---

/// Each op is the first run after boot of a freshly built world holding
/// a seeded chain; the program lazily touches a seeded depth of it.
struct ColdLink {
    /// `(modules, depth)` per op of the round.
    specs: Vec<(usize, usize)>,
    world: World,
    exe: String,
}

impl ColdLink {
    /// Depth, which sets the op's cost, is stratified over `1..=72`; the
    /// chain is at least 24 modules and at least as deep as that.
    fn new(rng: &mut Rng) -> ColdLink {
        let depths = rng.strata();
        let sizes = rng.strata();
        let specs = depths
            .iter()
            .zip(&sizes)
            .map(|(d, s)| {
                let depth = 1 + (d * 72.0) as usize;
                let min = depth.max(24);
                (min + (s * (73 - min) as f64) as usize, depth)
            })
            .collect();
        ColdLink {
            specs,
            world: World::new(),
            exe: String::new(),
        }
    }
}

impl Workload for ColdLink {
    fn ops_per_world(&self) -> Option<usize> {
        Some(1)
    }

    fn build(&mut self, i: usize, l: &mut Layers) -> Result<(), String> {
        let (n, depth) = self.specs[i % ROUND];
        self.world = default_world()?;
        self.exe = install_chain(l, &mut self.world, n, depth)?;
        Ok(())
    }

    fn op(&mut self, i: usize, l: &mut Layers) -> Result<(), String> {
        let (_, depth) = self.specs[i % ROUND];
        let code = l.run_program(&mut self.world, &self.exe)?;
        expect_exit("chain", code, depth as i32 - 1)
    }

    fn world(&self) -> &World {
        &self.world
    }
}

// --- rwho_scan ---

/// A daemon fills the shared database when the world is built; each op
/// is one lifetime of one of four readers, and a world hosts
/// `LIFETIMES_PER_BOOT` of them.
struct RwhoScan {
    rule: Rule,
    passes: [u32; 4],
    /// Reader variant per op of the round.
    specs: Vec<usize>,
    world: World,
    readers: Vec<String>,
}

impl RwhoScan {
    fn new(rng: &mut Rng) -> RwhoScan {
        let rule = Rule::seeded(rng);
        let passes = [0, 1, 2, 3].map(|v| 12 + 10 * v + rng.range(0, 3));
        RwhoScan {
            rule,
            passes,
            specs: rng.balanced(4),
            world: World::new(),
            readers: Vec::new(),
        }
    }
}

impl Workload for RwhoScan {
    fn ops_per_world(&self) -> Option<usize> {
        Some(LIFETIMES_PER_BOOT)
    }

    fn build(&mut self, _: usize, l: &mut Layers) -> Result<(), String> {
        let mut w = default_world()?;
        l.install(&mut w, "/shared/lib/rwho_db.o", &db_module())?;
        let rwhod = install_db_program(l, &mut w, "rwhod", &daemon(self.rule))?;
        self.readers = self
            .passes
            .iter()
            .enumerate()
            .map(|(v, &p)| install_db_program(l, &mut w, &format!("rwho{v}"), &scan_reader(p)))
            .collect::<Result<_, _>>()?;
        expect_exit("rwhod", l.run_program(&mut w, &rwhod)?, 0)?;
        // Each reader's first lifetime in a boot consults its prelink
        // snapshot; later ones do not. Take the first here so every
        // round of ops does the same work.
        let sum = self.rule.host_sum() as i32;
        for exe in &self.readers {
            expect_exit("rwho", l.run_program(&mut w, exe)?, sum)?;
        }
        self.world = w;
        Ok(())
    }

    fn op(&mut self, i: usize, l: &mut Layers) -> Result<(), String> {
        let exe = &self.readers[self.specs[i % ROUND]];
        let code = l.run_program(&mut self.world, exe)?;
        expect_exit("rwho", code, self.rule.host_sum() as i32)
    }

    fn world(&self) -> &World {
        &self.world
    }
}

// --- reboot_cycle ---

/// One cycle's inputs: the daemon variant whose write is barriered, and
/// for a crash cycle the variant whose unbarriered write the power cut
/// must discard (`None`: scrub and reboot cleanly instead).
#[derive(Clone, Copy, Debug)]
struct Cycle {
    write: usize,
    lost_write: Option<usize>,
}

/// What the database must hold: the last barriered write survives, an
/// unbarriered one does not.
#[derive(Clone, Copy, Debug, Default)]
struct Durable {
    gen: u32,
    users: u32,
}

impl Durable {
    fn expected(&self) -> i32 {
        ((self.gen << 12) + self.users) as i32
    }
}

/// Each op writes and barriers the database, scrubs and reboots or
/// power-cuts after a second unbarriered write, checks the survivors
/// against the durability model, then spawns the warm chain.
struct RebootCycle {
    rules: [Rule; 4],
    specs: Vec<Cycle>,
    world: World,
    daemons: Vec<String>,
    reader: String,
    chain: String,
    model: Durable,
}

impl RebootCycle {
    fn new(rng: &mut Rng) -> RebootCycle {
        let rules = [(); 4].map(|_| Rule::seeded(rng));
        let writes = rng.balanced(4);
        let crashes = rng.balanced(2);
        let specs = writes
            .iter()
            .zip(&crashes)
            .map(|(&write, &crash)| Cycle {
                write,
                lost_write: (crash == 1).then(|| (write + 1 + rng.range(0, 2) as usize) % 4),
            })
            .collect();
        RebootCycle {
            rules,
            specs,
            world: World::new(),
            daemons: Vec::new(),
            reader: String::new(),
            chain: String::new(),
            model: Durable::default(),
        }
    }

    fn cycle(&mut self, c: Cycle, l: &mut Layers) -> Result<(), String> {
        let w = &mut self.world;
        expect_exit("rwhod", l.run_program(w, &self.daemons[c.write])?, 0)?;
        l.barrier(w);
        self.model = Durable {
            gen: self.model.gen + 1,
            users: self.rules[c.write].host_sum(),
        };
        match c.lost_write {
            None => {
                l.scrub(w)?;
                l.reboot(w);
            }
            Some(v) => {
                expect_exit("rwhod", l.run_program(w, &self.daemons[v])?, 0)?;
                l.power_cut(w);
                l.reboot(w);
            }
        }
        let code = l.run_program(w, &self.reader)?;
        expect_exit("durability reader", code, self.model.expected())?;
        let code = l.run_program(w, &self.chain)?;
        expect_exit("warm chain", code, WARM_CHAIN as i32 - 1)
    }
}

impl Workload for RebootCycle {
    fn ops_per_world(&self) -> Option<usize> {
        None
    }

    fn build(&mut self, _: usize, l: &mut Layers) -> Result<(), String> {
        let mut w = default_world()?;
        l.install(&mut w, "/shared/lib/rwho_db.o", &db_module())?;
        self.daemons = self
            .rules
            .iter()
            .enumerate()
            .map(|(v, &r)| install_db_program(l, &mut w, &format!("rwhod{v}"), &daemon(r)))
            .collect::<Result<_, _>>()?;
        self.reader = install_db_program(l, &mut w, "rwho", CHECK_READER)?;
        self.chain = install_chain(l, &mut w, WARM_CHAIN, WARM_CHAIN)?;
        self.world = w;
        self.model = Durable::default();
        // One warm-up round, so the first timed round starts from the
        // state every later round starts from: database populated and
        // every program's prelink snapshot on disk.
        for c in self.specs.clone() {
            self.cycle(c, l)?;
        }
        Ok(())
    }

    fn op(&mut self, i: usize, l: &mut Layers) -> Result<(), String> {
        self.cycle(self.specs[i % ROUND], l)
    }

    fn world(&self) -> &World {
        &self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_cover_every_stratum_once() {
        let mut v = Rng(7).strata();
        v.sort_by(f64::total_cmp);
        for (k, x) in v.iter().enumerate() {
            assert!((k as f64 / ROUND as f64..(k + 1) as f64 / ROUND as f64).contains(x));
        }
    }

    #[test]
    fn cold_link_specs_stay_in_range() {
        let c = ColdLink::new(&mut Rng(3));
        for &(n, d) in &c.specs {
            assert!((24..=72).contains(&n) && (1..=n).contains(&d), "{n} {d}");
        }
    }

    #[test]
    fn durable_value_fits_the_exit_code() {
        let max = Rule {
            mul: 1,
            add: 0,
            modulus: 16,
        };
        assert!(max.host_sum() < 4096);
    }
}
