//! The benchmark's only view of the system: one wrapper per call into a
//! layer's public functions. With tracing on, each call is recorded as a
//! span (name, start, end, parent, op id) kept in memory; processes are
//! stepped one scheduler slice at a time, and each slice becomes an
//! `hlink.ldl.slice` or `hvm.slice` span. The program itself is not
//! instrumented.

use hemlock::{ShareClass, World, WorldExit};
use hkernel::Pid;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Scheduler slices after which a process that has not exited counts
/// as unsettled (the `World::run_to_completion` cap).
const SLICE_CAP: u64 = 2_000_000;

/// One recorded interval of host time.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to; `None` during set-up.
    pub op: Option<u32>,
}

/// Host time per span name, split by whether the span ran inside an op.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub op_ns: u64,
    pub setup_ns: u64,
}

pub struct Layers {
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: Option<u32>,
    /// Shared-disk block writes, summed over `World::disk_seq` deltas
    /// around every call, priced or not.
    pub device_writes: u64,
}

impl Layers {
    pub fn new(tracing: bool) -> Layers {
        Layers {
            tracing,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            device_writes: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        if !self.tracing {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() as u32 - 1);
    }

    fn close(&mut self) {
        if !self.tracing {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx as usize].end_ns = end;
    }

    fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Runs one call into the world as a span, counting the device
    /// writes it caused.
    fn call<T>(
        &mut self,
        name: &'static str,
        world: &mut World,
        f: impl FnOnce(&mut World) -> T,
    ) -> T {
        let seq = world.disk_seq();
        self.open(name);
        let out = f(world);
        self.close();
        self.device_writes += world.disk_seq().saturating_sub(seq);
        out
    }

    /// Opens the root span of op `i`; every call until `end_op` is its child.
    pub fn begin_op(&mut self, i: usize) {
        self.op = Some(i as u32);
        self.open("op");
    }

    pub fn end_op(&mut self) {
        self.close();
        self.op = None;
    }

    /// Opens the root span of one world build.
    pub fn begin_setup(&mut self) {
        self.open("setup");
    }

    pub fn end_setup(&mut self) {
        self.close();
    }

    // --- hobj / hlink.lds ---

    pub fn install(&mut self, world: &mut World, path: &str, source: &str) -> Result<(), String> {
        self.call("hobj.assemble", world, |w| w.install_template(path, source))
            .map_err(|e| format!("assembling {path}: {e}"))
    }

    pub fn link(
        &mut self,
        world: &mut World,
        out: &str,
        modules: &[(&str, ShareClass)],
    ) -> Result<String, String> {
        self.call("hlink.lds.link", world, |w| w.link(out, modules))
            .map_err(|e| format!("linking {out}: {e}"))
    }

    // --- hkernel / hvm / hlink.ldl ---

    /// Spawns `exe` and runs the world until it settles; returns the
    /// process's exit code.
    pub fn run_program(&mut self, world: &mut World, exe: &str) -> Result<i32, String> {
        let pid = self
            .call("hkernel.spawn", world, |w| w.spawn(exe))
            .map_err(|e| format!("spawning {exe}: {e}"))?;
        let seq = world.disk_seq();
        let exit = if self.tracing {
            self.step_slices(world, pid)
        } else {
            world
                .run_to_settle(SLICE_CAP)
                .map_err(|u| format!("{exe}: {u}"))
        };
        self.device_writes += world.disk_seq().saturating_sub(seq);
        match exit? {
            WorldExit::AllExited => world
                .exit_code(pid)
                .ok_or_else(|| format!("{exe}: no exit status")),
            other => Err(format!("{exe}: world stopped with {other:?}")),
        }
    }

    /// `World::run(1)` until the world settles, one span per slice. A
    /// slice in which `pid`'s init or lazy link counters moved is an
    /// `hlink.ldl` slice (each link ends its slice as a Service or Segv
    /// event); every other slice is an `hvm` slice.
    fn step_slices(&mut self, world: &mut World, pid: Pid) -> Result<WorldExit, String> {
        let links = |w: &World| w.ldl_stats(pid).map(|s| s.init_links + s.faults_resolved);
        for _ in 0..SLICE_CAP {
            let before = links(world);
            let start = self.now();
            let exit = world.run(1);
            let end = self.now();
            let linked = matches!((before, links(world)), (Some(a), Some(b)) if b > a);
            let name = if linked {
                "hlink.ldl.slice"
            } else {
                "hvm.slice"
            };
            self.leaf(name, start, end);
            if exit != WorldExit::StepLimit {
                return Ok(exit);
            }
        }
        Err(format!("pid {pid} unsettled after {SLICE_CAP} slices"))
    }

    // --- hsfs ---

    pub fn barrier(&mut self, world: &mut World) {
        self.call("hsfs.barrier", world, |w| w.barrier());
    }

    /// A scrub pass that must find the disk clean.
    pub fn scrub(&mut self, world: &mut World) -> Result<(), String> {
        match self.call("hsfs.scrub", world, |w| w.scrub()) {
            Some(r) if r.findings.is_empty() => Ok(()),
            Some(r) => Err(format!("scrub found {} corrupt blocks", r.findings.len())),
            None => Err("scrub is off".to_string()),
        }
    }

    pub fn power_cut(&mut self, world: &mut World) {
        self.call("hsfs.power_cut", world, |w| w.power_cut());
    }

    pub fn reboot(&mut self, world: &mut World) {
        self.call("hsfs.reboot", world, |w| w.reboot());
    }

    // --- analysis ---

    /// Self time per span name: a span's duration minus the part its
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            let t = out.entry(s.name).or_default();
            if s.op.is_some() {
                t.op_ns += own;
            } else {
                t.setup_ns += own;
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                f,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.op)
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut l = Layers::new(true);
        let span = |name, start_ns, end_ns, parent, op| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        };
        l.spans = vec![
            span("op", 0, 100, None, Some(0)),
            span("hvm.slice", 10, 40, Some(0), Some(0)),
            span("hkernel.spawn", 40, 50, Some(0), Some(0)),
            span("setup", 200, 260, None, None),
            span("hobj.assemble", 200, 250, Some(3), None),
        ];
        let t = l.self_times();
        assert_eq!(t["op"].op_ns, 60);
        assert_eq!(t["hvm.slice"].op_ns, 30);
        assert_eq!(t["hkernel.spawn"].op_ns, 10);
        assert_eq!(t["setup"].setup_ns, 10);
        assert_eq!(t["hobj.assemble"].setup_ns, 50);
        assert_eq!(t["hobj.assemble"].op_ns, 0);
    }
}
