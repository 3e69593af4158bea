//! Benchmark-owned spans around every call the harness makes into a layer.
//!
//! A span carries a name, host and simulated start/end, the span that
//! caused it and a run id. Spans are kept in memory and written when the
//! run ends as a Chrome `trace_event` array (`benchmark/out/<workload>.
//! trace.json`, loadable in Perfetto). Only the traced section and the
//! probes of a traced run record; everything else pays one branch per call
//! site.
//!
//! These are *not* the program's own trace events (`simcore::trace`): those
//! give simulated busy time per layer, these give host time per harness
//! call, and the ledger compares both with the end-to-end figures.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use rapilog_simcore::SimTime;

#[derive(Clone, Copy)]
pub struct SpanId(u32);

const NO_SPAN: u32 = u32::MAX;

struct Span {
    name: &'static str,
    run: u32,
    parent: u32,
    host_start_ns: u64,
    host_end_ns: u64,
    sim_start_ns: u64,
    sim_end_ns: u64,
}

struct Inner {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
}

/// Shared recorder handle (the simulation is single-threaded).
#[derive(Clone)]
pub struct Spans(Rc<RefCell<Inner>>);

/// Per-name totals over the recorded spans.
pub struct SpanTotal {
    pub count: u64,
    pub host_ns: u64,
    /// Host time not covered by child spans.
    pub self_ns: u64,
    pub sim_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans(Rc::new(RefCell::new(Inner {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
        })))
    }

    /// Switches recording on or off; spans opened while off are dropped.
    pub fn set_on(&self, on: bool) {
        self.0.borrow_mut().on = on;
    }

    /// Spans opened from now on belong to run `run` (Chrome `tid`).
    pub fn set_run(&self, run: u32) {
        self.0.borrow_mut().run = run;
    }

    pub fn open(&self, name: &'static str, parent: Option<SpanId>, sim: SimTime) -> SpanId {
        let mut s = self.0.borrow_mut();
        if !s.on {
            return SpanId(NO_SPAN);
        }
        let host = s.epoch.elapsed().as_nanos() as u64;
        let run = s.run;
        s.spans.push(Span {
            name,
            run,
            parent: parent.map_or(NO_SPAN, |p| p.0),
            host_start_ns: host,
            host_end_ns: host,
            sim_start_ns: sim.as_nanos(),
            sim_end_ns: sim.as_nanos(),
        });
        SpanId(s.spans.len() as u32 - 1)
    }

    pub fn close(&self, id: SpanId, sim: SimTime) {
        if id.0 == NO_SPAN {
            return;
        }
        let mut s = self.0.borrow_mut();
        let host = s.epoch.elapsed().as_nanos() as u64;
        let span = &mut s.spans[id.0 as usize];
        span.host_end_ns = host;
        span.sim_end_ns = sim.as_nanos();
    }

    /// A span around a synchronous call that does not move simulated time.
    pub fn sync<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        sim: SimTime,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, sim);
        let out = f();
        self.close(id, sim);
        out
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let s = self.0.borrow();
        let mut child_ns = vec![0u64; s.spans.len()];
        for sp in &s.spans {
            if sp.parent != NO_SPAN {
                child_ns[sp.parent as usize] += sp.host_end_ns - sp.host_start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (sp, children) in s.spans.iter().zip(child_ns) {
            let host = sp.host_end_ns - sp.host_start_ns;
            let t = out.entry(sp.name).or_insert(SpanTotal {
                count: 0,
                host_ns: 0,
                self_ns: 0,
                sim_ns: 0,
            });
            t.count += 1;
            t.host_ns += host;
            // Children that await run interleaved with other tasks, so
            // their host time can exceed the parent's.
            t.self_ns += host.saturating_sub(children);
            t.sim_ns += sp.sim_end_ns - sp.sim_start_ns;
        }
        out
    }

    /// Writes the spans as a Chrome `trace_event` array of complete (`X`)
    /// events: `ts`/`dur` are host microseconds, simulated times and the
    /// causing span travel in `args`. Returns the number written.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let s = self.0.borrow();
        let mut out = String::with_capacity(s.spans.len() * 160 + 16);
        out.push_str("[\n");
        for (i, sp) in s.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"run\":{},\"sim_start_us\":{:.3},\"sim_end_us\":{:.3}}}}}",
                sp.run,
                sp.name,
                sp.host_start_ns as f64 / 1e3,
                (sp.host_end_ns - sp.host_start_ns) as f64 / 1e3,
                i,
                if sp.parent == NO_SPAN { -1 } else { i64::from(sp.parent) },
                sp.run,
                sp.sim_start_ns as f64 / 1e3,
                sp.sim_end_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(s.spans.len())
    }
}
