//! Structured tracing keyed to virtual time.
//!
//! Every simulation owns a [`Tracer`] (reachable through
//! [`SimCtx::tracer`](crate::SimCtx::tracer)). Instrumented subsystems emit
//! *spans* (`begin`/`end` pairs) and *instants* into a bounded ring buffer;
//! each event carries the virtual [`SimTime`], a [`Layer`] tag, a static
//! name and a typed, allocation-free [`Payload`].
//!
//! # Cost model
//!
//! The tracer starts **disabled** and the disabled path is a no-op: one
//! `Cell<bool>` load, no allocation, no ring write. Hot paths capture the
//! `Rc<Tracer>` once at construction and call [`Tracer::begin`] /
//! [`Tracer::end`] / [`Tracer::instant`] unconditionally; the event structs
//! are `Copy` and are only materialised when tracing is on.
//!
//! An enabled tracer does two things per event: it folds a `begin` or `end`
//! into the running attribution (one integer hash of the layer and the
//! name's address, one push or pop of a span's start time) and it copies
//! the event into the ring. The ring holds at most its capacity:
//! [`DEFAULT_CAPACITY`] events (5 MiB) as created, none at all after
//! [`Tracer::set_capacity`]`(0)`. A caller that only wants the attribution
//! (the fault harness's untraced trials) sets capacity 0 and keeps no
//! events; one that reads events (a snapshot, an exporter, a test that
//! looks at the disk's reads) keeps a ring.
//!
//! # Exporters
//!
//! A [`TraceSnapshot`] renders to JSON-lines ([`TraceSnapshot::to_jsonl`])
//! or to the Chrome `trace_event` array format
//! ([`TraceSnapshot::to_chrome`]), which loads directly in Perfetto /
//! `chrome://tracing`. Both exporters format timestamps with integer
//! arithmetic so output is byte-identical across runs and platforms.
//!
//! # Attribution
//!
//! The tracer folds spans into per-layer busy time as they are recorded;
//! [`Tracer::latency_attribution`] returns that running fold, which the
//! bench harness divides by acknowledged commits to answer "where do a
//! commit's microseconds go?". It needs no ring, and counts every span
//! whose begin and end were both recorded since the last
//! [`Tracer::clear`], evicted or not.
//! [`LatencyAttribution::from_snapshot`] folds a snapshot the same way for
//! a caller that holds one; it sees only the events the ring kept.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// Default ring capacity (events), enough for several simulated seconds of
/// a busy single-disk machine.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The subsystem a trace event belongs to. Doubles as the Chrome `tid` so
/// each layer renders as its own track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Workload clients: transaction submit / commit observation.
    App,
    /// Database engine: transaction execution, checkpoints.
    Engine,
    /// Write-ahead log: appends, group-commit formation, forces.
    Wal,
    /// RapiLog dependable buffer: admission, acks.
    Buffer,
    /// RapiLog drain: batch consolidation, emergency drain, freeze.
    Drain,
    /// Simulated disk: media I/O with seek/rotation/transfer breakdown.
    Disk,
    /// Power supply: warnings, death, restore.
    Power,
    /// Fault injector: crashes, power cuts, recovery.
    Fault,
    /// Simulated network: link sends, drops, duplicates, partitions.
    Net,
}

impl Layer {
    /// Every layer, in track order.
    pub const ALL: [Layer; 9] = [
        Layer::App,
        Layer::Engine,
        Layer::Wal,
        Layer::Buffer,
        Layer::Drain,
        Layer::Disk,
        Layer::Power,
        Layer::Fault,
        Layer::Net,
    ];

    /// Human-readable (and Chrome thread) name.
    pub fn label(self) -> &'static str {
        match self {
            Layer::App => "app",
            Layer::Engine => "engine",
            Layer::Wal => "wal",
            Layer::Buffer => "buffer",
            Layer::Drain => "drain",
            Layer::Disk => "disk",
            Layer::Power => "power",
            Layer::Fault => "fault",
            Layer::Net => "net",
        }
    }

    /// Stable per-layer track id for the Chrome exporter.
    pub fn track(self) -> u32 {
        match self {
            Layer::App => 1,
            Layer::Engine => 2,
            Layer::Wal => 3,
            Layer::Buffer => 4,
            Layer::Drain => 5,
            Layer::Disk => 6,
            Layer::Power => 7,
            Layer::Fault => 8,
            Layer::Net => 9,
        }
    }
}

/// Span phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Opens a span on the event's layer.
    Begin,
    /// Closes the most recent open span with the same layer and name.
    End,
    /// A point event with no duration.
    Instant,
}

/// Typed, allocation-free event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Payload {
    /// No payload.
    #[default]
    None,
    /// A byte count.
    Bytes {
        /// Bytes involved.
        bytes: u64,
    },
    /// A buffered extent (RapiLog admission).
    Extent {
        /// Buffer sequence number.
        seq: u64,
        /// Starting sector.
        sector: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// A consolidated drain batch.
    Batch {
        /// Extents consumed.
        extents: u64,
        /// Contiguous runs after consolidation.
        runs: u64,
        /// Total bytes.
        bytes: u64,
    },
    /// A media I/O with the timing model's breakdown.
    Io {
        /// Starting sector.
        sector: u64,
        /// Sector count.
        sectors: u64,
        /// True for writes.
        write: bool,
        /// Seek (or fixed-overhead) nanoseconds.
        seek: u64,
        /// Rotational-wait nanoseconds.
        rotation: u64,
        /// Transfer nanoseconds.
        transfer: u64,
    },
    /// A WAL record or flush.
    Wal {
        /// Log sequence number.
        lsn: u64,
        /// Bytes staged or forced.
        bytes: u64,
        /// Records covered.
        records: u64,
    },
    /// An acknowledged commit as seen by a client.
    Commit {
        /// Client-local transaction number.
        txn: u64,
        /// Observed latency in nanoseconds.
        latency: u64,
    },
    /// An injected or observed device fault.
    Fault {
        /// Static fault-kind label (e.g. `"transient"`, `"media_error"`).
        kind: &'static str,
        /// Sector the fault hit (0 when not sector-addressed).
        sector: u64,
    },
    /// A guest read of the virtual log disk, by where it was served.
    Read {
        /// First sector asked for.
        sector: u64,
        /// Bytes taken from the dependable buffer.
        memory: u64,
        /// Bytes the backing disk served.
        disk: u64,
    },
    /// A bare numeric annotation.
    Mark {
        /// The value.
        value: u64,
    },
    /// A static-string annotation.
    Text {
        /// The text.
        text: &'static str,
    },
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Owning subsystem.
    pub layer: Layer,
    /// Static event name (span name for `Begin`/`End`).
    pub name: &'static str,
    /// Begin / end / instant.
    pub phase: Phase,
    /// Typed payload.
    pub payload: Payload,
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    total: u64,
    fold: SpanFold,
}

/// The per-simulation event recorder.
///
/// Created disabled; see the [module docs](self) for the cost model.
pub struct Tracer {
    on: Cell<bool>,
    ring: RefCell<Ring>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a disabled tracer with [`DEFAULT_CAPACITY`].
    pub fn new() -> Tracer {
        Tracer {
            on: Cell::new(false),
            ring: RefCell::new(Ring {
                events: VecDeque::new(),
                capacity: DEFAULT_CAPACITY,
                dropped: 0,
                total: 0,
                fold: SpanFold::default(),
            }),
        }
    }

    /// Turns recording on or off. Events emitted while off vanish without
    /// touching the ring or the running attribution.
    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.on.get()
    }

    /// Resizes the ring; excess oldest events are evicted (and counted as
    /// dropped). Capacity 0 keeps no events at all: every event is counted
    /// as dropped the moment it is recorded, and the running
    /// [attribution](Tracer::latency_attribution) is all that is kept.
    pub fn set_capacity(&self, capacity: usize) {
        let mut ring = self.ring.borrow_mut();
        ring.capacity = capacity;
        while ring.events.len() > capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
    }

    fn record(&self, ev: TraceEvent) {
        // The disabled check lives in the public inline wrappers so a
        // disabled tracer never reaches this function.
        let mut ring = self.ring.borrow_mut();
        ring.total += 1;
        ring.fold.record(&ev);
        if ring.capacity == 0 {
            ring.dropped += 1;
            return;
        }
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&self, time: SimTime, layer: Layer, name: &'static str, payload: Payload) {
        if !self.on.get() {
            return;
        }
        self.record(TraceEvent {
            time,
            layer,
            name,
            phase: Phase::Begin,
            payload,
        });
    }

    /// Closes the most recent open span with this layer and name.
    #[inline]
    pub fn end(&self, time: SimTime, layer: Layer, name: &'static str, payload: Payload) {
        if !self.on.get() {
            return;
        }
        self.record(TraceEvent {
            time,
            layer,
            name,
            phase: Phase::End,
            payload,
        });
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&self, time: SimTime, layer: Layer, name: &'static str, payload: Payload) {
        if !self.on.get() {
            return;
        }
        self.record(TraceEvent {
            time,
            layer,
            name,
            phase: Phase::Instant,
            payload,
        });
    }

    /// Per-layer busy time of every span recorded since the tracer was
    /// created or last [cleared](Tracer::clear), folded as each begin and
    /// end was recorded: no ring is read or copied, so it works at ring
    /// capacity 0. While the ring has evicted nothing this equals
    /// `LatencyAttribution::from_snapshot(&t.snapshot(), commits)`; once it
    /// has, it also counts the spans whose begin the ring no longer holds.
    pub fn latency_attribution(&self, commits: u64) -> LatencyAttribution {
        self.ring.borrow().fold.attribution(commits)
    }

    /// Copies the ring out. Recording continues unaffected.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.borrow();
        TraceSnapshot {
            events: ring.events.iter().copied().collect(),
            dropped: ring.dropped,
            total: ring.total,
        }
    }

    /// Empties the ring, resets the drop counters and starts the running
    /// attribution afresh: a span open at the clear is forgotten, and its
    /// end, when it comes, is not counted. The enabled flag and capacity
    /// are untouched.
    pub fn clear(&self) {
        let mut ring = self.ring.borrow_mut();
        ring.events.clear();
        ring.dropped = 0;
        ring.total = 0;
        ring.fold = SpanFold::default();
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.borrow().events.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.borrow().events.is_empty()
    }
}

/// Writes `ns` nanoseconds as a microsecond decimal (`"12.345"`) using only
/// integer arithmetic, so exporter output never depends on float formatting.
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn payload_args(out: &mut String, payload: &Payload) {
    match *payload {
        Payload::None => out.push_str("{}"),
        Payload::Bytes { bytes } => {
            let _ = write!(out, "{{\"bytes\":{bytes}}}");
        }
        Payload::Extent { seq, sector, bytes } => {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"sector\":{sector},\"bytes\":{bytes}}}"
            );
        }
        Payload::Batch {
            extents,
            runs,
            bytes,
        } => {
            let _ = write!(
                out,
                "{{\"extents\":{extents},\"runs\":{runs},\"bytes\":{bytes}}}"
            );
        }
        Payload::Io {
            sector,
            sectors,
            write,
            seek,
            rotation,
            transfer,
        } => {
            let _ = write!(
                out,
                "{{\"sector\":{sector},\"sectors\":{sectors},\"write\":{write},\
                 \"seek_ns\":{seek},\"rotation_ns\":{rotation},\"transfer_ns\":{transfer}}}"
            );
        }
        Payload::Wal {
            lsn,
            bytes,
            records,
        } => {
            let _ = write!(
                out,
                "{{\"lsn\":{lsn},\"bytes\":{bytes},\"records\":{records}}}"
            );
        }
        Payload::Commit { txn, latency } => {
            let _ = write!(out, "{{\"txn\":{txn},\"latency_ns\":{latency}}}");
        }
        Payload::Fault { kind, sector } => {
            let _ = write!(out, "{{\"kind\":\"{kind}\",\"sector\":{sector}}}");
        }
        Payload::Read {
            sector,
            memory,
            disk,
        } => {
            let _ = write!(
                out,
                "{{\"sector\":{sector},\"memory\":{memory},\"disk\":{disk}}}"
            );
        }
        Payload::Mark { value } => {
            let _ = write!(out, "{{\"value\":{value}}}");
        }
        Payload::Text { text } => {
            // Static strings in this codebase are plain ASCII identifiers;
            // escape the JSON specials anyway to stay valid.
            out.push_str("{\"text\":\"");
            for c in text.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push_str("\"}");
        }
    }
}

/// An owned copy of the ring at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted by the ring before this snapshot.
    pub dropped: u64,
    /// Events ever recorded (buffered + dropped).
    pub total: u64,
}

impl TraceSnapshot {
    /// One JSON object per line:
    /// `{"t_ns":..,"layer":"..","name":"..","ph":"B","args":{..}}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for ev in &self.events {
            let ph = match ev.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"layer\":\"{}\",\"name\":\"{}\",\"ph\":\"{ph}\",\"args\":",
                ev.time.as_nanos(),
                ev.layer.label(),
                ev.name,
            );
            payload_args(&mut out, &ev.payload);
            out.push_str("}\n");
        }
        out
    }

    /// Chrome `trace_event` JSON (array form), loadable in Perfetto or
    /// `chrome://tracing`. Layers map to threads of a single process;
    /// timestamps are virtual microseconds.
    pub fn to_chrome(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 128 + 1024);
        out.push_str("[\n");
        let mut first = true;
        // Thread-name metadata so Perfetto labels each layer track.
        for layer in Layer::ALL {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                layer.track(),
                layer.label(),
            );
        }
        for ev in &self.events {
            let ph = match ev.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":",
                ev.layer.track()
            );
            write_us(&mut out, ev.time.as_nanos());
            let _ = write!(
                out,
                ",\"name\":\"{}\",\"cat\":\"{}\"",
                ev.name,
                ev.layer.label()
            );
            if ev.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"args\":");
            payload_args(&mut out, &ev.payload);
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }

    /// The first `name` span on `layer` as `(begin, end)` times; `None`
    /// unless both ends are in the snapshot.
    pub fn span(&self, layer: Layer, name: &str) -> Option<(SimTime, SimTime)> {
        let at = |phase| {
            self.events
                .iter()
                .find(|ev| ev.layer == layer && ev.name == name && ev.phase == phase)
                .map(|ev| ev.time)
        };
        Some((at(Phase::Begin)?, at(Phase::End)?))
    }

    /// Every media operation of one direction (`write`) in the snapshot, in
    /// trace order, with the timing model's breakdown.
    pub fn media_ops(&self, write: bool) -> impl Iterator<Item = MediaOp> + '_ {
        self.events.iter().filter_map(move |ev| match ev.payload {
            Payload::Io {
                sector,
                sectors,
                write: w,
                seek,
                rotation,
                transfer,
            } if ev.layer == Layer::Disk && ev.phase == Phase::Begin && w == write => {
                Some(MediaOp {
                    begin: ev.time,
                    sector,
                    sectors,
                    seek: SimDuration::from_nanos(seek),
                    rotation: SimDuration::from_nanos(rotation),
                    transfer: SimDuration::from_nanos(transfer),
                })
            }
            _ => None,
        })
    }

    /// Every media read that began inside the first `name` span on `layer`,
    /// in trace order — the question "what did the disk do while this was
    /// going on" (which reads paid a rotation, which
    /// [`end`](MediaOp::end) only after the span closed).
    pub fn media_reads_in(&self, layer: Layer, name: &str) -> Vec<MediaOp> {
        let Some((from, to)) = self.span(layer, name) else {
            return Vec::new();
        };
        self.media_ops(false)
            .filter(|r| r.begin >= from && r.begin <= to)
            .collect()
    }
}

/// One media read or write found by [`TraceSnapshot::media_ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaOp {
    /// When the media started on the operation (after any queueing).
    pub begin: SimTime,
    /// First sector of the access.
    pub sector: u64,
    /// Sectors read or written.
    pub sectors: u64,
    /// Seek (or fixed controller overhead).
    pub seek: SimDuration,
    /// Rotational wait.
    pub rotation: SimDuration,
    /// Media transfer.
    pub transfer: SimDuration,
}

impl MediaOp {
    /// When the media finished the operation.
    pub fn end(&self) -> SimTime {
        self.begin + self.seek + self.rotation + self.transfer
    }
}

/// The attribution fold: pairs each span's end with its begin and sums
/// every layer's span count and busy time.
///
/// Begin/end events pair LIFO per `(layer, name)`; an end with no open
/// begin and a begin never ended are not counted. The [`Tracer`] runs one
/// as events are recorded, so its attribution counts a span whose begin the
/// ring has since evicted, which a fold over a snapshot of that ring
/// ([`LatencyAttribution::from_snapshot`]) cannot see.
#[derive(Default)]
struct SpanFold {
    // Per-layer accumulators are plain arrays indexed by the enum
    // discriminant. This runs on every recorded event, so constant factors
    // here are measurable in trials/sec: a span's stack is found by the
    // address of its name (a `&'static str` literal at each call site), an
    // integer hash and compare; the name's text is hashed only the first
    // time a site is seen, so that two literals of one name share a stack.
    sites: crate::hash::FastMap<(Layer, usize, usize), usize>,
    names: crate::hash::FastMap<(Layer, &'static str), usize>,
    /// Begin times of the open spans, one stack per `(layer, name)`.
    open: Vec<Vec<SimTime>>,
    spans: [(u64, u64); Layer::ALL.len()],
}

impl SpanFold {
    fn stack(&mut self, layer: Layer, name: &'static str) -> &mut Vec<SimTime> {
        let site = (layer, name.as_ptr() as usize, name.len());
        let slot = match self.sites.get(&site) {
            Some(&slot) => slot,
            None => {
                let next = self.open.len();
                let slot = *self.names.entry((layer, name)).or_insert(next);
                if slot == next {
                    self.open.push(Vec::new());
                }
                self.sites.insert(site, slot);
                slot
            }
        };
        &mut self.open[slot]
    }

    fn record(&mut self, ev: &TraceEvent) {
        match ev.phase {
            Phase::Begin => self.stack(ev.layer, ev.name).push(ev.time),
            Phase::End => {
                if let Some(begin) = self.stack(ev.layer, ev.name).pop() {
                    let d = ev.time.saturating_duration_since(begin);
                    let e = &mut self.spans[ev.layer as usize];
                    e.0 += 1;
                    e.1 += d.as_nanos();
                }
            }
            Phase::Instant => {}
        }
    }

    fn attribution(&self, commits: u64) -> LatencyAttribution {
        // `Layer::ALL` is in discriminant order, so the result is already
        // sorted by layer.
        let layers: Vec<LayerBusy> = Layer::ALL
            .iter()
            .filter_map(|&layer| {
                let (n, ns) = self.spans[layer as usize];
                (n > 0).then_some(LayerBusy {
                    layer,
                    spans: n,
                    busy: SimDuration::from_nanos(ns),
                })
            })
            .collect();
        LatencyAttribution { commits, layers }
    }
}

/// Busy time of one layer, folded from matched spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerBusy {
    /// The layer.
    pub layer: Layer,
    /// Matched spans counted.
    pub spans: u64,
    /// Total span time (overlapping spans within a layer add up).
    pub busy: SimDuration,
}

/// Per-layer commit-latency attribution.
///
/// Dividing each layer's busy time by the number of acknowledged commits
/// gives the average "where did the microseconds go" decomposition the
/// paper's latency claims rest on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyAttribution {
    /// Acknowledged commits the busy time is attributed across.
    pub commits: u64,
    /// Busy time per layer (only layers with at least one span appear).
    pub layers: Vec<LayerBusy>,
}

impl LatencyAttribution {
    /// Folds `snap` into per-layer busy time, as [`SpanFold`] does.
    ///
    /// Unmatched begins (spans still open at snapshot time) and ends whose
    /// begin is not in the snapshot (evicted from the ring, or recorded
    /// before a [`Tracer::clear`]) are dropped rather than guessed at.
    pub fn from_snapshot(snap: &TraceSnapshot, commits: u64) -> LatencyAttribution {
        let mut fold = SpanFold::default();
        for ev in &snap.events {
            fold.record(ev);
        }
        fold.attribution(commits)
    }

    /// Total busy time of `layer`, zero if it never appeared.
    pub fn busy(&self, layer: Layer) -> SimDuration {
        self.layers
            .iter()
            .find(|l| l.layer == layer)
            .map(|l| l.busy)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Average busy time of `layer` per acknowledged commit.
    pub fn per_commit(&self, layer: Layer) -> SimDuration {
        if self.commits == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.busy(layer).as_nanos() / self.commits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        assert!(!tr.is_enabled());
        tr.begin(t(1), Layer::Disk, "io", Payload::None);
        tr.end(t(2), Layer::Disk, "io", Payload::None);
        tr.instant(t(3), Layer::App, "mark", Payload::Mark { value: 1 });
        assert!(tr.is_empty());
        let snap = tr.snapshot();
        assert_eq!(snap.total, 0);
        assert_eq!(snap.dropped, 0);
        assert!(snap.events.is_empty());
    }

    #[test]
    fn enable_disable_toggles_recording() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.instant(t(1), Layer::App, "a", Payload::None);
        tr.set_enabled(false);
        tr.instant(t(2), Layer::App, "b", Payload::None);
        tr.set_enabled(true);
        tr.instant(t(3), Layer::App, "c", Payload::None);
        let snap = tr.snapshot();
        let names: Vec<_> = snap.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let tr = Tracer::new();
        tr.set_capacity(4);
        tr.set_enabled(true);
        for i in 0..10u64 {
            tr.instant(t(i), Layer::Wal, "e", Payload::Mark { value: i });
        }
        assert_eq!(tr.len(), 4);
        let snap = tr.snapshot();
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.total, 10);
        let kept: Vec<u64> = snap
            .events
            .iter()
            .map(|e| match e.payload {
                Payload::Mark { value } => value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest evicted first");
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        for i in 0..8u64 {
            tr.instant(t(i), Layer::App, "e", Payload::None);
        }
        tr.set_capacity(3);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.snapshot().dropped, 5);
    }

    #[test]
    fn clear_resets_but_keeps_flag() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.instant(t(1), Layer::App, "x", Payload::None);
        tr.clear();
        assert!(tr.is_empty());
        assert!(tr.is_enabled());
        assert_eq!(tr.snapshot().total, 0);
    }

    #[test]
    fn nested_spans_attribute_lifo() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        // outer [0, 100us], inner [20, 30us], same layer, different names.
        tr.begin(t(0), Layer::Drain, "outer", Payload::None);
        tr.begin(t(20), Layer::Drain, "inner", Payload::None);
        tr.end(t(30), Layer::Drain, "inner", Payload::None);
        tr.end(t(100), Layer::Drain, "outer", Payload::None);
        let attr = LatencyAttribution::from_snapshot(&tr.snapshot(), 1);
        assert_eq!(attr.busy(Layer::Drain).as_micros(), 110, "overlap adds");
        assert_eq!(attr.layers[0].spans, 2);
    }

    #[test]
    fn same_name_nesting_pairs_lifo() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin(t(0), Layer::Disk, "io", Payload::None);
        tr.begin(t(10), Layer::Disk, "io", Payload::None);
        tr.end(t(15), Layer::Disk, "io", Payload::None); // pairs with t=10
        tr.end(t(40), Layer::Disk, "io", Payload::None); // pairs with t=0
        let attr = LatencyAttribution::from_snapshot(&tr.snapshot(), 1);
        assert_eq!(attr.busy(Layer::Disk).as_micros(), 45);
    }

    #[test]
    fn unmatched_begins_are_dropped() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin(t(0), Layer::Wal, "force", Payload::None);
        // never ended
        tr.begin(t(5), Layer::Wal, "append", Payload::None);
        tr.end(t(9), Layer::Wal, "append", Payload::None);
        let attr = LatencyAttribution::from_snapshot(&tr.snapshot(), 2);
        assert_eq!(attr.busy(Layer::Wal).as_micros(), 4);
        assert_eq!(attr.per_commit(Layer::Wal).as_micros(), 2);
    }

    #[test]
    fn stray_end_is_ignored() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.end(t(9), Layer::Buffer, "ack", Payload::None);
        let attr = LatencyAttribution::from_snapshot(&tr.snapshot(), 1);
        assert_eq!(attr.busy(Layer::Buffer), SimDuration::ZERO);
        assert!(attr.layers.is_empty());
    }

    /// Random streams — nested and interleaved spans on several layers,
    /// instants, ends with no begin, clears between a begin and its end —
    /// fold to the same attribution running as over a snapshot, wherever
    /// the ring has evicted nothing.
    #[test]
    fn running_fold_equals_snapshot_fold() {
        const LAYERS: [Layer; 4] = [Layer::Wal, Layer::Buffer, Layer::Drain, Layer::Disk];
        const NAMES: [&str; 3] = ["io", "force", "batch"];
        let mut rng = crate::rng::SimRng::seed_from_u64(0x7ACE);
        let mut compared = 0;
        for case in 0..200u64 {
            let tr = Tracer::new();
            // Small rings evict in some cases; those are compared only
            // until their first eviction.
            let capacity = if case % 4 == 0 { 16 } else { 1 << 12 };
            tr.set_capacity(capacity);
            tr.set_enabled(true);
            let mut now = 0u64;
            for _ in 0..rng.gen_range(1..400u64) {
                now += rng.gen_range(0..50u64);
                let layer = LAYERS[rng.gen_range(0..LAYERS.len())];
                let name = NAMES[rng.gen_range(0..NAMES.len())];
                match rng.gen_range(0..20u32) {
                    0..=7 => tr.begin(t(now), layer, name, Payload::None),
                    8..=15 => tr.end(t(now), layer, name, Payload::None),
                    16..=18 => tr.instant(t(now), layer, name, Payload::Mark { value: now }),
                    _ => tr.clear(),
                }
                let snap = tr.snapshot();
                if snap.dropped > 0 {
                    break;
                }
                let commits = rng.gen_range(0..5u64);
                assert_eq!(
                    tr.latency_attribution(commits),
                    LatencyAttribution::from_snapshot(&snap, commits),
                    "case {case} at {now} us"
                );
                compared += 1;
            }
        }
        assert!(compared > 10_000, "only {compared} comparisons");
    }

    #[test]
    fn one_name_from_two_literals_is_one_span() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let copy: &'static str = Box::leak(String::from("io").into_boxed_str());
        assert_ne!(copy.as_ptr(), "io".as_ptr());
        tr.begin(t(0), Layer::Disk, copy, Payload::None);
        tr.end(t(5), Layer::Disk, "io", Payload::None);
        let running = tr.latency_attribution(1);
        assert_eq!(running.busy(Layer::Disk).as_micros(), 5);
        assert_eq!(
            running,
            LatencyAttribution::from_snapshot(&tr.snapshot(), 1)
        );
    }

    #[test]
    fn clear_forgets_an_open_span() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin(t(0), Layer::Wal, "force", Payload::None);
        tr.clear();
        tr.end(t(9), Layer::Wal, "force", Payload::None);
        assert!(tr.latency_attribution(1).layers.is_empty());
    }

    /// The one place the running fold and a snapshot's differ: a span whose
    /// begin the ring evicted is counted by the first, not by the second.
    #[test]
    fn running_fold_counts_a_span_whose_begin_was_evicted() {
        let tr = Tracer::new();
        tr.set_capacity(4);
        tr.set_enabled(true);
        tr.begin(t(0), Layer::Disk, "io", Payload::None);
        for i in 1..5 {
            tr.instant(t(i), Layer::App, "tick", Payload::None);
        }
        tr.end(t(10), Layer::Disk, "io", Payload::None);
        let snap = tr.snapshot();
        assert_eq!(snap.dropped, 2, "the begin and the first tick are gone");
        assert!(LatencyAttribution::from_snapshot(&snap, 1)
            .layers
            .is_empty());
        let running = tr.latency_attribution(1);
        assert_eq!(running.busy(Layer::Disk).as_micros(), 10);
        assert_eq!(running.layers[0].spans, 1);
    }

    #[test]
    fn zero_capacity_keeps_no_events_but_folds() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.instant(t(0), Layer::App, "x", Payload::None);
        tr.set_capacity(0);
        assert!(tr.is_empty());
        tr.begin(t(1), Layer::Drain, "batch", Payload::None);
        tr.end(t(4), Layer::Drain, "batch", Payload::None);
        assert!(tr.is_empty());
        let snap = tr.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!((snap.total, snap.dropped), (3, 3));
        assert_eq!(tr.latency_attribution(1).busy(Layer::Drain).as_micros(), 3);
    }

    #[test]
    fn attribution_zero_commits_is_safe() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin(t(0), Layer::Disk, "io", Payload::None);
        tr.end(t(10), Layer::Disk, "io", Payload::None);
        let attr = LatencyAttribution::from_snapshot(&tr.snapshot(), 0);
        assert_eq!(attr.per_commit(Layer::Disk), SimDuration::ZERO);
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin(
            t(1),
            Layer::Disk,
            "media_write",
            Payload::Io {
                sector: 8,
                sectors: 4,
                write: true,
                seek: 100,
                rotation: 200,
                transfer: 300,
            },
        );
        tr.end(t(2), Layer::Disk, "media_write", Payload::None);
        tr.instant(t(3), Layer::Power, "warning", Payload::Text { text: "atx" });
        let out = tr.snapshot().to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"t_ns\":1000,"));
        assert!(lines[0].contains("\"ph\":\"B\""));
        assert!(lines[0].contains("\"seek_ns\":100"));
        assert!(lines[1].contains("\"ph\":\"E\""));
        assert!(lines[2].contains("\"ph\":\"i\""));
        assert!(lines[2].contains("\"text\":\"atx\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(
                l.matches('{').count(),
                l.matches('}').count(),
                "balanced braces in {l}"
            );
        }
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin(
            t(10),
            Layer::Wal,
            "group_commit",
            Payload::Bytes { bytes: 4096 },
        );
        tr.end(t(25), Layer::Wal, "group_commit", Payload::None);
        tr.instant(
            t(30),
            Layer::App,
            "commit",
            Payload::Commit {
                txn: 1,
                latency: 5000,
            },
        );
        let out = tr.snapshot().to_chrome();
        assert!(out.starts_with("[\n"));
        assert!(out.trim_end().ends_with(']'));
        // Metadata rows name every layer track.
        for layer in Layer::ALL {
            assert!(
                out.contains(&format!("\"args\":{{\"name\":\"{}\"}}", layer.label())),
                "missing thread_name for {}",
                layer.label()
            );
        }
        // Microsecond timestamps rendered with integer math.
        assert!(out.contains("\"ts\":10.000"));
        assert!(out.contains("\"ts\":25.000"));
        // Instants carry scope.
        assert!(out.contains("\"s\":\"t\""));
        assert_eq!(out.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(out.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(out.matches("\"ph\":\"i\"").count(), 1);
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn chrome_timestamps_submicrosecond() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.instant(
            SimTime::from_nanos(1_234_567),
            Layer::App,
            "x",
            Payload::None,
        );
        let out = tr.snapshot().to_chrome();
        assert!(out.contains("\"ts\":1234.567"), "got: {out}");
    }

    #[test]
    fn exports_are_deterministic() {
        fn build() -> String {
            let tr = Tracer::new();
            tr.set_enabled(true);
            for i in 0..50u64 {
                tr.begin(t(i * 10), Layer::Disk, "io", Payload::Bytes { bytes: i });
                tr.end(t(i * 10 + 5), Layer::Disk, "io", Payload::None);
            }
            let snap = tr.snapshot();
            format!("{}{}", snap.to_jsonl(), snap.to_chrome())
        }
        assert_eq!(build(), build());
    }
}
