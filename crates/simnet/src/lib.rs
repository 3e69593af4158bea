#![warn(missing_docs)]

//! Deterministic discrete-event network links.
//!
//! The same discipline as `rapilog-simdisk`: all nondeterminism comes from
//! a dedicated [`SimRng`] stream seeded from the link's
//! [`LinkFaults::seed`], and every delay is virtual-clock time — so a run
//! with the same seeds replays the same packet schedule bit for bit, no
//! matter how the upstream workload is scheduled.
//!
//! A [`Link`] is a unidirectional, typed, unreliable message pipe:
//!
//! * **Latency** — every message pays a fixed 50 µs propagation delay
//!   plus a uniform jitter of under 20 µs plus a per-byte serialisation
//!   cost (~10 Gbit/s).
//! * **Drop** — with probability [`LinkFaults::drop_rate`] a message
//!   silently disappears.
//! * **Duplication** — with probability [`LinkFaults::dup_rate`] a second
//!   copy is delivered after its own independent delay.
//! * **Bounded reorder** — with probability [`LinkFaults::reorder_rate`] a
//!   message is held back by under 2 ms, letting later messages overtake
//!   it by at most that window; a duplicate trails its original by under
//!   the same 2 ms. That is many LAN round trips (~0.12 ms), so a held
//!   frame lands behind its successors, yet under the replicator's 5 ms
//!   ack deadline.
//! * **Partition** — while [`Link::partition`] is engaged, every send is
//!   dropped *and* every in-flight message is discarded at its delivery
//!   instant: a partition kills the wire, not just new traffic.
//!
//! Reliability is the *user's* problem, which is the point: the RapiLog
//! replicator builds its retransmit/ack protocol on top of this pipe and
//! the failover harness then proves the durability guarantee survives it.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rapilog_simcore::chan::{self, Receiver, Sender};
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{SimCtx, SimDuration};

/// Fault model parameters for one link; all rates are per send.
///
/// Like `simdisk`'s `FaultProfile`, the schedule is driven by a dedicated
/// RNG stream seeded from [`seed`](Self::seed), and every send consumes the
/// same number of draws whether or not a fault fires — so one link's fault
/// schedule is a pure function of its seed and the send sequence.
#[derive(Debug, Clone, Default)]
pub struct LinkFaults {
    /// Seed of the link's fault RNG stream.
    pub seed: u64,
    /// Probability that a send is silently dropped.
    pub drop_rate: f64,
    /// Probability that a send is delivered twice.
    pub dup_rate: f64,
    /// Probability that a send is held back (letting later sends overtake).
    pub reorder_rate: f64,
}

impl LinkFaults {
    /// The full chaos menu: drop, duplicate and reorder at the given rates.
    pub fn chaos(seed: u64, drop_rate: f64, dup_rate: f64, reorder_rate: f64) -> LinkFaults {
        LinkFaults {
            seed,
            drop_rate,
            dup_rate,
            reorder_rate,
        }
    }
}

/// Fixed propagation delay per message.
const BASE_LATENCY: SimDuration = SimDuration::from_micros(50);
/// Bound on the uniform jitter added on top of [`BASE_LATENCY`].
const JITTER: SimDuration = SimDuration::from_micros(20);
/// Serialisation cost per payload byte: ~10 Gbit/s.
const NS_PER_BYTE: u64 = 1;
/// Bound on a reordered message's hold-back, hence on how far any message
/// can be displaced from send order, and on a duplicate's extra delay.
const REORDER_SPREAD: SimDuration = SimDuration::from_millis(2);

/// Static description of one unidirectional link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Name used in trace events.
    pub name: &'static str,
    /// The fault model.
    pub faults: LinkFaults,
}

impl LinkSpec {
    /// A healthy datacenter-ish link: 50 µs + under 20 µs, ~10 Gbit/s.
    pub fn lan(name: &'static str) -> LinkSpec {
        LinkSpec {
            name,
            faults: LinkFaults::default(),
        }
    }

    /// Replaces the fault model.
    pub fn with_faults(mut self, faults: LinkFaults) -> LinkSpec {
        self.faults = faults;
        self
    }
}

/// Counters for one link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Messages handed to [`Link::send`].
    pub sent: u64,
    /// Messages actually delivered to the receiver (duplicates included).
    pub delivered: u64,
    /// Messages dropped by the fault model.
    pub dropped: u64,
    /// Extra copies delivered by the duplication fault.
    pub duplicated: u64,
    /// Messages held back by the reorder fault.
    pub reordered: u64,
    /// Messages killed by an engaged partition (at send or in flight).
    pub partition_drops: u64,
    /// Payload bytes handed to [`Link::send`].
    pub bytes_sent: u64,
    /// Time on the wire, summed over delivered messages (latency, jitter,
    /// serialisation and any reorder hold), in nanoseconds.
    pub transit_ns: u64,
}

impl LinkStats {
    /// Mean time a delivered message spent on the wire.
    pub fn mean_transit(&self) -> SimDuration {
        SimDuration::from_nanos(self.transit_ns / self.delivered.max(1))
    }
}

struct LinkInner<T> {
    ctx: SimCtx,
    spec: LinkSpec,
    rng: RefCell<SimRng>,
    tx: Sender<T>,
    rx: Receiver<T>,
    partitioned: Cell<bool>,
    stats: RefCell<LinkStats>,
}

/// A unidirectional, typed, unreliable message link.
///
/// Clone handles freely: the sender side calls [`send`](Link::send), the
/// receiver side awaits [`recv`](Link::recv).
pub struct Link<T> {
    inner: Rc<LinkInner<T>>,
}

impl<T> Clone for Link<T> {
    fn clone(&self) -> Self {
        Link {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: Clone + 'static> Link<T> {
    /// Creates a link with its own fault RNG stream.
    pub fn new(ctx: &SimCtx, spec: LinkSpec) -> Link<T> {
        let (tx, rx) = chan::unbounded();
        Link {
            inner: Rc::new(LinkInner {
                ctx: ctx.clone(),
                rng: RefCell::new(SimRng::seed_from_u64(spec.faults.seed)),
                spec,
                tx,
                rx,
                partitioned: Cell::new(false),
                stats: RefCell::new(LinkStats::default()),
            }),
        }
    }

    /// Engages or heals a partition. While engaged, sends are dropped and
    /// in-flight messages are discarded at their delivery instant.
    pub fn partition(&self, cut: bool) {
        self.inner.partitioned.set(cut);
        let tracer = self.inner.ctx.tracer();
        tracer.instant(
            self.inner.ctx.now(),
            Layer::Net,
            if cut { "net_partition" } else { "net_heal" },
            Payload::Text {
                text: self.inner.spec.name,
            },
        );
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LinkStats {
        *self.inner.stats.borrow()
    }

    /// Submits `msg` (accounted as `bytes` on the wire) for delivery.
    ///
    /// Returns immediately; delivery, if any, happens after the link's
    /// latency model has run its course.
    pub fn send(&self, msg: T, bytes: u64) {
        let inner = &self.inner;
        let spec = &inner.spec;
        // Fixed draw schedule per send — the fault stream is a pure
        // function of the seed and the send index, never of outcomes.
        let (jitter_ns, drop_roll, dup_roll, reorder_roll, dup_extra_ns, hold_ns) = {
            let mut rng = inner.rng.borrow_mut();
            let jit = rng.next_u64() % JITTER.as_nanos();
            let spread = REORDER_SPREAD.as_nanos();
            (
                jit,
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_u64() % spread,
                rng.next_u64() % spread,
            )
        };
        let mut stats = inner.stats.borrow_mut();
        stats.sent += 1;
        stats.bytes_sent += bytes;
        let tracer = inner.ctx.tracer();
        if inner.partitioned.get() {
            stats.partition_drops += 1;
            tracer.instant(
                inner.ctx.now(),
                Layer::Net,
                "net_partition_drop",
                Payload::Bytes { bytes },
            );
            return;
        }
        if drop_roll < spec.faults.drop_rate {
            stats.dropped += 1;
            tracer.instant(
                inner.ctx.now(),
                Layer::Net,
                "net_drop",
                Payload::Bytes { bytes },
            );
            return;
        }
        let mut delay = BASE_LATENCY
            + SimDuration::from_nanos(jitter_ns)
            + SimDuration::from_nanos(bytes.saturating_mul(NS_PER_BYTE));
        if reorder_roll < spec.faults.reorder_rate {
            stats.reordered += 1;
            delay += SimDuration::from_nanos(hold_ns);
            tracer.instant(
                inner.ctx.now(),
                Layer::Net,
                "net_reorder",
                Payload::Bytes { bytes },
            );
        }
        tracer.instant(
            inner.ctx.now(),
            Layer::Net,
            "net_send",
            Payload::Bytes { bytes },
        );
        let duplicated = dup_roll < spec.faults.dup_rate;
        if duplicated {
            stats.duplicated += 1;
            tracer.instant(
                inner.ctx.now(),
                Layer::Net,
                "net_dup",
                Payload::Bytes { bytes },
            );
            self.schedule(
                msg.clone(),
                delay + SimDuration::from_nanos(dup_extra_ns.max(1)),
            );
        }
        self.schedule(msg, delay);
    }

    /// Spawns the delivery task for one copy.
    fn schedule(&self, msg: T, delay: SimDuration) {
        let inner = Rc::clone(&self.inner);
        self.inner.ctx.spawn(async move {
            inner.ctx.sleep(delay).await;
            if inner.partitioned.get() {
                // The partition engaged while this copy was in flight.
                inner.stats.borrow_mut().partition_drops += 1;
                return;
            }
            let mut stats = inner.stats.borrow_mut();
            stats.delivered += 1;
            stats.transit_ns += delay.as_nanos();
            drop(stats);
            // Unbounded channel: try_send cannot fail while the link lives.
            let _ = inner.tx.try_send(msg);
        });
    }

    /// Receives the next delivered message; pends while the wire is quiet.
    pub async fn recv(&self) -> Option<T> {
        self.inner.rx.recv().await
    }

    /// Takes a delivered message if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.rx.try_recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::{Sim, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sends `n` messages `gap` apart and collects what arrives, stamped.
    fn run_and_collect(
        seed: u64,
        spec: LinkSpec,
        n: u64,
        gap: SimDuration,
    ) -> (Vec<(u64, u64)>, LinkStats) {
        let mut sim = Sim::new(seed);
        let ctx = sim.ctx();
        let link: Link<u64> = Link::new(&ctx, spec);
        let got: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let tx = link.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            for i in 0..n {
                tx.send(i, 128);
                c2.sleep(gap).await;
            }
        });
        let rx = link.clone();
        let g2 = Rc::clone(&got);
        let c3 = ctx.clone();
        sim.spawn(async move {
            while let Some(v) = rx.recv().await {
                g2.borrow_mut().push((v, c3.now().as_nanos()));
            }
        });
        sim.run_until(SimTime::from_secs(1));
        let out = got.borrow().clone();
        (out, link.stats())
    }

    #[test]
    fn healthy_link_delivers_in_order_with_deterministic_latency() {
        // Sends further apart than the jitter, so delivery preserves send
        // order.
        let gap = JITTER + SimDuration::from_micros(5);
        let spec = LinkSpec::lan("t");
        let (a, sa) = run_and_collect(7, spec.clone(), 50, gap);
        let (b, _) = run_and_collect(7, spec, 50, gap);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b, "same seed, same packet schedule, bit for bit");
        assert_eq!(sa.delivered, 50);
        assert_eq!(sa.dropped + sa.duplicated + sa.partition_drops, 0);
        let order: Vec<u64> = a.iter().map(|(v, _)| *v).collect();
        assert_eq!(
            order,
            (0..50).collect::<Vec<_>>(),
            "no reorder fault, no reorder"
        );
        // Message i leaves at i x gap, so the arrival stamps give the
        // transit times the counter must have summed.
        let transit: u64 = a.iter().map(|&(i, at)| at - i * gap.as_nanos()).sum();
        assert_eq!(sa.transit_ns, transit);
        let mean = sa.mean_transit().as_nanos();
        assert!((50_128..70_128).contains(&mean), "50 us + <20 us + 128 B");
    }

    #[test]
    fn drop_rate_loses_messages_and_counts_them() {
        let spec = LinkSpec::lan("t").with_faults(LinkFaults::chaos(3, 0.3, 0.0, 0.0));
        let (got, stats) = run_and_collect(9, spec, 200, SimDuration::from_micros(10));
        assert!(
            stats.dropped > 20,
            "30% of 200 sends should drop, saw {}",
            stats.dropped
        );
        assert_eq!(got.len() as u64, stats.delivered);
        assert_eq!(stats.delivered + stats.dropped, 200);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let spec = LinkSpec::lan("t").with_faults(LinkFaults::chaos(5, 0.0, 0.25, 0.0));
        let (got, stats) = run_and_collect(11, spec, 100, SimDuration::from_micros(10));
        assert!(stats.duplicated > 10);
        assert_eq!(got.len() as u64, 100 + stats.duplicated);
    }

    #[test]
    fn reorder_is_bounded_by_the_spread() {
        let faults = LinkFaults {
            seed: 17,
            reorder_rate: 0.5,
            ..LinkFaults::default()
        };
        let spec = LinkSpec::lan("t").with_faults(faults);
        // Sends a tenth of the spread apart.
        let gap = REORDER_SPREAD / 10;
        let (got, stats) = run_and_collect(13, spec, 200, gap);
        assert_eq!(got.len(), 200, "reorder never loses");
        assert!(stats.reordered > 50);
        let order: Vec<u64> = got.iter().map(|(v, _)| *v).collect();
        assert_ne!(
            order,
            (0..200).collect::<Vec<_>>(),
            "some overtaking happened"
        );
        // Hold-back (< 2 ms) plus jitter (< 20 µs) stay under 10.1 gaps, so
        // no message can be overtaken by more than 10 later ones.
        for (pos, (v, _)) in got.iter().enumerate() {
            let displacement = (pos as i64 - *v as i64).unsigned_abs();
            assert!(displacement <= 10, "msg {v} displaced by {displacement}");
        }
    }

    #[test]
    fn partition_kills_sends_and_in_flight_messages() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let link: Link<u64> = Link::new(&ctx, LinkSpec::lan("t"));
        let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let tx = link.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            tx.send(0, 64); // delivered: partition engages later
            c2.sleep(SimDuration::from_millis(1)).await;
            tx.send(1, 64); // in flight when the partition engages
            c2.sleep(SimDuration::from_micros(10)).await;
            tx.partition(true);
            tx.send(2, 64); // dropped at send
            c2.sleep(SimDuration::from_millis(1)).await;
            tx.partition(false);
            tx.send(3, 64); // healed: delivered
        });
        let rx = link.clone();
        let g2 = Rc::clone(&got);
        sim.spawn(async move {
            while let Some(v) = rx.recv().await {
                g2.borrow_mut().push(v);
            }
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*got.borrow(), vec![0, 3]);
        let stats = link.stats();
        assert_eq!(stats.partition_drops, 2, "one at send, one in flight");
        assert_eq!(stats.delivered, 2);
    }
}
