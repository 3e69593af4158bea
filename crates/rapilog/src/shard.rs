//! Tenant-sharded buffering: many guest cells, one dependable drain.
//!
//! A multi-tenant RapiLog instance splits its memory cap evenly into one
//! [`DependableBuffer`] shard per tenant, rounded down to sector multiples. Each shard keeps its own byte accounting, backpressure
//! threshold and sequence space, so one noisy tenant filling its share
//! blocks only its own writers. All shards share one ledger: its `avail`
//! notify wakes the one drain loop (`drain::start`), and with a supply
//! every admission keeps the emergency drain of what *all* shards hold
//! inside the residual window (`rapilog_simpower::budget`), since that
//! drain empties them through the one disk: a tenant whose writes scatter
//! can fill the window, and then every tenant waits. A single-tenant
//! instance is the one-shard case.

use std::rc::Rc;

use rapilog_simdisk::SECTOR_SIZE;

use crate::buffer::{BufferStats, DependableBuffer, Ledger, Rule};

/// Identity of one tenant cell sharing a RapiLog instance.
///
/// A tenant's capability to its shard is the [`RapiLogDevice`] that
/// [`RapiLog::device_for`] hands its cell: the device writes into that
/// shard and no other, so there is no tenant field in a request to trust.
///
/// [`RapiLogDevice`]: crate::RapiLogDevice
/// [`RapiLog::device_for`]: crate::RapiLog::device_for
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl TenantId {
    /// The implicit tenant of a single-tenant instance.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One tenant's share of a multi-tenant instance: every tenant gets an
/// equal share of the capacity and the same drain quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant's identity.
    pub id: TenantId,
}

impl TenantSpec {
    /// A tenant of the instance.
    pub fn new(id: u64) -> TenantSpec {
        TenantSpec { id: TenantId(id) }
    }
}

/// Splits `total` bytes evenly across `tenants` shares, each rounded down
/// to a sector multiple: the share every shard gets. The shares never sum
/// past `total`, so sizing the total from the residual-energy window
/// bounds the aggregate too.
pub(crate) fn split_capacity(total: u64, tenants: usize) -> u64 {
    let share = total / tenants as u64;
    share - share % SECTOR_SIZE as u64
}

/// One shard: a tenant's identity and private buffer.
pub(crate) struct Shard {
    pub(crate) id: TenantId,
    pub(crate) buf: DependableBuffer,
}

/// `TenantId`-keyed collection of per-tenant buffer shards. Clones share
/// the shards (same `Rc`d state inside each [`DependableBuffer`]).
#[derive(Clone)]
pub struct ShardedBuffer {
    shards: Rc<Vec<Shard>>,
    ledger: Rc<Ledger>,
}

impl ShardedBuffer {
    /// Splits `capacity` evenly across `specs` and builds one shard per
    /// tenant, all sharing one ledger that admits by `rule`.
    ///
    /// # Panics
    ///
    /// Panics on an empty spec list or duplicate tenant ids.
    pub(crate) fn new(specs: &[TenantSpec], capacity: u64, rule: Option<Rule>) -> ShardedBuffer {
        assert!(!specs.is_empty(), "at least one tenant required");
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.id, b.id, "duplicate tenant id {}", a.id);
            }
        }
        let cap = split_capacity(capacity, specs.len());
        let ledger = Rc::new(Ledger {
            rule,
            ..Ledger::default()
        });
        let shards = specs
            .iter()
            .map(|spec| Shard {
                id: spec.id,
                buf: DependableBuffer::sharing(cap, &ledger),
            })
            .collect();
        ShardedBuffer {
            shards: Rc::new(shards),
            ledger,
        }
    }

    /// All shards, in construction order.
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Sum of shard occupancies — the bytes the emergency drain must land.
    pub fn total_occupancy(&self) -> u64 {
        self.ledger.bytes.get()
    }

    /// Every shard's counters, summed. Each shard's `peak_occupancy` is the
    /// highest it ever held, but shards peak at different instants, so with
    /// more than one shard the sum is an upper bound on the instance's
    /// peak, not the highest occupancy it ever had.
    pub(crate) fn stats(&self) -> BufferStats {
        let mut agg = BufferStats::default();
        for s in self.shards.iter() {
            let st = s.buf.stats();
            agg.accepted_writes += st.accepted_writes;
            agg.accepted_bytes += st.accepted_bytes;
            agg.drained_bytes += st.drained_bytes;
            agg.peak_occupancy += st.peak_occupancy;
            agg.backpressure_events += st.backpressure_events;
            agg.kept_bytes += st.kept_bytes;
            agg.read_memory_bytes += st.read_memory_bytes;
            agg.read_disk_bytes += st.read_disk_bytes;
        }
        agg
    }

    /// Freezes every shard (power-fail warning / fatal drain error): they
    /// share one flag.
    pub fn freeze_all(&self) {
        self.shards[0].buf.freeze();
    }

    /// True once [`freeze_all`](Self::freeze_all) ran.
    pub fn is_frozen(&self) -> bool {
        self.ledger.frozen.get()
    }

    /// Waits until at least one shard has a queued extent.
    pub async fn wait_any_avail(&self) {
        loop {
            if self.shards.iter().any(|s| s.buf.has_queued()) {
                return;
            }
            self.ledger.avail.notified().await;
        }
    }

    /// Waits until every shard is fully drained (nothing queued, nothing
    /// popped-but-uncommitted).
    pub async fn all_drained(&self) {
        for s in self.shards.iter() {
            s.buf.drained().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::bytes::SectorBuf;
    use rapilog_simcore::{Sim, SimDuration};
    use std::cell::Cell as StdCell;

    fn sector_data(tag: u8, sectors: usize) -> SectorBuf {
        SectorBuf::from_vec(vec![tag; sectors * SECTOR_SIZE])
    }

    #[test]
    fn split_capacity_is_even_sector_aligned_and_bounded() {
        assert_eq!(
            split_capacity(1 << 20, 1),
            1 << 20,
            "one tenant holds it all"
        );
        assert_eq!(split_capacity(1 << 20, 2), 512 << 10);
        // A third of 1 MiB is 349 525.3 B: rounded down to 682 sectors.
        let share = split_capacity(1 << 20, 3);
        assert_eq!(share, 682 * SECTOR_SIZE as u64);
        assert!(3 * share <= 1 << 20);
        // Less than a sector each rounds down to nothing.
        assert_eq!(split_capacity(3 * SECTOR_SIZE as u64 - 1, 3), 0);
    }

    /// Every shard of an instance gets the same share.
    #[test]
    fn shards_split_the_cap_evenly() {
        let specs = [TenantSpec::new(0), TenantSpec::new(1), TenantSpec::new(2)];
        let sharded = ShardedBuffer::new(&specs, 1 << 20, None);
        let caps: Vec<u64> = sharded.shards().iter().map(|s| s.buf.capacity()).collect();
        assert_eq!(caps, [682 * SECTOR_SIZE as u64; 3]);
    }

    #[test]
    fn shards_isolate_backpressure_per_tenant() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let specs = [TenantSpec::new(0), TenantSpec::new(1)];
        // Each tenant gets exactly one sector of capacity.
        let sharded = ShardedBuffer::new(&specs, 2 * SECTOR_SIZE as u64, None);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let s2 = sharded.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                let t0 = s2.shards()[0].buf.clone();
                let t1 = s2.shards()[1].buf.clone();
                t0.push(0, sector_data(1, 1)).await.unwrap();
                // Tenant 0 is now full; tenant 1 must admit immediately.
                let before = ctx.now();
                t1.push(8, sector_data(2, 1)).await.unwrap();
                assert_eq!(ctx.now(), before, "no cross-tenant backpressure");
                assert_eq!(s2.total_occupancy(), 2 * SECTOR_SIZE as u64);
                d2.set(true);
            }
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        assert!(done.get());
    }

    /// The rule counts what every shard holds: a tenant whose admission
    /// would put the instance's emergency drain past the window waits,
    /// however little its own shard holds, and another tenant's landing
    /// wakes it. Fails with a ledger or a `space` notify per shard.
    #[test]
    fn one_window_for_all_shards_and_any_release_wakes_a_writer() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        // 198 ms × 0.9 of `atx_psu` is ten 17.3 ms positionings of
        // `hdd_7200` and some transfer, not eleven: nine regions and the
        // operation in flight at the warning.
        let psu = rapilog_simpower::supplies::atx_psu();
        let rule = (psu, rapilog_simdisk::specs::hdd_7200(1 << 30));
        let specs = [TenantSpec::new(0), TenantSpec::new(1)];
        let sharded = ShardedBuffer::new(&specs, 2 << 20, Some(rule));
        let (a, b) = (
            sharded.shards()[0].buf.clone(),
            sharded.shards()[1].buf.clone(),
        );
        let ledger = {
            let (a, b) = (a.clone(), b.clone());
            move || {
                assert_eq!(a.regions(), b.regions(), "one ledger");
                assert_eq!(a.regions().0, a.occupancy() + b.occupancy());
                a.regions()
            }
        };
        let admitted = Rc::new(StdCell::new(None));
        let seen = Rc::clone(&admitted);
        sim.spawn(async move {
            let one = SECTOR_SIZE as u64;
            let first = a.push(0, sector_data(1, 1)).await.unwrap();
            for region in 1..8 {
                a.push(region * 100, sector_data(2, 1)).await.unwrap();
            }
            b.push(1000, sector_data(3, 1)).await.unwrap();
            assert_eq!(ledger(), (9 * one, 9));
            let (b2, c2) = (b.clone(), ctx.clone());
            ctx.spawn(async move {
                // A tenth region would not fit: B waits for A.
                b2.push(2000, sector_data(4, 1)).await.unwrap();
                seen.set(Some(c2.now()));
            });
            ctx.sleep(SimDuration::from_millis(5)).await;
            assert_eq!(ledger(), (9 * one, 9), "B's own shard holds one region");
            // Appending to a region it holds adds none: B gets in.
            b.push(1001, sector_data(5, 1)).await.unwrap();
            assert_eq!(ledger(), (10 * one, 9));
            a.complete_seqs(first, first);
            ctx.sleep(SimDuration::from_millis(1)).await;
            assert_eq!(ledger(), (10 * one, 9));
        });
        sim.run();
        assert_eq!(
            admitted.get(),
            Some(rapilog_simcore::SimTime::from_millis(5))
        );
    }

    #[test]
    fn wait_any_avail_wakes_on_any_shard() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let sharded = ShardedBuffer::new(&[TenantSpec::new(0), TenantSpec::new(1)], 1 << 20, None);
        let woke_at = Rc::new(StdCell::new(0u64));
        let s2 = sharded.clone();
        let w2 = Rc::clone(&woke_at);
        sim.spawn(async move {
            s2.wait_any_avail().await;
            w2.set(1);
        });
        let s3 = sharded.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(2)).await;
                // A push to the *second* shard wakes the shared waiter.
                s3.shards()[1].buf.push(0, sector_data(1, 1)).await.unwrap();
            }
        });
        sim.run();
        assert_eq!(woke_at.get(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate tenant id")]
    fn duplicate_tenant_ids_rejected() {
        let _ = ShardedBuffer::new(&[TenantSpec::new(3), TenantSpec::new(3)], 1 << 20, None);
    }
}
