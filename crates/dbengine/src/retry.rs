//! OS-block-layer style transient-error retry.
//!
//! Real kernels retry transient command failures a bounded number of times
//! before surfacing them (the Linux SCSI disk driver's retry budget is the
//! classic example). [`RetryingDevice`] models exactly that layer: it wraps
//! the device the engine was handed and re-issues commands that failed with
//! [`IoError::Transient`], after a short pause, up to a configured budget.
//!
//! Everything else passes through untouched — in particular
//! [`IoError::MediaError`] is *not* retryable at this layer (the sector is
//! gone; only a writer that still holds the data, like the RapiLog drain,
//! can remap and rewrite it), so it surfaces to the caller as a typed
//! [`DbError::Io`](crate::error::DbError::Io) instead of a panic.

use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, Geometry, IoError, IoReq, IoResult, LocalBoxFuture, ReqToken};

/// The OS block layer's retry budget for transient device errors.
const IO_RETRIES: u32 = 5;
/// Pause between transient-error retries.
const IO_RETRY_DELAY: SimDuration = SimDuration::from_millis(2);

/// `dev` behind the OS block layer the engine runs on, as both of the
/// devices it is handed are: [`IO_RETRIES`] retries of a transient error,
/// [`IO_RETRY_DELAY`] apart.
pub(crate) fn os_block_layer(ctx: &SimCtx, dev: Rc<dyn BlockDevice>) -> Rc<dyn BlockDevice> {
    Rc::new(RetryingDevice::new(ctx, dev, IO_RETRIES, IO_RETRY_DELAY))
}

/// A [`BlockDevice`] adapter that retries transient failures.
#[derive(Clone)]
pub struct RetryingDevice {
    ctx: SimCtx,
    inner: Rc<dyn BlockDevice>,
    retries: u32,
    delay: SimDuration,
}

impl RetryingDevice {
    /// Wraps `inner`, retrying each command up to `retries` extra times
    /// with `delay` between attempts.
    pub fn new(
        ctx: &SimCtx,
        inner: Rc<dyn BlockDevice>,
        retries: u32,
        delay: SimDuration,
    ) -> RetryingDevice {
        RetryingDevice {
            ctx: ctx.clone(),
            inner,
            retries,
            delay,
        }
    }
}

impl BlockDevice for RetryingDevice {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn exec(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        Box::pin(async move {
            let mut attempt = 0u32;
            loop {
                // The inner device consumes its request, so each try is
                // given a copy: segments are refcounted views (the payload
                // is never re-copied), the list around them one small Vec.
                match self.inner.exec(req.clone()).await {
                    Err(IoError::Transient) if attempt < self.retries => {
                        attempt += 1;
                        if !self.delay.is_zero() {
                            self.ctx.sleep(self.delay).await;
                        }
                    }
                    other => return other,
                }
            }
        })
    }

    fn submit(&self, req: IoReq) -> ReqToken {
        ReqToken::spawn(&self.ctx, self.clone(), req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::{Sim, SimTime};
    use rapilog_simdisk::{specs, Disk, SECTOR_SIZE};
    use std::cell::Cell;

    #[test]
    fn sick_interval_is_ridden_out_by_the_retry_budget() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 20));
        let dev = RetryingDevice::new(&ctx, Rc::new(disk.clone()), 8, SimDuration::from_millis(2));
        let ok = Rc::new(Cell::new(false));
        let o2 = Rc::clone(&ok);
        let d2 = disk.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            d2.set_sick(true);
            let h = c2.spawn({
                let d3 = d2.clone();
                let c3 = c2.clone();
                async move {
                    c3.sleep(SimDuration::from_millis(5)).await;
                    d3.set_sick(false);
                }
            });
            dev.write(3, &vec![0xEE; SECTOR_SIZE], true).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            dev.read(3, &mut buf).await.unwrap();
            assert_eq!(buf, vec![0xEE; SECTOR_SIZE]);
            let _ = h.await;
            o2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(ok.get());
        assert!(disk.stats().transient_errors > 0, "faults were retried");
    }

    #[test]
    fn exhausted_budget_surfaces_the_transient_error() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 20));
        let dev = RetryingDevice::new(&ctx, Rc::new(disk.clone()), 2, SimDuration::ZERO);
        let seen = Rc::new(Cell::new(None));
        let s2 = Rc::clone(&seen);
        let d2 = disk.clone();
        sim.spawn(async move {
            d2.set_sick(true);
            s2.set(Some(dev.flush().await));
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(seen.get(), Some(Err(IoError::Transient)));
        assert_eq!(disk.stats().transient_errors, 3, "1 try + 2 retries");
    }

    #[test]
    fn queued_submissions_are_retried_too() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 20));
        let dev = RetryingDevice::new(&ctx, Rc::new(disk.clone()), 8, SimDuration::from_millis(2));
        let ok = Rc::new(Cell::new(false));
        let o2 = Rc::clone(&ok);
        let d2 = disk.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            d2.set_sick(true);
            c2.spawn({
                let d3 = d2.clone();
                let c3 = c2.clone();
                async move {
                    c3.sleep(SimDuration::from_millis(5)).await;
                    d3.set_sick(false);
                }
            });
            let t = dev.submit(IoReq::Write {
                sector: 3,
                segments: vec![SectorBuf::copy_from(&[0xEE; SECTOR_SIZE])],
                fua: true,
            });
            assert_eq!(BlockDevice::wait(&dev, t).await, Ok(None));
            let r = dev.submit(IoReq::Read {
                sector: 3,
                sectors: 1,
            });
            let data = BlockDevice::wait(&dev, r).await.unwrap().unwrap();
            assert_eq!(data.as_slice(), &[0xEE; SECTOR_SIZE]);
            o2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(ok.get());
        assert!(disk.stats().transient_errors > 0, "faults were retried");
    }

    #[test]
    fn media_errors_are_not_retried_here() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 20));
        disk.mark_bad(7);
        let dev = RetryingDevice::new(&ctx, Rc::new(disk.clone()), 8, SimDuration::ZERO);
        let seen = Rc::new(Cell::new(None));
        let s2 = Rc::clone(&seen);
        sim.spawn(async move {
            let mut buf = vec![0u8; SECTOR_SIZE];
            s2.set(Some(dev.read(7, &mut buf).await));
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(seen.get(), Some(Err(IoError::MediaError { sector: 7 })));
        assert_eq!(disk.stats().media_errors, 1, "exactly one attempt");
    }
}
