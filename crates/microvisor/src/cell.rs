//! Cells: isolated components with a trust level.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use rapilog_simcore::{DomainId, JoinHandle, SimCtx};

/// Whether a cell is inside the verified trusted computing base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trust {
    /// Covered by the (modelled) verification: cannot crash. Attempting to
    /// crash a trusted cell panics the simulation — such an injection is
    /// outside the threat model the paper's proof establishes.
    Trusted,
    /// Unverified guest code (Linux, the DBMS): crashable at any instant.
    Untrusted,
}

struct CellInfo {
    name: String,
    trust: Trust,
    crashed: bool,
}

struct HvInner {
    ctx: SimCtx,
    cells: RefCell<Vec<CellInfo>>,
}

/// The hypervisor: factory and registry for [`Cell`]s.
#[derive(Clone)]
pub struct Hypervisor {
    inner: Rc<HvInner>,
}

impl Hypervisor {
    /// Creates a hypervisor bound to the simulation.
    pub fn new(ctx: &SimCtx) -> Self {
        Hypervisor {
            inner: Rc::new(HvInner {
                ctx: ctx.clone(),
                cells: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Creates a cell. Trusted cells host drivers and the RapiLog buffer;
    /// untrusted cells host guest code.
    pub fn create_cell(&self, name: &str, trust: Trust) -> Cell {
        let id = {
            let mut cells = self.inner.cells.borrow_mut();
            cells.push(CellInfo {
                name: name.to_string(),
                trust,
                crashed: false,
            });
            cells.len() - 1
        };
        Cell {
            hv: Rc::clone(&self.inner),
            id,
            domain: self.inner.ctx.create_domain(),
            trust,
            name: name.to_string(),
        }
    }

    /// Audit: asserts that every trusted cell is still alive. The fault
    /// harness calls this after each injection campaign (invariant I6).
    pub fn assert_trusted_intact(&self) {
        for c in self.inner.cells.borrow().iter() {
            assert!(
                !(c.trust == Trust::Trusted && c.crashed),
                "verified cell '{}' is marked crashed — isolation violated",
                c.name
            );
        }
    }
}

/// An isolated component. Tasks spawned through a cell die together when
/// the cell is crashed.
pub struct Cell {
    hv: Rc<HvInner>,
    id: usize,
    domain: DomainId,
    trust: Trust,
    name: String,
}

impl Cell {
    /// The cell's cancellation domain.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// The cell's trust level.
    pub fn trust(&self) -> Trust {
        self.trust
    }

    /// Spawns a task inside the cell.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.hv.ctx.spawn_in(self.domain, fut)
    }

    /// Simulation context (for sleeping, time, RNG inside cell tasks).
    pub fn ctx(&self) -> SimCtx {
        self.hv.ctx.clone()
    }

    /// Crashes the cell: every task in it is destroyed now. Returns the
    /// number of tasks destroyed.
    ///
    /// # Panics
    ///
    /// Panics if the cell is trusted — the verification argument says this
    /// cannot happen, so an experiment that tries has left the model.
    pub fn crash(&self) -> usize {
        assert!(
            self.trust == Trust::Untrusted,
            "attempted to crash trusted cell '{}': verified components do not crash",
            self.name
        );
        self.hv.cells.borrow_mut()[self.id].crashed = true;
        self.hv.ctx.kill_domain(self.domain)
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cell({} {:?} {:?})", self.name, self.trust, self.domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::{Sim, SimDuration};
    use std::cell::Cell as StdCell;

    #[test]
    fn crashing_untrusted_cell_kills_its_tasks_only() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let guest = hv.create_cell("guest", Trust::Untrusted);
        let driver = hv.create_cell("driver", Trust::Trusted);
        let guest_ran = Rc::new(StdCell::new(false));
        let driver_ran = Rc::new(StdCell::new(false));
        guest.spawn({
            let ctx = ctx.clone();
            let flag = Rc::clone(&guest_ran);
            async move {
                ctx.sleep(SimDuration::from_millis(10)).await;
                flag.set(true);
            }
        });
        driver.spawn({
            let ctx = ctx.clone();
            let flag = Rc::clone(&driver_ran);
            async move {
                ctx.sleep(SimDuration::from_millis(10)).await;
                flag.set(true);
            }
        });
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                assert_eq!(guest.crash(), 1);
            }
        });
        sim.run();
        assert!(!guest_ran.get(), "guest task died");
        assert!(driver_ran.get(), "trusted task survived");
        hv.assert_trusted_intact();
    }

    #[test]
    #[should_panic(expected = "verified components do not crash")]
    fn crashing_trusted_cell_panics() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog-buffer", Trust::Trusted);
        sim.spawn(async move {
            cell.crash();
        });
        sim.run();
    }
}
