//! Guest-VM lifecycle: boot, crash, reboot.
//!
//! A [`GuestVm`] is the untrusted compartment that hosts the database and
//! its (modelled) operating system. Crashing it destroys every task of the
//! current generation at one instant — the moral equivalent of a kernel
//! panic — and a subsequent [`GuestVm::boot`] starts a fresh generation in
//! a brand-new cell. Anything the old generation had in "memory" (its task
//! state) is unreachable afterwards, exactly like RAM contents after a
//! reboot; whatever it wanted to survive must have reached a device.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use rapilog_simcore::JoinHandle;

use crate::cell::{Cell, Hypervisor, Trust};

struct VmState {
    cell: Option<Cell>,
    generation: u64,
}

/// Handle to the guest compartment.
#[derive(Clone)]
pub struct GuestVm {
    hv: Hypervisor,
    name: String,
    state: Rc<RefCell<VmState>>,
}

impl GuestVm {
    /// Creates the VM handle; the guest is initially not booted.
    pub fn new(hv: &Hypervisor, name: &str) -> GuestVm {
        GuestVm {
            hv: hv.clone(),
            name: name.to_string(),
            state: Rc::new(RefCell::new(VmState {
                cell: None,
                generation: 0,
            })),
        }
    }

    /// Boots a new generation. Returns the generation number.
    ///
    /// # Panics
    ///
    /// Panics if the guest is already running — [`crash`](Self::crash) it
    /// first.
    pub fn boot(&self) -> u64 {
        let mut st = self.state.borrow_mut();
        assert!(
            st.cell.is_none(),
            "guest '{}' is already running",
            self.name
        );
        st.generation += 1;
        let cell_name = format!("{}#{}", self.name, st.generation);
        st.cell = Some(self.hv.create_cell(&cell_name, Trust::Untrusted));
        st.generation
    }

    /// Spawns a task in the current generation.
    ///
    /// # Panics
    ///
    /// Panics if the guest is not booted.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let st = self.state.borrow();
        st.cell
            .as_ref()
            .unwrap_or_else(|| panic!("guest '{}' is not booted", self.name))
            .spawn(fut)
    }

    /// Crashes the current generation (kernel panic). Returns the number of
    /// tasks destroyed; 0 if the guest was not running.
    pub fn crash(&self) -> usize {
        let cell = self.state.borrow_mut().cell.take();
        match cell {
            Some(cell) => cell.crash(),
            None => 0,
        }
    }

    /// True if a generation is currently running.
    pub fn is_up(&self) -> bool {
        self.state.borrow().cell.is_some()
    }

    /// The current generation's cancellation domain, if booted. Database
    /// instances spawn their background tasks here so they die with the
    /// guest.
    pub fn domain(&self) -> Option<rapilog_simcore::DomainId> {
        self.state.borrow().cell.as_ref().map(|c| c.domain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::{Sim, SimDuration};
    use std::cell::Cell as StdCell;

    #[test]
    fn boot_crash_reboot_generations() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let vm = GuestVm::new(&hv, "db-vm");
        assert!(!vm.is_up());
        let progress = Rc::new(StdCell::new(0u32));
        let vm2 = vm.clone();
        let p2 = Rc::clone(&progress);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                let gen1 = vm2.boot();
                assert_eq!(gen1, 1);
                let p = Rc::clone(&p2);
                vm2.spawn({
                    let ctx = ctx.clone();
                    async move {
                        loop {
                            ctx.sleep(SimDuration::from_millis(1)).await;
                            p.set(p.get() + 1);
                        }
                    }
                });
                ctx.sleep(SimDuration::from_millis(5)).await;
                let before = p2.get();
                assert!(before >= 4);
                assert_eq!(vm2.crash(), 1);
                assert!(!vm2.is_up());
                ctx.sleep(SimDuration::from_millis(5)).await;
                assert_eq!(p2.get(), before, "no progress after the crash");
                let gen2 = vm2.boot();
                assert_eq!(gen2, 2);
            }
        });
        sim.run();
        assert!(vm.is_up());
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn double_boot_panics() {
        let hv_sim = {
            let sim = Sim::new(0);
            let ctx = sim.ctx();
            (sim, Hypervisor::new(&ctx))
        };
        let (_sim, hv) = hv_sim;
        let vm = GuestVm::new(&hv, "db-vm");
        vm.boot();
        vm.boot();
    }

    #[test]
    fn crash_when_down_is_a_noop() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let vm = GuestVm::new(&hv, "db-vm");
        assert_eq!(vm.crash(), 0);
    }
}
