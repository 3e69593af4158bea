//! The power-supply runtime model.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rapilog_simcore::sync::Event;
use rapilog_simcore::{SimCtx, SimDuration, SimTime};

/// Static description of a supply's behaviour after mains loss.
#[derive(Debug, Clone)]
pub struct SupplySpec {
    /// Human-readable name (appears in Table 1).
    pub name: String,
    /// Usable stored energy after mains loss, in joules (PSU bulk
    /// capacitors, or the battery budget allocated to the drain for a UPS).
    pub residual_joules: f64,
    /// System power draw during the emergency drain, in watts. The drain
    /// runs with CPUs throttled and only the log disk active, so this is
    /// well below normal load.
    pub drain_draw_watts: f64,
    /// Delay from mains loss to the power-fail signal reaching software.
    pub warning_latency: SimDuration,
}

impl SupplySpec {
    /// The residual window: how long the machine keeps running after mains
    /// loss, before output voltage collapses.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.residual_joules / self.drain_draw_watts)
    }

    /// The window usable by software: the part of the residual window that
    /// remains after the warning has been delivered.
    pub fn usable_window(&self) -> SimDuration {
        self.window().saturating_sub(self.warning_latency)
    }
}

/// Catalogue of supply models (Table 1's rows). The paper's measurements on
/// 2013-era ATX supplies found hold-up times from tens to hundreds of
/// milliseconds depending on load; these presets span that range.
pub mod supplies {
    use super::*;

    /// Commodity ATX PSU at moderate drain load: ~30 J usable, 150 W draw
    /// → 200 ms window.
    pub fn atx_psu() -> SupplySpec {
        SupplySpec {
            name: "atx-psu".to_string(),
            residual_joules: 30.0,
            drain_draw_watts: 150.0,
            warning_latency: SimDuration::from_millis(2),
        }
    }

    /// The same PSU with the machine under heavy load during the drain:
    /// ~70 ms window. The conservative sizing case.
    pub fn atx_psu_loaded() -> SupplySpec {
        SupplySpec {
            name: "atx-psu-loaded".to_string(),
            residual_joules: 21.0,
            drain_draw_watts: 300.0,
            warning_latency: SimDuration::from_millis(2),
        }
    }

    /// Server PSU with larger hold-up capacitors: ~400 ms.
    pub fn server_psu() -> SupplySpec {
        SupplySpec {
            name: "server-psu".to_string(),
            residual_joules: 80.0,
            drain_draw_watts: 200.0,
            warning_latency: SimDuration::from_millis(2),
        }
    }

    /// Small line-interactive UPS: a 10 s drain budget (the battery holds
    /// far more; RapiLog only needs a bounded, guaranteed slice).
    pub fn small_ups() -> SupplySpec {
        SupplySpec {
            name: "small-ups".to_string(),
            residual_joules: 1500.0,
            drain_draw_watts: 150.0,
            warning_latency: SimDuration::from_millis(50),
        }
    }
}

/// Where the supply currently is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Mains present; unlimited energy.
    Mains,
    /// Mains lost; running on residual energy until the stored deadline.
    Residual {
        /// Instant at which output collapses.
        deadline: SimTime,
    },
    /// Output has collapsed. Devices downstream have lost power.
    Dead,
}

struct Inner {
    ctx: SimCtx,
    spec: SupplySpec,
    state: Cell<PowerState>,
    /// Fires when the power-fail warning reaches software.
    warning: RefCell<Event>,
    /// Fires when output collapses.
    death: RefCell<Event>,
    /// Callbacks executed at death (cut disks, kill domains).
    on_death: RefCell<Vec<Box<dyn Fn()>>>,
    episode: Cell<u64>,
}

/// The runtime power supply feeding one simulated machine.
#[derive(Clone)]
pub struct PowerSupply {
    inner: Rc<Inner>,
}

impl PowerSupply {
    /// Creates a supply on mains power.
    pub fn new(ctx: &SimCtx, spec: SupplySpec) -> Self {
        PowerSupply {
            inner: Rc::new(Inner {
                ctx: ctx.clone(),
                spec,
                state: Cell::new(PowerState::Mains),
                warning: RefCell::new(Event::new()),
                death: RefCell::new(Event::new()),
                on_death: RefCell::new(Vec::new()),
                episode: Cell::new(0),
            }),
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &SupplySpec {
        &self.inner.spec
    }

    /// Registers a callback to run at the instant output collapses.
    pub fn on_death(&self, f: impl Fn() + 'static) {
        self.inner.on_death.borrow_mut().push(Box::new(f));
    }

    /// An event that fires when the power-fail warning is delivered
    /// (`warning_latency` after [`cut_mains`](Self::cut_mains)). Take a
    /// fresh handle after every [`restore`](Self::restore).
    pub fn warning_event(&self) -> Event {
        self.inner.warning.borrow().clone()
    }

    /// An event that fires when output collapses.
    pub fn death_event(&self) -> Event {
        self.inner.death.borrow().clone()
    }

    /// Time remaining before output collapse; `None` on mains,
    /// zero when already dead.
    pub fn time_until_death(&self) -> Option<SimDuration> {
        match self.inner.state.get() {
            PowerState::Mains => None,
            PowerState::Residual { deadline } => {
                Some(deadline.saturating_duration_since(self.inner.ctx.now()))
            }
            PowerState::Dead => Some(SimDuration::ZERO),
        }
    }

    /// Cuts mains power now. The warning event fires after
    /// `warning_latency`; death callbacks and the death event fire when the
    /// residual window expires. Idempotent while not on mains.
    pub fn cut_mains(&self) {
        if !matches!(self.inner.state.get(), PowerState::Mains) {
            return;
        }
        let window = self.inner.spec.window();
        let deadline = self.inner.ctx.now() + window;
        self.inner.state.set(PowerState::Residual { deadline });
        let episode = self.inner.episode.get();
        let warn_at = self.inner.ctx.now() + self.inner.spec.warning_latency;
        let me = Rc::clone(&self.inner);
        self.inner.ctx.spawn(async move {
            me.ctx.sleep_until(warn_at.min(deadline)).await;
            if me.episode.get() == episode {
                me.warning.borrow().set();
            }
        });
        let me = Rc::clone(&self.inner);
        self.inner.ctx.spawn(async move {
            me.ctx.sleep_until(deadline).await;
            if me.episode.get() != episode {
                return; // restored in the meantime
            }
            me.state.set(PowerState::Dead);
            me.death.borrow().set();
            // Execute callbacks outside the borrow: they may re-enter.
            let n = me.on_death.borrow().len();
            for i in 0..n {
                let cb = &me.on_death.borrow()[i];
                // The callback list is append-only, so the index stays
                // valid; clone nothing, just call through the borrow.
                cb();
            }
        });
    }

    /// Restores mains power (after a [`cut_mains`] episode has run its
    /// course or mid-window). Warning/death events are re-armed.
    pub fn restore(&self) {
        self.inner.episode.set(self.inner.episode.get() + 1);
        self.inner.state.set(PowerState::Mains);
        *self.inner.warning.borrow_mut() = Event::new();
        *self.inner.death.borrow_mut() = Event::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::{Sim, SimTime};
    use std::cell::Cell;

    #[test]
    fn window_is_energy_over_power() {
        let spec = supplies::atx_psu();
        assert_eq!(spec.window().as_millis(), 200);
        assert_eq!(spec.usable_window().as_millis(), 198);
    }

    #[test]
    fn loaded_psu_has_smaller_window() {
        assert!(supplies::atx_psu_loaded().window() < supplies::atx_psu().window());
        assert_eq!(supplies::atx_psu_loaded().window().as_millis(), 70);
    }

    #[test]
    fn cut_fires_warning_then_death_on_schedule() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let psu = PowerSupply::new(&ctx, supplies::atx_psu());
        let warn_at = Rc::new(Cell::new(0u64));
        let death_at = Rc::new(Cell::new(0u64));
        let disk_cut = Rc::new(Cell::new(false));
        let dc = Rc::clone(&disk_cut);
        psu.on_death(move || dc.set(true));
        let p2 = psu.clone();
        let (w2, d2) = (Rc::clone(&warn_at), Rc::clone(&death_at));
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(50)).await;
                let warning = p2.warning_event();
                let death = p2.death_event();
                p2.cut_mains();
                warning.wait().await;
                w2.set(ctx.now().as_millis());
                death.wait().await;
                d2.set(ctx.now().as_millis());
            }
        });
        sim.run();
        assert_eq!(warn_at.get(), 52, "warning 2 ms after the cut");
        assert_eq!(death_at.get(), 250, "death at cut + 200 ms window");
        assert!(disk_cut.get(), "death callback ran");
        assert_eq!(psu.inner.state.get(), PowerState::Dead);
    }

    #[test]
    fn time_until_death_counts_down() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let psu = PowerSupply::new(&ctx, supplies::atx_psu());
        assert_eq!(psu.time_until_death(), None);
        let p2 = psu.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                p2.cut_mains();
                assert_eq!(p2.time_until_death(), Some(SimDuration::from_millis(200)));
                ctx.sleep(SimDuration::from_millis(50)).await;
                assert_eq!(p2.time_until_death(), Some(SimDuration::from_millis(150)));
            }
        });
        sim.run();
        assert_eq!(psu.time_until_death(), Some(SimDuration::ZERO));
    }

    #[test]
    fn restore_mid_window_cancels_death() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let psu = PowerSupply::new(&ctx, supplies::atx_psu());
        let died = Rc::new(Cell::new(false));
        let d2 = Rc::clone(&died);
        psu.on_death(move || d2.set(true));
        let p2 = psu.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                p2.cut_mains();
                ctx.sleep(SimDuration::from_millis(100)).await;
                p2.restore();
            }
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(!died.get(), "restored before the window expired");
        assert_eq!(psu.inner.state.get(), PowerState::Mains);
    }

    #[test]
    fn cut_is_idempotent_while_down() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let psu = PowerSupply::new(&ctx, supplies::atx_psu());
        let deaths = Rc::new(Cell::new(0u32));
        let d2 = Rc::clone(&deaths);
        psu.on_death(move || d2.set(d2.get() + 1));
        let p2 = psu.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                p2.cut_mains();
                p2.cut_mains(); // ignored
                ctx.sleep(SimDuration::from_millis(500)).await;
                p2.cut_mains(); // already dead: ignored
            }
        });
        sim.run();
        assert_eq!(deaths.get(), 1);
    }

    #[test]
    fn second_episode_after_restore_works() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let psu = PowerSupply::new(&ctx, supplies::atx_psu());
        let deaths = Rc::new(Cell::new(0u32));
        let d2 = Rc::clone(&deaths);
        psu.on_death(move || d2.set(d2.get() + 1));
        let p2 = psu.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                p2.cut_mains();
                ctx.sleep(SimDuration::from_millis(300)).await; // dies at 200
                p2.restore();
                p2.cut_mains();
                ctx.sleep(SimDuration::from_millis(300)).await; // dies again
            }
        });
        sim.run();
        assert_eq!(deaths.get(), 2);
    }
}
