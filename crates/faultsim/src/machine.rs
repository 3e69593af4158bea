//! Whole-machine assembly in the paper's three configurations.
//!
//! A [`Machine`] owns the physical substrate (two disks, optionally a
//! power supply), the hypervisor with its trusted driver cell, the guest
//! VM, and the device stack between them:
//!
//! ```text
//! Native:       engine ──────────────────────────▶ data/log disks
//! Virtualized:  engine ─▶ virtio ─▶ driver cell ──▶ data/log disks
//! RapiLog:      engine ─▶ virtio ─▶ driver cell ──▶ data disk
//!                         virtio ─▶ RapiLog buffer ─▶ log disk
//! ```
//!
//! Power wiring: when the supply's residual window expires, both disks
//! lose power, the guest is crashed and the engine is stopped — all at the
//! same instant, like a machine browning out.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog::{AuditReport, RapiLog, RapiLogConfig, TenantSpec};
use rapilog_dbengine::recovery::RecoveryReport;
use rapilog_dbengine::{Database, DbConfig, DbError, TableDef};
use rapilog_microvisor::{Cell as HvCell, GuestVm, Hypervisor, Trust, VirtCosts, VirtioBlk};
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::SimCtx;
use rapilog_simdisk::{BlockDevice, Disk, DiskSpec};
use rapilog_simpower::{PowerSupply, SupplySpec};
use rapilog_workload::DbServer;

/// Which of the paper's configurations to assemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// Engine talks to the raw disks; no hypervisor in the data path.
    Native,
    /// Engine runs in a VM; disks reached through virtio (sync logging).
    Virtualized,
    /// Like `Virtualized`, but the log disk is the RapiLog virtual disk.
    RapiLog,
}

impl Setup {
    /// Display label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            Setup::Native => "native",
            Setup::Virtualized => "virt-sync",
            Setup::RapiLog => "rapilog",
        }
    }
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The configuration under test.
    pub setup: Setup,
    /// Data-disk model.
    pub data_spec: DiskSpec,
    /// Log-disk model.
    pub log_spec: DiskSpec,
    /// Power supply; `None` = lab bench supply that never fails.
    pub supply: Option<SupplySpec>,
    /// Engine configuration (CPU factor is overridden per setup).
    pub db: DbConfig,
    /// RapiLog configuration (RapiLog setup).
    pub rapilog: RapiLogConfig,
    /// Tenants sharing the RapiLog instance (RapiLog setup). `1` is the
    /// classic single-tenant machine; `n > 1` builds `n` equal
    /// shards with tenant ids `0..n`, where tenant 0 carries the database
    /// WAL and the rest are synthetic co-tenant cells.
    pub tenants: usize,
}

/// CPU tax of running under the hypervisor (Virtualized/RapiLog setups).
const VIRT_CPU_FACTOR: f64 = 1.05;

impl MachineConfig {
    /// A configuration with defaults for everything but the disks.
    pub fn new(setup: Setup, data_spec: DiskSpec, log_spec: DiskSpec) -> MachineConfig {
        MachineConfig {
            setup,
            data_spec,
            log_spec,
            supply: None,
            db: DbConfig::default(),
            rapilog: RapiLogConfig::default(),
            tenants: 1,
        }
    }
}

struct DeviceStack {
    data_dev: Rc<dyn BlockDevice>,
    log_dev: Rc<dyn BlockDevice>,
    rapilog: Option<RapiLog>,
}

struct MachineInner {
    ctx: SimCtx,
    cfg: MachineConfig,
    hv: Hypervisor,
    vm: GuestVm,
    driver_cell: HvCell,
    data_disk: Disk,
    log_disk: Disk,
    psu: Option<PowerSupply>,
    stack: RefCell<Option<DeviceStack>>,
    db: Rc<RefCell<Option<Database>>>,
    /// Audit reports of RapiLog instances retired by stack rebuilds.
    audit_history: RefCell<Vec<AuditReport>>,
}

/// A fully wired machine under test.
#[derive(Clone)]
pub struct Machine {
    inner: Rc<MachineInner>,
}

impl Machine {
    /// Builds the machine (guest not yet booted, database not installed).
    pub fn new(ctx: &SimCtx, cfg: MachineConfig) -> Machine {
        let hv = Hypervisor::new(ctx);
        let vm = GuestVm::new(&hv, "db-vm");
        let driver_cell = hv.create_cell("io-drivers", Trust::Trusted);
        let data_disk = Disk::new(ctx, cfg.data_spec.clone());
        let log_disk = Disk::new(ctx, cfg.log_spec.clone());
        let psu = cfg.supply.clone().map(|spec| PowerSupply::new(ctx, spec));
        let db: Rc<RefCell<Option<Database>>> = Rc::new(RefCell::new(None));
        if let Some(psu) = &psu {
            let data = data_disk.clone();
            let log = log_disk.clone();
            let vm2 = vm.clone();
            let db2 = Rc::clone(&db);
            psu.on_death(move || {
                data.power_cut();
                log.power_cut();
                vm2.crash();
                if let Some(db) = db2.borrow().as_ref() {
                    db.stop();
                }
            });
        }
        Machine {
            inner: Rc::new(MachineInner {
                ctx: ctx.clone(),
                cfg,
                hv,
                vm,
                driver_cell,
                data_disk,
                log_disk,
                psu,
                stack: RefCell::new(None),
                db,
                audit_history: RefCell::new(Vec::new()),
            }),
        }
    }

    fn build_stack(&self) {
        let i = &self.inner;
        // Preserve the retiring instance's verdict before replacing it.
        if let Some(old) = i.stack.borrow().as_ref().and_then(|s| s.rapilog.as_ref()) {
            i.audit_history.borrow_mut().push(old.audit_report());
        }
        let stack = match i.cfg.setup {
            Setup::Native => DeviceStack {
                data_dev: Rc::new(i.data_disk.clone()),
                log_dev: Rc::new(i.log_disk.clone()),
                rapilog: None,
            },
            Setup::Virtualized => DeviceStack {
                data_dev: Rc::new(VirtioBlk::new(
                    &i.ctx,
                    &i.driver_cell,
                    Rc::new(i.data_disk.clone()),
                    VirtCosts::default(),
                )),
                log_dev: Rc::new(VirtioBlk::new(
                    &i.ctx,
                    &i.driver_cell,
                    Rc::new(i.log_disk.clone()),
                    VirtCosts::default(),
                )),
                rapilog: None,
            },
            Setup::RapiLog => {
                let mut builder = RapiLog::builder(&i.ctx)
                    .cell(&i.driver_cell)
                    .disk(i.log_disk.clone())
                    .config(i.cfg.rapilog);
                if i.cfg.tenants > 1 {
                    let specs: Vec<TenantSpec> =
                        (0..i.cfg.tenants as u64).map(TenantSpec::new).collect();
                    builder = builder.tenants(&specs);
                }
                if let Some(psu) = i.psu.as_ref() {
                    builder = builder.supply(psu);
                }
                let rl = builder.build();
                DeviceStack {
                    data_dev: Rc::new(VirtioBlk::new(
                        &i.ctx,
                        &i.driver_cell,
                        Rc::new(i.data_disk.clone()),
                        VirtCosts::default(),
                    )),
                    log_dev: Rc::new(VirtioBlk::new(
                        &i.ctx,
                        &i.driver_cell,
                        Rc::new(rl.device()),
                        VirtCosts::default(),
                    )),
                    rapilog: Some(rl),
                }
            }
        };
        *i.stack.borrow_mut() = Some(stack);
    }

    fn db_config(&self) -> DbConfig {
        let mut cfg = self.inner.cfg.db.clone();
        cfg.cpu_factor = match self.inner.cfg.setup {
            Setup::Native => cfg.cpu_factor,
            _ => cfg.cpu_factor * VIRT_CPU_FACTOR,
        };
        cfg
    }

    /// Boots the guest and creates a fresh database.
    pub async fn install(&self, defs: &[TableDef]) -> Result<Database, DbError> {
        self.inner.vm.boot();
        if self.inner.stack.borrow().is_none() {
            self.build_stack();
        }
        let (data_dev, log_dev) = {
            let stack = self.inner.stack.borrow();
            let s = stack.as_ref().expect("stack built");
            (Rc::clone(&s.data_dev), Rc::clone(&s.log_dev))
        };
        let domain = self.inner.vm.domain().expect("guest booted");
        let db = Database::create(
            &self.inner.ctx,
            self.db_config(),
            defs,
            data_dev,
            log_dev,
            domain,
        )
        .await?;
        *self.inner.db.borrow_mut() = Some(db.clone());
        Ok(db)
    }

    /// Boots the guest and runs crash recovery over the existing devices,
    /// in the guest: a crash or power death during it ends it with
    /// [`DbError::Stopped`], and the machine can be recovered again.
    ///
    /// # Panics
    ///
    /// Panics if the guest is still up or the power is still out.
    pub async fn reboot_and_recover(&self) -> Result<(Database, RecoveryReport), DbError> {
        assert!(!self.inner.vm.is_up(), "guest still running");
        assert!(
            !self.inner.log_disk.is_offline() && !self.inner.data_disk.is_offline(),
            "restore power before rebooting"
        );
        // A frozen RapiLog (post power episode) must be rebuilt; the data
        // it held is on the disk by the drain guarantee.
        let needs_rebuild = {
            let stack = self.inner.stack.borrow();
            match stack.as_ref() {
                None => true,
                Some(s) => s.rapilog.as_ref().is_some_and(|rl| rl.device_frozen()),
            }
        };
        if needs_rebuild {
            self.build_stack();
        }
        self.inner.vm.boot();
        let (data_dev, log_dev) = {
            let stack = self.inner.stack.borrow();
            let s = stack.as_ref().expect("stack built");
            (Rc::clone(&s.data_dev), Rc::clone(&s.log_dev))
        };
        let domain = self.inner.vm.domain().expect("guest booted");
        let tracer = self.inner.ctx.tracer();
        tracer.begin(self.inner.ctx.now(), Layer::Fault, "recover", Payload::None);
        let (ctx, cfg) = (self.inner.ctx.clone(), self.db_config());
        let open = async move { Database::open(&ctx, cfg, data_dev, log_dev, domain).await };
        // `None`: the guest died (crash, power death) during recovery.
        let joined = self.inner.ctx.spawn_in(domain, open).await;
        let opened = joined.unwrap_or(Err(DbError::Stopped));
        tracer.end(
            self.inner.ctx.now(),
            Layer::Fault,
            "recover",
            match &opened {
                Ok((_, report)) => Payload::Mark {
                    value: report.scanned_records,
                },
                Err(_) => Payload::Text { text: "failed" },
            },
        );
        let (db, report) = opened?;
        *self.inner.db.borrow_mut() = Some(db.clone());
        Ok((db, report))
    }

    /// The current database instance, if any.
    fn db(&self) -> Option<Database> {
        self.inner.db.borrow().clone()
    }

    /// A session server bound to the current database and guest domain.
    ///
    /// # Panics
    ///
    /// Panics if no database is installed or the guest is down.
    pub fn server(&self) -> DbServer {
        let db = self.db().expect("database installed");
        let domain = self.inner.vm.domain().expect("guest booted");
        DbServer::new(&self.inner.ctx, db, domain)
    }

    /// Marks a machine event in the trace (`Layer::Fault`).
    fn mark(&self, name: &'static str) {
        let ctx = &self.inner.ctx;
        ctx.tracer()
            .instant(ctx.now(), Layer::Fault, name, Payload::None);
    }

    /// Crashes the guest OS (kernel panic): all engine tasks die now.
    /// Returns the number of tasks destroyed.
    pub fn crash_guest(&self) -> usize {
        self.mark("crash_guest");
        let n = self.inner.vm.crash();
        if let Some(db) = self.inner.db.borrow_mut().take() {
            // External waiters (clients) observe the connection reset.
            db.stop();
        }
        n
    }

    /// Cuts mains power. The warning fires shortly after; the machine dies
    /// when the residual window expires (see the supply spec).
    ///
    /// # Panics
    ///
    /// Panics if the machine has no supply configured.
    pub fn cut_power(&self) {
        self.mark("cut_power");
        self.inner
            .psu
            .as_ref()
            .expect("no power supply configured")
            .cut_mains();
    }

    /// Restores mains power and brings the disks back online.
    pub fn restore_power(&self) {
        self.mark("restore_power");
        if let Some(psu) = &self.inner.psu {
            psu.restore();
        }
        self.inner.data_disk.power_restore();
        self.inner.log_disk.power_restore();
    }

    /// The power supply, if configured.
    pub fn psu(&self) -> Option<&PowerSupply> {
        self.inner.psu.as_ref()
    }

    /// The raw log disk (for media audits).
    pub fn log_disk(&self) -> &Disk {
        &self.inner.log_disk
    }

    /// The raw data disk (for media audits).
    pub fn data_disk(&self) -> &Disk {
        &self.inner.data_disk
    }

    /// The RapiLog instance, when the setup has one.
    pub fn rapilog(&self) -> Option<RapiLog> {
        self.inner
            .stack
            .borrow()
            .as_ref()
            .and_then(|s| s.rapilog.clone())
    }

    /// The RapiLog auditor's report for the *current* instance.
    pub fn rapilog_report(&self) -> Option<AuditReport> {
        self.rapilog().map(|rl| rl.audit_report())
    }

    /// Every audit report this machine has produced: instances retired by
    /// stack rebuilds first, then the current one. Empty when the setup
    /// never had RapiLog.
    pub fn rapilog_audit_reports(&self) -> Vec<AuditReport> {
        let mut reports = self.inner.audit_history.borrow().clone();
        if let Some(current) = self.rapilog_report() {
            reports.push(current);
        }
        reports
    }

    /// The combined verdict over every RapiLog instance this machine has
    /// run (including those retired by power episodes). `None` when the
    /// setup never had RapiLog.
    pub fn rapilog_guarantee_held(&self) -> Option<bool> {
        let history = self.inner.audit_history.borrow();
        let current = self.rapilog_report();
        if history.is_empty() && current.is_none() {
            return None;
        }
        Some(
            history.iter().all(|r| r.guarantee_held())
                && current.is_none_or(|r| r.guarantee_held()),
        )
    }

    /// Asserts the trusted cells all survived (invariant I6).
    pub fn assert_trusted_intact(&self) {
        self.inner.hv.assert_trusted_intact();
    }
}
