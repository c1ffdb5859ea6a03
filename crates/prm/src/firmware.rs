//! The Linux-like firmware running on the PRM.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use pard_cp::{
    CmpOp, CpAddr, CpCommand, CpHandle, CpInterrupt, CpType, CpaRegisterFile, InterruptLine,
    InterruptSink, TableSel, TriggerMode, REG_ADDR, REG_CMD, REG_DATA,
};
use pard_icn::{CoreCommand, DsId};
use pard_io::ApicRoutes;
use pard_sim::sync::Mutex;
use pard_sim::trace::{self, TraceCat, TraceVal};
use pard_sim::{ComponentId, Time};

use crate::alloc::MemAllocator;
use crate::error::FwError;
use crate::ldom::{LDomInfo, LDomSpec, Priority};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::script::{self, parse_num, Env, ScriptIo};
use crate::tree::{DeviceFileTree, Node};

/// Firmware configuration.
#[derive(Debug, Clone)]
pub struct FirmwareConfig {
    /// Machine memory available for LDom allocation.
    pub mem_capacity: u64,
    /// Maximum DS-ids (must match the control planes' table rows).
    pub max_ds: usize,
}

impl Default for FirmwareConfig {
    fn default() -> Self {
        FirmwareConfig {
            mem_capacity: 8 * 1024 * 1024 * 1024,
            max_ds: 256,
        }
    }
}

/// Context handed to an executing action.
#[derive(Debug, Clone, Copy)]
pub struct ActionEnv {
    /// CPA whose trigger fired.
    pub cpa: usize,
    /// DS-id the trigger watches.
    pub ds: DsId,
    /// Trigger-table slot.
    pub slot: usize,
    /// Firmware time of dispatch.
    pub now: Time,
}

/// Signature of a native trigger handler.
pub type NativeAction = Box<dyn FnMut(&mut Firmware, ActionEnv) + Send>;

/// A trigger action: the paper's "trigger handler".
pub enum Action {
    /// A [`pardscript`](crate::script) program (the paper's shell scripts).
    Script(String),
    /// A native hook (for harnesses and firmware-internal policies).
    Native(NativeAction),
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Script(_) => write!(f, "Action::Script"),
            Action::Native(_) => write!(f, "Action::Native"),
        }
    }
}

/// A shareable firmware handle (held by the [`Prm`](crate::Prm) component
/// and by experiment harnesses).
pub type FwHandle = Arc<Mutex<Firmware>>;

/// An escalation raised by this machine's PRM toward the fleet manager:
/// the top rung of the control-plane → PRM → fleet ladder. Machine-local
/// triggers that the firmware cannot satisfy with local actions (the LDom
/// is already at maximum local share) write
/// `REASON DS` into `/sys/fleet/escalate`, and the fleet manager drains
/// the queue via [`Firmware::take_escalations`] between epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Escalation {
    /// Firmware time when the escalation was raised.
    pub at: Time,
    /// The DS-id (tenant LDom) the escalation concerns.
    pub ds: u16,
    /// Free-form reason (e.g. `overload`).
    pub reason: String,
}

/// The PRM firmware. See the [crate docs](crate) for the big picture.
pub struct Firmware {
    cfg: FirmwareConfig,
    tree: DeviceFileTree,
    cpas: Vec<Arc<Mutex<CpaRegisterFile>>>,
    cp_types: Vec<CpType>,
    irq_line: InterruptLine,
    irq_sink: InterruptSink,
    actions: HashMap<String, Action>,
    /// `(cpa, slot)` → the ldom/action-id the slot was installed for.
    slot_owner: HashMap<(usize, usize), (u16, u64)>,
    next_slot: Vec<usize>,
    ldoms: BTreeMap<u16, LDomInfo>,
    next_ds: u16,
    mem: MemAllocator,
    apic_routes: Option<ApicRoutes>,
    cores: Vec<ComponentId>,
    pending_core_cmds: Vec<(ComponentId, CoreCommand)>,
    log: Vec<(Time, String)>,
    now: Time,
    metrics: MetricsRegistry,
    /// Escalations queued for the fleet manager. Shared with the
    /// `/sys/fleet/escalate` hook closure.
    escalations: Arc<Mutex<Vec<Escalation>>>,
    /// Firmware time mirrored for the escalate hook (closures cannot
    /// borrow `self.now`).
    esc_now: Arc<Mutex<Time>>,
}

impl Firmware {
    /// Boots the firmware.
    pub fn new(cfg: FirmwareConfig) -> Self {
        let (irq_line, irq_sink) = InterruptLine::channel();
        let mut tree = DeviceFileTree::new();
        tree.mkdir_all("/sys/cpa").expect("static path");
        tree.mkdir_all("/log").expect("static path");
        tree.mkdir_all("/sys/stats").expect("static path");
        let metrics = MetricsRegistry::new();
        let reg = metrics.clone();
        tree.install(
            "/sys/stats/snapshot",
            Node::Hook {
                read: Box::new(move || reg.snapshot_now().to_json()),
                write: None,
            },
        )
        .expect("static path");
        // The fleet escalation rung: scripts (or the operator) write
        // "REASON DS" here; the fleet manager drains the queue. Reading
        // the file shows the number of pending escalations.
        tree.mkdir_all("/sys/fleet").expect("static path");
        let escalations: Arc<Mutex<Vec<Escalation>>> = Arc::new(Mutex::new(Vec::new()));
        let esc_now = Arc::new(Mutex::new(Time::ZERO));
        let esc_read = escalations.clone();
        let esc_write = escalations.clone();
        let esc_clock = esc_now.clone();
        tree.install(
            "/sys/fleet/escalate",
            Node::Hook {
                read: Box::new(move || esc_read.lock().len().to_string()),
                write: Some(Box::new(move |s| {
                    let s = s.trim();
                    let (reason, ds) = s.rsplit_once(char::is_whitespace).ok_or_else(|| {
                        FwError::BadCommand(format!("escalate: want 'REASON DS', got '{s}'"))
                    })?;
                    let ds = ds
                        .parse::<u16>()
                        .map_err(|_| FwError::BadCommand(format!("escalate: bad DS-id '{ds}'")))?;
                    esc_write.lock().push(Escalation {
                        at: *esc_clock.lock(),
                        ds,
                        reason: reason.trim().to_string(),
                    });
                    Ok(())
                })),
            },
        )
        .expect("static path");
        Firmware {
            metrics,
            tree,
            escalations,
            esc_now,
            cpas: Vec::new(),
            cp_types: Vec::new(),
            irq_line,
            irq_sink,
            actions: HashMap::new(),
            slot_owner: HashMap::new(),
            next_slot: Vec::new(),
            ldoms: BTreeMap::new(),
            next_ds: 0,
            mem: MemAllocator::new(cfg.mem_capacity),
            apic_routes: None,
            cores: Vec::new(),
            pending_core_cmds: Vec::new(),
            log: Vec::new(),
            now: Time::ZERO,
            cfg,
        }
    }

    /// Wraps the firmware in a shared handle.
    pub fn into_handle(self) -> FwHandle {
        Arc::new(Mutex::new(self))
    }

    // ------------------------------------------------------------ wiring

    /// Registers a control plane, mounting it as `/sys/cpa/cpaN`.
    /// Returns the CPA index.
    pub fn register_cpa(&mut self, cp: CpHandle) -> usize {
        let index = self.cpas.len();
        let cp_type = cp.lock().cp_type();
        cp.lock().attach(index, self.irq_line.clone());
        self.metrics.register(index, cp.clone());
        let regfile = Arc::new(Mutex::new(CpaRegisterFile::new(cp)));
        self.cpas.push(regfile.clone());
        self.cp_types.push(cp_type);
        self.next_slot.push(0);

        let base = format!("/sys/cpa/cpa{index}");
        self.tree.mkdir_all(&base).expect("parent exists");
        let rf = regfile.clone();
        self.tree
            .install(
                &format!("{base}/ident"),
                Node::Hook {
                    read: Box::new(move || {
                        let rf = rf.lock();
                        let lo = rf.read(pard_cp::REG_IDENT).unwrap_or(0).to_le_bytes();
                        let hi = rf.read(pard_cp::REG_IDENT_HIGH).unwrap_or(0).to_le_bytes();
                        let mut bytes = lo.to_vec();
                        bytes.extend_from_slice(&hi[..4]);
                        String::from_utf8_lossy(&bytes)
                            .trim_end_matches('\0')
                            .to_string()
                    }),
                    write: None,
                },
            )
            .expect("parent exists");
        let rf = regfile.clone();
        self.tree
            .install(
                &format!("{base}/type"),
                Node::Hook {
                    read: Box::new(move || {
                        let t = rf.lock().read(pard_cp::REG_TYPE).unwrap_or(0) as u8;
                        (t as char).to_string()
                    }),
                    write: None,
                },
            )
            .expect("parent exists");
        self.tree
            .mkdir_all(&format!("{base}/ldoms"))
            .expect("parent exists");

        // The policy tree: `/sys/policy/cpaN/program` reads the active
        // match-action program's source and accepts a new program as data
        // (rules separated by newlines or `;`). Writing `reset` clears the
        // installed program, reverting to the plane's built-in one. A bad
        // program is rejected with a typed error naming the offending
        // token; the previous program stays in force.
        let policy_base = format!("/sys/policy/cpa{index}");
        self.tree.mkdir_all(&policy_base).expect("parent exists");
        let rf_read = regfile.clone();
        let rf_write = regfile;
        self.tree
            .install(
                &format!("{policy_base}/program"),
                Node::Hook {
                    read: Box::new(move || {
                        rf_read.lock().plane().lock().policy_source().to_string()
                    }),
                    write: Some(Box::new(move |src| {
                        let rf = rf_write.lock();
                        let mut plane = rf.plane().lock();
                        if src.trim() == "reset" {
                            plane.clear_policy();
                        } else {
                            plane.install_policy(src)?;
                        }
                        Ok(())
                    })),
                },
            )
            .expect("parent exists");
        index
    }

    /// Wires the APIC route tables.
    pub fn set_apic_routes(&mut self, routes: ApicRoutes) {
        self.apic_routes = Some(routes);
    }

    /// Registers the server's cores (indexable from [`LDomSpec::cores`]).
    pub fn set_cores(&mut self, cores: Vec<ComponentId>) {
        self.cores = cores;
    }

    /// The CPA index of the first control plane of `cp_type`, if any.
    pub fn cpa_of_type(&self, cp_type: CpType) -> Option<usize> {
        self.cp_types.iter().position(|&t| t == cp_type)
    }

    // ------------------------------------------------------- file access

    /// `cat PATH`.
    ///
    /// # Errors
    ///
    /// Propagates device-file-tree errors.
    pub fn read(&mut self, path: &str) -> Result<String, FwError> {
        self.tree.read(path)
    }

    /// `echo VALUE > PATH`.
    ///
    /// # Errors
    ///
    /// Propagates device-file-tree errors.
    pub fn write(&mut self, path: &str, value: &str) -> Result<(), FwError> {
        self.tree.write(path, value)
    }

    /// `ls PATH`.
    ///
    /// # Errors
    ///
    /// Propagates device-file-tree errors.
    pub fn list(&self, path: &str) -> Result<Vec<String>, FwError> {
        self.tree.list(path)
    }

    /// The device file tree (tests, introspection).
    pub fn tree(&self) -> &DeviceFileTree {
        &self.tree
    }

    // ------------------------------------------------------------- ldoms

    /// Creates an LDom: assigns a DS-id, allocates machine memory,
    /// programs the control planes, routes interrupts, and mounts the
    /// per-LDom file subtrees (paper Fig. 3, operator view).
    ///
    /// # Errors
    ///
    /// Fails when DS-ids or memory are exhausted.
    pub fn create_ldom(&mut self, spec: LDomSpec) -> Result<DsId, FwError> {
        if usize::from(self.next_ds) >= self.cfg.max_ds {
            return Err(FwError::OutOfDsIds);
        }
        let ds = DsId::new(self.next_ds);
        let mem_base = self.mem.allocate(spec.mem_bytes)?;
        self.next_ds += 1;

        // Mount /sys/cpa/cpaN/ldoms/ldomD for every control plane.
        for cpa in 0..self.cpas.len() {
            self.mount_ldom_subtree(cpa, ds);
        }

        // Program the memory control plane: address mapping + priority.
        if let Some(mem_cpa) = self.cpa_of_type(CpType::Memory) {
            let base = format!("/sys/cpa/cpa{mem_cpa}/ldoms/ldom{}/parameters", ds.raw());
            self.write(&format!("{base}/addr_base"), &mem_base.to_string())?;
            self.write(&format!("{base}/addr_limit"), &spec.mem_bytes.to_string())?;
            let (prio, rowbuf) = match spec.priority {
                Priority::High => (1, 1),
                Priority::Normal => (0, 0),
            };
            self.write(&format!("{base}/priority"), &prio.to_string())?;
            self.write(&format!("{base}/rowbuf"), &rowbuf.to_string())?;
        }

        // Default cache policy: sharing without partitioning (Fig. 3).
        if let Some(cache_cpa) = self.cpa_of_type(CpType::Cache) {
            let path = format!(
                "/sys/cpa/cpa{cache_cpa}/ldoms/ldom{}/parameters/waymask",
                ds.raw()
            );
            self.write(&path, "0xFFFF")?;
        }

        // Disk quota, if requested.
        if let Some(pct) = spec.disk_quota_pct {
            if let Some(io_cpa) = self.cpa_of_type(CpType::Io) {
                let path = format!(
                    "/sys/cpa/cpa{io_cpa}/ldoms/ldom{}/parameters/bandwidth",
                    ds.raw()
                );
                self.write(&path, &pct.to_string())?;
            }
        }

        // v-NIC, if requested.
        if let Some(mac) = spec.mac {
            if let Some(nic_cpa) = self.cpa_of_type(CpType::Nic) {
                let base = format!("/sys/cpa/cpa{nic_cpa}/ldoms/ldom{}/parameters", ds.raw());
                self.write(
                    &format!("{base}/mac"),
                    &pard_io::mac_to_u64(mac).to_string(),
                )?;
                self.write(&format!("{base}/enabled"), "1")?;
            }
        }

        // Interrupt routing: the LDom's first core receives its interrupts.
        if let (Some(routes), Some(&first)) = (&self.apic_routes, spec.cores.first()) {
            if let Some(&core) = self.cores.get(first) {
                routes.set(ds, core);
            }
        }

        // Load the cores' tag registers.
        for &ci in &spec.cores {
            if let Some(&core) = self.cores.get(ci) {
                self.pending_core_cmds
                    .push((core, CoreCommand::SetTag(ds.raw())));
            }
        }

        self.log(format!(
            "created {} as ldom{} (cores {:?}, {} MiB at {:#x})",
            spec.name,
            ds.raw(),
            spec.cores,
            spec.mem_bytes >> 20,
            mem_base
        ));
        self.ldoms.insert(
            ds.raw(),
            LDomInfo {
                ds,
                mem_base,
                created_at: self.now,
                spec,
            },
        );
        Ok(ds)
    }

    /// Starts the workload on an LDom's cores.
    ///
    /// # Errors
    ///
    /// Fails for unknown DS-ids.
    pub fn launch_ldom(&mut self, ds: DsId) -> Result<(), FwError> {
        let info = self
            .ldoms
            .get(&ds.raw())
            .ok_or(FwError::NoSuchLDom(ds.raw()))?;
        let cores: Vec<ComponentId> = info
            .spec
            .cores
            .iter()
            .filter_map(|&ci| self.cores.get(ci).copied())
            .collect();
        for core in cores {
            self.pending_core_cmds.push((core, CoreCommand::Start));
        }
        self.log(format!("launched ldom{}", ds.raw()));
        Ok(())
    }

    /// Destroys an LDom: stops its cores, frees memory, resets its
    /// control-plane rows, and unmounts its subtrees.
    ///
    /// # Errors
    ///
    /// Fails for unknown DS-ids.
    pub fn destroy_ldom(&mut self, ds: DsId) -> Result<(), FwError> {
        let info = self
            .ldoms
            .remove(&ds.raw())
            .ok_or(FwError::NoSuchLDom(ds.raw()))?;
        for &ci in &info.spec.cores {
            if let Some(&core) = self.cores.get(ci) {
                self.pending_core_cmds.push((core, CoreCommand::Stop));
            }
        }
        self.mem.free(info.mem_base, info.spec.mem_bytes);
        if let Some(routes) = &self.apic_routes {
            routes.clear(ds);
        }
        for (cpa, regfile) in self.cpas.iter().enumerate() {
            let plane = regfile.lock().plane().clone();
            let _ = plane.lock().reset_ds(ds);
            let _ = self
                .tree
                .remove(&format!("/sys/cpa/cpa{cpa}/ldoms/ldom{}", ds.raw()));
        }
        self.slot_owner.retain(|_, &mut (d, _)| d != ds.raw());
        self.log(format!("destroyed ldom{}", ds.raw()));
        Ok(())
    }

    /// Information about a created LDom.
    pub fn ldom(&self, ds: DsId) -> Option<&LDomInfo> {
        self.ldoms.get(&ds.raw())
    }

    /// All LDoms in DS-id order.
    pub fn ldoms(&self) -> impl Iterator<Item = &LDomInfo> {
        self.ldoms.values()
    }

    fn mount_ldom_subtree(&mut self, cpa: usize, ds: DsId) {
        let regfile = self.cpas[cpa].clone();
        let plane = regfile.lock().plane().clone();
        let base = format!("/sys/cpa/cpa{cpa}/ldoms/ldom{}", ds.raw());
        self.tree
            .mkdir_all(&format!("{base}/parameters"))
            .expect("ldoms dir exists");
        self.tree
            .mkdir_all(&format!("{base}/statistics"))
            .expect("ldoms dir exists");
        self.tree
            .mkdir_all(&format!("{base}/triggers"))
            .expect("ldoms dir exists");

        let (param_cols, stat_cols) = {
            let plane = plane.lock();
            (
                plane
                    .params()
                    .columns()
                    .iter()
                    .map(|c| c.name)
                    .collect::<Vec<_>>(),
                plane
                    .stats()
                    .columns()
                    .iter()
                    .map(|c| c.name)
                    .collect::<Vec<_>>(),
            )
        };

        for (offset, name) in param_cols.into_iter().enumerate() {
            let path = format!("{base}/parameters/{name}");
            let rf_r = regfile.clone();
            let rf_w = regfile.clone();
            self.tree
                .install(
                    &path,
                    Node::Hook {
                        read: Box::new(move || {
                            cpa_access(&rf_r, ds, offset, TableSel::Parameter, None)
                                .map(|v| v.to_string())
                                .unwrap_or_default()
                        }),
                        write: Some(Box::new(move |s| {
                            let v = parse_num(s)?;
                            cpa_access(&rf_w, ds, offset, TableSel::Parameter, Some(v))?;
                            Ok(())
                        })),
                    },
                )
                .expect("parameters dir exists");
        }
        for (offset, name) in stat_cols.into_iter().enumerate() {
            let path = format!("{base}/statistics/{name}");
            let rf_r = regfile.clone();
            let rf_w = regfile.clone();
            self.tree
                .install(
                    &path,
                    Node::Hook {
                        read: Box::new(move || {
                            cpa_access(&rf_r, ds, offset, TableSel::Statistics, None)
                                .map(|v| v.to_string())
                                .unwrap_or_default()
                        }),
                        write: Some(Box::new(move |s| {
                            let v = parse_num(s)?;
                            cpa_access(&rf_w, ds, offset, TableSel::Statistics, Some(v))?;
                            Ok(())
                        })),
                    },
                )
                .expect("statistics dir exists");
        }
    }

    // ---------------------------------------------------------- triggers

    /// The `pardtrigger` command (paper Fig. 6, Example 1): installs a
    /// trigger condition into control plane `cpa`'s trigger table, watching
    /// `stats_column` of `ldom`, and creates the
    /// `/sys/cpa/cpaN/ldoms/ldomD/triggers/ACTION` leaf whose content names
    /// the action to run when the trigger fires.
    ///
    /// # Errors
    ///
    /// Fails for unknown CPAs, columns, or exhausted trigger slots.
    pub fn pardtrigger(
        &mut self,
        cpa: usize,
        ldom: DsId,
        action: u64,
        stats_column: &str,
        op: CmpOp,
        value: u64,
    ) -> Result<(), FwError> {
        self.pardtrigger_with_mode(
            cpa,
            ldom,
            action,
            stats_column,
            op,
            value,
            TriggerMode::Level,
            0,
        )
    }

    /// Like [`pardtrigger`](Self::pardtrigger), but with an explicit trigger
    /// mode. [`TriggerMode::DegradationPct`] installs a latency-degradation
    /// trigger: the condition compares the percent growth of a smoothed
    /// `stats_column` over a self-maintained healthy baseline (rather than
    /// the raw value), which is what the resilience path uses to detect
    /// fault-induced service degradation without hard-coding absolute
    /// thresholds. `floor` is the degradation mode's absolute minimum for
    /// the smoothed column before the slot may fire (`0` disables it;
    /// ignored by [`TriggerMode::Level`]): percent growth over a column
    /// idling near zero is noise, so SLO rules on latency columns should
    /// anchor the relative condition with a floor around the magnitude
    /// where latency starts to matter.
    ///
    /// # Errors
    ///
    /// Fails for unknown CPAs, columns, or exhausted trigger slots.
    #[allow(clippy::too_many_arguments)]
    pub fn pardtrigger_with_mode(
        &mut self,
        cpa: usize,
        ldom: DsId,
        action: u64,
        stats_column: &str,
        op: CmpOp,
        value: u64,
        mode: TriggerMode,
        floor: u64,
    ) -> Result<(), FwError> {
        let regfile = self
            .cpas
            .get(cpa)
            .cloned()
            .ok_or_else(|| FwError::NoSuchPath(format!("/dev/cpa{cpa}")))?;
        let column = {
            let rf = regfile.lock();
            let plane = rf.plane().lock();
            plane.stats().column_offset(stats_column)?
        };
        let slot = self.next_slot[cpa];
        self.next_slot[cpa] += 1;

        // Program the trigger row through the CPA, enabling it last.
        for (field, v) in [
            (0u16, u64::from(ldom.raw())),
            (1, column as u64),
            (2, op.encode()),
            (3, value),
            (6, mode.encode()),
            (8, floor),
            (4, 1),
        ] {
            let mut rf = regfile.lock();
            let addr = CpAddr::new(DsId::new(slot as u16), field, TableSel::Trigger);
            rf.write(REG_ADDR, addr.encode().into())?;
            rf.write(REG_DATA, v)?;
            rf.write(REG_CMD, CpCommand::Write.encode().into())?;
        }

        self.slot_owner.insert((cpa, slot), (ldom.raw(), action));
        let leaf = format!(
            "/sys/cpa/cpa{cpa}/ldoms/ldom{}/triggers/{action}",
            ldom.raw()
        );
        if !self.tree.exists(&leaf) {
            self.tree.install(&leaf, Node::Data(String::new()))?;
        }
        let cond = match mode {
            TriggerMode::Level => format!("{stats_column} {} {value}", op.mnemonic()),
            TriggerMode::DegradationPct => {
                format!(
                    "{stats_column} degraded {} {value}% (floor {floor})",
                    op.mnemonic()
                )
            }
        };
        self.log(format!(
            "pardtrigger: cpa{cpa} ldom{} action {action}: {cond} -> slot {slot}",
            ldom.raw(),
        ));
        Ok(())
    }

    /// Re-arms every trigger slot installed for (`cpa`, `ldom`) by
    /// clearing its latch through the CPA programming path. Triggers are
    /// level-latched (one interrupt per episode); a supervisor that has
    /// *reacted* to an escalation re-arms the slot so a persisting
    /// condition raises a fresh interrupt at the next window — this is how
    /// the fleet manager sees a second escalation (and moves from
    /// re-sharding to migration) when its first reaction was not enough.
    /// Returns the number of slots re-armed.
    ///
    /// # Errors
    ///
    /// Fails for unknown CPAs or CPA programming errors.
    pub fn rearm_triggers(&mut self, cpa: usize, ldom: DsId) -> Result<usize, FwError> {
        let regfile = self
            .cpas
            .get(cpa)
            .cloned()
            .ok_or_else(|| FwError::NoSuchPath(format!("/dev/cpa{cpa}")))?;
        let mut slots: Vec<usize> = self
            .slot_owner
            .iter()
            .filter(|&(&(c, _), &(ds, _))| c == cpa && ds == ldom.raw())
            .map(|(&(_, slot), _)| slot)
            .collect();
        slots.sort_unstable();
        for &slot in &slots {
            let mut rf = regfile.lock();
            let addr = CpAddr::new(DsId::new(slot as u16), 5, TableSel::Trigger);
            rf.write(REG_ADDR, addr.encode().into())?;
            rf.write(REG_DATA, 0)?;
            rf.write(REG_CMD, CpCommand::Write.encode().into())?;
        }
        Ok(slots.len())
    }

    /// Registers an action under a name (e.g. `"/cpa0_ldom0_t0.sh"`).
    pub fn register_action(&mut self, name: impl Into<String>, action: Action) {
        self.actions.insert(name.into(), action);
    }

    /// Services all pending control-plane interrupts, dispatching their
    /// bound actions. Returns the number handled.
    pub fn service_interrupts(&mut self) -> usize {
        let mut handled = 0;
        while let Some(irq) = self.irq_sink.try_recv() {
            handled += 1;
            if let Err(e) = self.dispatch(irq) {
                let msg = format!("interrupt dispatch failed: {e}");
                self.log(msg);
            }
        }
        handled
    }

    fn dispatch(&mut self, irq: CpInterrupt) -> Result<(), FwError> {
        let &(ds_raw, action_id) = self
            .slot_owner
            .get(&(irq.cpa, irq.slot))
            .ok_or_else(|| FwError::NoSuchAction(format!("cpa{} slot {}", irq.cpa, irq.slot)))?;
        if trace::enabled(TraceCat::Prm) {
            trace::emit(
                TraceCat::Prm,
                self.now,
                ds_raw,
                "dispatch",
                &[
                    ("cpa", TraceVal::U(irq.cpa as u64)),
                    ("slot", TraceVal::U(irq.slot as u64)),
                ],
            );
        }
        let leaf = format!(
            "/sys/cpa/cpa{}/ldoms/ldom{ds_raw}/triggers/{action_id}",
            irq.cpa
        );
        let action_name = self.tree.read(&leaf)?;
        if action_name.is_empty() {
            return Err(FwError::NoSuchAction(leaf));
        }
        let env = ActionEnv {
            cpa: irq.cpa,
            ds: DsId::new(ds_raw),
            slot: irq.slot,
            now: self.now,
        };
        self.run_action(&action_name, env)
    }

    /// Runs a registered action by name.
    ///
    /// # Errors
    ///
    /// Fails if the action is unknown or its script errors.
    pub fn run_action(&mut self, name: &str, env: ActionEnv) -> Result<(), FwError> {
        let mut action = self
            .actions
            .remove(name)
            .ok_or_else(|| FwError::NoSuchAction(name.to_string()))?;
        let result = match &mut action {
            Action::Script(src) => {
                let src = src.clone();
                let mut senv = Env::new();
                senv.set("DS", env.ds.raw().to_string());
                senv.set("CPA", env.cpa.to_string());
                senv.set("SLOT", env.slot.to_string());
                script::run(&src, &mut senv, self)
            }
            Action::Native(f) => {
                f(self, env);
                Ok(())
            }
        };
        self.actions.insert(name.to_string(), action);
        result
    }

    // ------------------------------------------------------------- shell

    /// A tiny operator shell: `cat`, `echo … > …`, `ls`, `pardtrigger`,
    /// `pardpolicy`, `logread`.
    ///
    /// # Errors
    ///
    /// Returns parse or execution errors; output is the command's stdout.
    pub fn shell(&mut self, line: &str) -> Result<String, FwError> {
        let line = line.trim();
        if let Some(path) = line.strip_prefix("cat ") {
            return self.read(path.trim());
        }
        if let Some(rest) = line.strip_prefix("echo ") {
            let (value, path) = rest
                .rsplit_once('>')
                .ok_or_else(|| FwError::BadCommand(line.to_string()))?;
            let value = value.trim().trim_matches('"');
            self.write(path.trim(), value)?;
            return Ok(String::new());
        }
        if let Some(path) = line.strip_prefix("ls ") {
            return Ok(self.list(path.trim())?.join("\n"));
        }
        if line == "logread" {
            return Ok(self
                .log
                .iter()
                .map(|(t, m)| format!("[{t}] {m}"))
                .collect::<Vec<_>>()
                .join("\n"));
        }
        if let Some(rest) = line.strip_prefix("pardtrigger ") {
            return self.shell_pardtrigger(rest);
        }
        if let Some(rest) = line.strip_prefix("pardpolicy ") {
            return self.shell_pardpolicy(rest);
        }
        Err(FwError::BadCommand(line.to_string()))
    }

    fn shell_pardpolicy(&mut self, rest: &str) -> Result<String, FwError> {
        // pardpolicy /dev/cpaN show
        // pardpolicy /dev/cpaN reset
        // pardpolicy /dev/cpaN install PROGRAM   (rules separated by `;`)
        let rest = rest.trim();
        let (dev, verb_and_args) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| FwError::BadCommand(rest.to_string()))?;
        let cpa = dev
            .strip_prefix("/dev/cpa")
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| FwError::BadCommand(dev.to_string()))?;
        let path = format!("/sys/policy/cpa{cpa}/program");
        let verb_and_args = verb_and_args.trim();
        match verb_and_args {
            "show" => self.read(&path),
            "reset" => {
                self.write(&path, "reset")?;
                Ok(String::new())
            }
            _ => match verb_and_args.split_once(char::is_whitespace) {
                Some(("install", program)) => {
                    self.write(&path, program.trim())?;
                    Ok(String::new())
                }
                _ => Err(FwError::BadCommand(verb_and_args.to_string())),
            },
        }
    }

    fn shell_pardtrigger(&mut self, rest: &str) -> Result<String, FwError> {
        // pardtrigger /dev/cpa0 -ldom=0 -action=0 -stats=miss_rate -cond=gt,30
        // Degradation form: -cond=degr,50 fires when the watched column has
        // degraded >= 50% over its healthy baseline; -cond=degr,50,100
        // additionally requires the smoothed column to reach 100 (the
        // absolute floor that keeps near-idle columns from firing).
        let mut cpa = None;
        let mut ldom = None;
        let mut action = None;
        let mut stats = None;
        let mut cond = None;
        for tok in rest.split_whitespace() {
            if let Some(dev) = tok.strip_prefix("/dev/cpa") {
                cpa = Some(
                    dev.parse::<usize>()
                        .map_err(|_| FwError::BadCommand(tok.to_string()))?,
                );
            } else if let Some(v) = tok.strip_prefix("-ldom=") {
                ldom = Some(parse_num(v)? as u16);
            } else if let Some(v) = tok.strip_prefix("-action=") {
                action = Some(parse_num(v)?);
            } else if let Some(v) = tok.strip_prefix("-stats=") {
                stats = Some(v.to_string());
            } else if let Some(v) = tok.strip_prefix("-cond=") {
                let (op, val) = v
                    .split_once(',')
                    .ok_or_else(|| FwError::BadCommand(tok.to_string()))?;
                cond = Some(if op == "degr" {
                    let (pct, floor) = match val.split_once(',') {
                        Some((pct, floor)) => (parse_num(pct)?, parse_num(floor)?),
                        None => (parse_num(val)?, 0),
                    };
                    (CmpOp::Ge, pct, TriggerMode::DegradationPct, floor)
                } else {
                    (
                        CmpOp::from_mnemonic(op)?,
                        parse_num(val)?,
                        TriggerMode::Level,
                        0,
                    )
                });
            } else {
                return Err(FwError::BadCommand(tok.to_string()));
            }
        }
        let (Some(cpa), Some(ldom), Some(action), Some(stats), Some((op, value, mode, floor))) =
            (cpa, ldom, action, stats, cond)
        else {
            return Err(FwError::BadCommand(rest.to_string()));
        };
        self.pardtrigger_with_mode(cpa, DsId::new(ldom), action, &stats, op, value, mode, floor)?;
        Ok(String::new())
    }

    // ----------------------------------------------------------- service

    /// Updates the firmware's notion of time (called by the PRM tick).
    pub fn set_now(&mut self, now: Time) {
        self.now = now;
        self.metrics.set_now(now);
        *self.esc_now.lock() = now;
    }

    /// Raises a fleet escalation natively (the script path writes
    /// `/sys/fleet/escalate` instead; both land in the same queue).
    pub fn escalate(&mut self, ds: u16, reason: impl Into<String>) {
        let reason = reason.into();
        self.log(format!("escalate: ldom{ds} {reason}"));
        self.escalations.lock().push(Escalation {
            at: self.now,
            ds,
            reason,
        });
    }

    /// Escalations queued and not yet taken.
    pub fn pending_escalations(&self) -> usize {
        self.escalations.lock().len()
    }

    /// Drains the escalation queue (the fleet manager calls this between
    /// epochs).
    pub fn take_escalations(&mut self) -> Vec<Escalation> {
        std::mem::take(&mut *self.escalations.lock())
    }

    /// A machine-wide per-DS-id statistics snapshot, stamped with the
    /// firmware's current time. Also readable as JSON through the device
    /// file tree at `/sys/stats/snapshot`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.now)
    }

    /// A clone of the metrics registry (for exit-time dumps that outlive
    /// the firmware lock).
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Appends a log line.
    pub fn log(&mut self, message: impl Into<String>) {
        self.log.push((self.now, message.into()));
    }

    /// The firmware log.
    pub fn log_entries(&self) -> &[(Time, String)] {
        &self.log
    }

    /// Takes the queued core-control commands (drained by the PRM tick).
    pub fn take_core_cmds(&mut self) -> Vec<(ComponentId, CoreCommand)> {
        std::mem::take(&mut self.pending_core_cmds)
    }
}

impl ScriptIo for Firmware {
    fn cat(&mut self, path: &str) -> Result<String, FwError> {
        self.read(path)
    }
    fn echo(&mut self, path: &str, value: &str) -> Result<(), FwError> {
        // Scripts may log by echoing into /log/*; create those on demand.
        if path.starts_with("/log/") && !self.tree.exists(path) {
            self.tree.install(path, Node::Data(String::new()))?;
        }
        self.write(path, value)
    }
    fn log(&mut self, message: &str) {
        Firmware::log(self, message.to_string());
    }
}

fn cpa_access(
    regfile: &Arc<Mutex<CpaRegisterFile>>,
    ds: DsId,
    offset: usize,
    table: TableSel,
    write: Option<u64>,
) -> Result<u64, FwError> {
    let mut rf = regfile.lock();
    let addr = CpAddr::new(ds, offset as u16, table);
    rf.write(REG_ADDR, addr.encode().into())?;
    match write {
        Some(v) => {
            rf.write(REG_DATA, v)?;
            rf.write(REG_CMD, CpCommand::Write.encode().into())?;
            Ok(v)
        }
        None => {
            rf.write(REG_CMD, CpCommand::Read.encode().into())?;
            Ok(rf.read(REG_DATA)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_cache::llc_control_plane;
    use pard_cp::shared;
    use pard_dram::mem_control_plane;

    fn fw_with_planes() -> (Firmware, CpHandle, CpHandle) {
        let mut fw = Firmware::new(FirmwareConfig {
            mem_capacity: 1 << 30,
            max_ds: 16,
        });
        let cache = shared(llc_control_plane(16, 8));
        let mem = shared(mem_control_plane(16, 8));
        fw.register_cpa(cache.clone()); // cpa0
        fw.register_cpa(mem.clone()); // cpa1
        (fw, cache, mem)
    }

    #[test]
    fn cpa_mounts_expose_ident_and_type() {
        let (mut fw, _, _) = fw_with_planes();
        assert_eq!(fw.read("/sys/cpa/cpa0/ident").unwrap(), "CACHE_CP");
        assert_eq!(fw.read("/sys/cpa/cpa0/type").unwrap(), "C");
        assert_eq!(fw.read("/sys/cpa/cpa1/ident").unwrap(), "MEMORY_CP");
        assert_eq!(fw.read("/sys/cpa/cpa1/type").unwrap(), "M");
        assert_eq!(fw.cpa_of_type(CpType::Cache), Some(0));
        assert_eq!(fw.cpa_of_type(CpType::Memory), Some(1));
        assert_eq!(fw.cpa_of_type(CpType::Nic), None);
    }

    #[test]
    fn policy_tree_installs_reads_and_resets_programs() {
        let (mut fw, _, mem) = fw_with_planes();
        // The memory plane boots with no policy (the controller installs
        // its built-in default when constructed); install one as data.
        fw.write(
            "/sys/policy/cpa1/program",
            "when all do rank wfq(param.wfq_weight)",
        )
        .unwrap();
        assert!(mem.lock().policy_installed());
        assert_eq!(
            fw.read("/sys/policy/cpa1/program").unwrap(),
            "when all do rank wfq(param.wfq_weight)"
        );

        // A bad program is a typed error naming the offending token, and
        // the previous program stays in force.
        let err = fw
            .write("/sys/policy/cpa1/program", "when all do rnak 1")
            .unwrap_err();
        match err {
            FwError::Cp(e) => assert!(e.to_string().contains("rnak"), "got: {e}"),
            other => panic!("expected a control-plane error, got {other}"),
        }
        assert!(mem.lock().policy_installed());

        fw.write("/sys/policy/cpa1/program", "reset").unwrap();
        assert!(!mem.lock().policy_installed());
    }

    #[test]
    fn pardpolicy_shell_verb_round_trips() {
        let (mut fw, _, mem) = fw_with_planes();
        fw.shell("pardpolicy /dev/cpa1 install when ds == 1 do urgent ; when all do rank 1")
            .unwrap();
        assert!(mem.lock().policy_installed());
        let shown = fw.shell("pardpolicy /dev/cpa1 show").unwrap();
        assert!(shown.contains("urgent"), "got: {shown}");
        fw.shell("pardpolicy /dev/cpa1 reset").unwrap();
        assert!(!mem.lock().policy_installed());

        // Malformed invocations are typed parse errors, never panics.
        assert!(matches!(
            fw.shell("pardpolicy /dev/cpa1"),
            Err(FwError::BadCommand(_))
        ));
        assert!(matches!(
            fw.shell("pardpolicy /dev/zero show"),
            Err(FwError::BadCommand(_))
        ));
        assert!(matches!(
            fw.shell("pardpolicy /dev/cpa1 frobnicate"),
            Err(FwError::BadCommand(_))
        ));
        assert!(matches!(
            fw.shell("pardpolicy /dev/cpa1 install when all do rnak 1"),
            Err(FwError::Cp(_))
        ));
    }

    #[test]
    fn create_ldom_programs_planes_and_mounts_tree() {
        let (mut fw, cache, mem) = fw_with_planes();
        let ds = fw
            .create_ldom(LDomSpec::new("test", vec![0], 256 << 20).high_priority())
            .unwrap();
        assert_eq!(ds, DsId::new(0));

        // Tree mounted.
        assert!(fw
            .tree()
            .exists("/sys/cpa/cpa0/ldoms/ldom0/parameters/waymask"));
        assert!(fw
            .tree()
            .exists("/sys/cpa/cpa1/ldoms/ldom0/statistics/avg_qlat"));

        // Planes programmed.
        assert_eq!(cache.lock().param(ds, "waymask").unwrap(), 0xFFFF);
        assert_eq!(mem.lock().param(ds, "addr_limit").unwrap(), 256 << 20);
        assert_eq!(mem.lock().param(ds, "priority").unwrap(), 1);
        assert_eq!(mem.lock().param(ds, "rowbuf").unwrap(), 1);

        // Second LDom gets disjoint memory.
        let ds2 = fw
            .create_ldom(LDomSpec::new("t2", vec![1], 256 << 20))
            .unwrap();
        let b0 = fw.ldom(ds).unwrap().mem_base;
        let b1 = fw.ldom(ds2).unwrap().mem_base;
        assert_ne!(b0, b1);
        assert_eq!(mem.lock().param(ds2, "priority").unwrap(), 0);
    }

    #[test]
    fn file_writes_reach_the_parameter_table_via_cpa() {
        let (mut fw, cache, _) = fw_with_planes();
        let ds = fw
            .create_ldom(LDomSpec::new("t", vec![0], 1 << 20))
            .unwrap();
        fw.write("/sys/cpa/cpa0/ldoms/ldom0/parameters/waymask", "0xFF00")
            .unwrap();
        assert_eq!(cache.lock().param(ds, "waymask").unwrap(), 0xFF00);
        assert_eq!(
            fw.read("/sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
                .unwrap(),
            0xFF00u64.to_string()
        );
    }

    #[test]
    fn statistics_are_readable_through_the_tree() {
        let (mut fw, cache, _) = fw_with_planes();
        let ds = fw
            .create_ldom(LDomSpec::new("t", vec![0], 1 << 20))
            .unwrap();
        let stats = cache.lock().stats_handle();
        stats.set(ds, stats.key("miss_rate").unwrap(), 42).unwrap();
        assert_eq!(
            fw.read("/sys/cpa/cpa0/ldoms/ldom0/statistics/miss_rate")
                .unwrap(),
            "42"
        );
    }

    #[test]
    fn trigger_fires_script_action_that_reprograms_the_cache() {
        let (mut fw, cache, _) = fw_with_planes();
        let ds = fw
            .create_ldom(LDomSpec::new("mc", vec![0], 1 << 20))
            .unwrap();

        // The Figure 9 policy: LLC.MissRate > 30% => grow to half the LLC.
        fw.pardtrigger(0, ds, 0, "miss_rate", CmpOp::Gt, 30)
            .unwrap();
        fw.register_action(
            "/cpa0_ldom0_t0.sh",
            Action::Script(
                r#"
log "trigger: growing ldom $DS cache partition"
echo 0xFF00 > /sys/cpa/cpa$CPA/ldoms/ldom$DS/parameters/waymask
"#
                .to_string(),
            ),
        );
        fw.write("/sys/cpa/cpa0/ldoms/ldom0/triggers/0", "/cpa0_ldom0_t0.sh")
            .unwrap();

        // Simulate the LLC hitting 45% miss rate at a window boundary.
        {
            let mut cp = cache.lock();
            let key = cp.stats().key("miss_rate").unwrap();
            cp.stats().set(ds, key, 45).unwrap();
            cp.evaluate_triggers(ds, Time::from_ms(5));
        }
        assert_eq!(fw.service_interrupts(), 1);
        assert_eq!(cache.lock().param(ds, "waymask").unwrap(), 0xFF00);
        assert!(fw
            .log_entries()
            .iter()
            .any(|(_, m)| m.contains("growing ldom 0")));
    }

    #[test]
    fn native_actions_run() {
        let (mut fw, cache, _) = fw_with_planes();
        let ds = fw
            .create_ldom(LDomSpec::new("t", vec![0], 1 << 20))
            .unwrap();
        fw.pardtrigger(0, ds, 7, "miss_rate", CmpOp::Ge, 1).unwrap();
        fw.register_action(
            "grow",
            Action::Native(Box::new(|fw, env| {
                let path = format!(
                    "/sys/cpa/cpa{}/ldoms/ldom{}/parameters/waymask",
                    env.cpa,
                    env.ds.raw()
                );
                fw.write(&path, "0x000F").unwrap();
            })),
        );
        fw.write("/sys/cpa/cpa0/ldoms/ldom0/triggers/7", "grow")
            .unwrap();
        {
            let mut cp = cache.lock();
            let key = cp.stats().key("miss_rate").unwrap();
            cp.stats().set(ds, key, 10).unwrap();
            cp.evaluate_triggers(ds, Time::ZERO);
        }
        fw.service_interrupts();
        assert_eq!(cache.lock().param(ds, "waymask").unwrap(), 0x000F);
    }

    #[test]
    fn shell_commands_work() {
        let (mut fw, cache, _) = fw_with_planes();
        let ds = fw
            .create_ldom(LDomSpec::new("t", vec![0], 1 << 20))
            .unwrap();
        fw.shell("echo 0x00FF > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
            .unwrap();
        assert_eq!(cache.lock().param(ds, "waymask").unwrap(), 0x00FF);
        assert_eq!(
            fw.shell("cat /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
                .unwrap(),
            255.to_string()
        );
        let ls = fw.shell("ls /sys/cpa/cpa0/ldoms/ldom0").unwrap();
        assert_eq!(ls, "parameters\nstatistics\ntriggers");
        fw.shell("pardtrigger /dev/cpa0 -ldom=0 -action=0 -stats=miss_rate -cond=gt,30")
            .unwrap();
        assert!(cache.lock().triggers().get(0).is_some());
        assert!(fw.shell("logread").unwrap().contains("pardtrigger"));
        assert!(fw.shell("rm -rf /").is_err());
    }

    #[test]
    fn destroy_ldom_cleans_up() {
        let (mut fw, cache, _) = fw_with_planes();
        let ds = fw
            .create_ldom(LDomSpec::new("t", vec![0], 256 << 20))
            .unwrap();
        fw.write("/sys/cpa/cpa0/ldoms/ldom0/parameters/waymask", "0x1")
            .unwrap();
        fw.destroy_ldom(ds).unwrap();
        assert!(!fw.tree().exists("/sys/cpa/cpa0/ldoms/ldom0"));
        assert_eq!(cache.lock().param(ds, "waymask").unwrap(), 0xFFFF);
        assert!(fw.destroy_ldom(ds).is_err());
        // Memory was freed: a full-capacity LDom fits again.
        fw.create_ldom(LDomSpec::new("big", vec![0], 1 << 30))
            .unwrap();
    }

    #[test]
    fn metrics_snapshot_walks_every_plane_and_mounts_as_a_file() {
        let (mut fw, cache, mem) = fw_with_planes();
        let ds = fw
            .create_ldom(LDomSpec::new("t", vec![0], 1 << 20))
            .unwrap();
        let cstats = cache.lock().stats_handle();
        cstats
            .set(ds, cstats.key("miss_rate").unwrap(), 33)
            .unwrap();
        let mstats = mem.lock().stats_handle();
        mstats
            .set(ds, mstats.key("bandwidth").unwrap(), 1200)
            .unwrap();
        fw.set_now(Time::from_us(7));

        let snap = fw.metrics_snapshot();
        assert_eq!(snap.taken_at, Time::from_us(7));
        assert_eq!(snap.planes.len(), 2);
        assert_eq!(snap.column_total("CACHE_CP", "miss_rate"), 33);
        assert_eq!(snap.column_total("MEMORY_CP", "bandwidth"), 1200);

        // The same data is readable through the device file tree.
        let json = fw.read("/sys/stats/snapshot").unwrap();
        assert!(json.contains("\"ident\": \"CACHE_CP\""));
        assert!(json.contains("\"ident\": \"MEMORY_CP\""));
        assert!(json.contains("\"taken_at_ns\": 7000"));
    }

    #[test]
    fn escalations_flow_from_trigger_script_to_fleet_queue() {
        let (mut fw, cache, _) = fw_with_planes();
        fw.set_now(Time::from_us(3));
        let ds = fw
            .create_ldom(LDomSpec::new("tenant", vec![0], 1 << 20))
            .unwrap();

        // A machine-local trigger whose action escalates to the fleet.
        fw.pardtrigger(0, ds, 0, "miss_rate", CmpOp::Gt, 30)
            .unwrap();
        fw.register_action(
            "/escalate_t0.sh",
            Action::Script("echo overload $DS > /sys/fleet/escalate\n".to_string()),
        );
        fw.write("/sys/cpa/cpa0/ldoms/ldom0/triggers/0", "/escalate_t0.sh")
            .unwrap();
        {
            let mut cp = cache.lock();
            let key = cp.stats().key("miss_rate").unwrap();
            cp.stats().set(ds, key, 45).unwrap();
            cp.evaluate_triggers(ds, Time::from_ms(1));
        }
        assert_eq!(fw.service_interrupts(), 1);
        assert_eq!(fw.read("/sys/fleet/escalate").unwrap(), "1");

        // The native path lands in the same queue.
        fw.escalate(7, "slo_breach");
        let taken = fw.take_escalations();
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].ds, 0);
        assert_eq!(taken[0].reason, "overload");
        assert_eq!(taken[0].at, Time::from_us(3));
        assert_eq!(taken[1].ds, 7);
        assert!(fw.take_escalations().is_empty());
        assert_eq!(fw.pending_escalations(), 0);

        // Malformed writes are typed errors, not silent drops.
        assert!(matches!(
            fw.write("/sys/fleet/escalate", "no-ds-here"),
            Err(FwError::BadCommand(_))
        ));
        assert!(matches!(
            fw.write("/sys/fleet/escalate", "overload banana"),
            Err(FwError::BadCommand(_))
        ));
    }

    #[test]
    fn ds_ids_are_sequential_and_bounded() {
        let mut fw = Firmware::new(FirmwareConfig {
            mem_capacity: 1 << 30,
            max_ds: 2,
        });
        let a = fw.create_ldom(LDomSpec::new("a", vec![], 1)).unwrap();
        let b = fw.create_ldom(LDomSpec::new("b", vec![], 1)).unwrap();
        assert_eq!((a.raw(), b.raw()), (0, 1));
        assert!(matches!(
            fw.create_ldom(LDomSpec::new("c", vec![], 1)),
            Err(FwError::OutOfDsIds)
        ));
    }
}
