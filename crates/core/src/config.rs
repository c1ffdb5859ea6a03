//! Whole-system configuration.

use pard_cache::LlcConfig;
use pard_dram::MemCtrlConfig;
use pard_io::{IdeConfig, IoBridgeConfig, NicConfig};
use pard_sim::{RunConfig, Time};

use crate::core_model::CoreConfig;

/// Configuration of a whole PARD server.
///
/// [`SystemConfig::asplos15`] reproduces the paper's Table 2 platform:
/// four 2 GHz out-of-order x86 cores with 64 KB 2-way L1s, a shared 4 MB
/// 16-way LLC (20-cycle hit), 8 GB DDR3-1600 11-11-11 (one channel, two
/// ranks of eight banks, 1 KB rows), a 4-channel IDE controller with eight
/// disks, and a PRM with four control-plane adaptors.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of CPU cores.
    pub cores: usize,
    /// Per-core configuration.
    pub core: CoreConfig,
    /// Shared LLC configuration.
    pub llc: LlcConfig,
    /// Memory-controller configuration.
    pub mem: MemCtrlConfig,
    /// I/O-bridge configuration.
    pub bridge: IoBridgeConfig,
    /// IDE-controller configuration.
    pub ide: IdeConfig,
    /// NIC configuration.
    pub nic: NicConfig,
    /// PRM firmware polling interval (the trigger ⇒ action reaction
    /// latency floor; the PRM runs at 100 MHz).
    pub prm_poll: Time,
    /// Maximum DS-ids across all control planes.
    pub max_ds: usize,
    /// Master switch for PARD's differentiated data-path mechanisms
    /// (memory priority queues + high-priority row buffers). With this
    /// `false` the machine behaves like a conventional server: tags are
    /// still carried (for statistics), but nothing acts on them — the
    /// paper's "without PARD" baseline.
    pub pard_enabled: bool,
    /// Experiment seed. Workload engines and traffic injectors derive
    /// their named streams from it via
    /// [`pard_sim::rng::stream_rng`]`(seed, "<stream>")`, so two servers
    /// built from equal configs replay identical randomness.
    pub seed: u64,
    /// The machine's tracer, auditor and fault plan. Defaults to what
    /// the `PARD_TRACE*` / `PARD_AUDIT*` environment asks for
    /// ([`RunConfig::from_env`]), with no fault plan.
    pub run: RunConfig,
}

impl SystemConfig {
    /// The paper's Table 2 evaluation platform.
    pub fn asplos15() -> Self {
        SystemConfig::default()
    }

    /// A fluent builder starting from the Table 2 platform.
    ///
    /// # Example
    ///
    /// ```
    /// use pard::prelude::*;
    /// let cfg = SystemConfig::builder()
    ///     .cores(2)
    ///     .llc_geometry(1 << 20, 8, 64)
    ///     .seed(7)
    ///     .build();
    /// assert_eq!(cfg.cores, 2);
    /// assert_eq!(cfg.llc.geometry.ways(), 8);
    /// ```
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig::default(),
        }
    }

    /// A smaller, faster-to-simulate platform for tests: two cores, a
    /// 256 KB LLC, 64 MB of memory, short statistics windows.
    pub fn small_test() -> Self {
        let mut cfg = SystemConfig {
            cores: 2,
            ..SystemConfig::default()
        };
        cfg.llc = LlcConfig {
            geometry: pard_cache::CacheGeometry::new(256 * 1024, 16, 64),
            window: Time::from_us(20),
            max_ds: 16,
            ..LlcConfig::default()
        };
        cfg.mem = MemCtrlConfig {
            window: Time::from_us(20),
            max_ds: 16,
            ..MemCtrlConfig::default()
        };
        cfg.bridge = IoBridgeConfig {
            max_ds: 16,
            ..IoBridgeConfig::default()
        };
        cfg.ide = IdeConfig {
            max_ds: 16,
            ..IdeConfig::default()
        };
        cfg.nic = NicConfig {
            max_ds: 16,
            ..NicConfig::default()
        };
        cfg.prm_poll = Time::from_us(20);
        cfg.max_ds = 16;
        cfg
    }

    /// Disables the differentiated data path (the "without PARD"
    /// baseline).
    pub fn without_pard(mut self) -> Self {
        self.pard_enabled = false;
        self.mem.priorities_enabled = false;
        self
    }

    /// Sets consistent `max_ds` across every control plane.
    pub fn with_max_ds(mut self, max_ds: usize) -> Self {
        self.max_ds = max_ds;
        self.llc.max_ds = max_ds;
        self.mem.max_ds = max_ds;
        self.bridge.max_ds = max_ds;
        self.ide.max_ds = max_ds;
        self.nic.max_ds = max_ds;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cores: 4,
            core: CoreConfig::default(),
            llc: LlcConfig::default(),
            mem: MemCtrlConfig::default(),
            bridge: IoBridgeConfig::default(),
            ide: IdeConfig::default(),
            nic: NicConfig::default(),
            prm_poll: Time::from_us(100),
            max_ds: 256,
            pard_enabled: true,
            seed: 0,
            run: RunConfig::from_env(),
        }
    }
}

/// Fluent constructor for [`SystemConfig`], obtained from
/// [`SystemConfig::builder`]. Every setter returns `self`; finish with
/// [`build`](SystemConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Sets the number of CPU cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cfg.cores = cores;
        self
    }

    /// Sets the shared LLC's geometry (total bytes, associativity, line
    /// size).
    pub fn llc_geometry(mut self, size_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        self.cfg.llc.geometry = pard_cache::CacheGeometry::new(size_bytes, ways, line_bytes);
        self
    }

    /// Sets the control planes' statistics window.
    pub fn stats_window(mut self, window: Time) -> Self {
        self.cfg.llc.window = window;
        self.cfg.mem.window = window;
        self
    }

    /// Sets the DRAM timing parameters.
    pub fn dram_timing(mut self, timing: pard_dram::DramTiming) -> Self {
        self.cfg.mem.timing = timing;
        self
    }

    /// Sets the DRAM organisation.
    pub fn dram_geometry(mut self, geometry: pard_dram::DramGeometry) -> Self {
        self.cfg.mem.geometry = geometry;
        self
    }

    /// Sets the PRM firmware polling interval.
    pub fn prm_poll(mut self, poll: Time) -> Self {
        self.cfg.prm_poll = poll;
        self
    }

    /// Sets `max_ds` consistently across every control plane.
    pub fn max_ds(mut self, max_ds: usize) -> Self {
        self.cfg = self.cfg.with_max_ds(max_ds);
        self
    }

    /// Enables or disables the differentiated data path.
    pub fn pard_enabled(mut self, enabled: bool) -> Self {
        self.cfg.pard_enabled = enabled;
        if !enabled {
            self.cfg.mem.priorities_enabled = false;
        }
        self
    }

    /// Sets the experiment seed for derived RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SystemConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_platform_shape() {
        let cfg = SystemConfig::asplos15();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.llc.geometry.size_bytes(), 4 * 1024 * 1024);
        assert_eq!(cfg.llc.geometry.ways(), 16);
        assert_eq!(cfg.core.l1.size_bytes(), 64 * 1024);
        assert_eq!(cfg.mem.geometry.total_banks(), 16);
        assert_eq!(cfg.ide.channels, 4);
        assert_eq!(cfg.ide.disks, 8);
        assert!(cfg.pard_enabled);
    }

    #[test]
    fn without_pard_disables_memory_priorities() {
        let cfg = SystemConfig::asplos15().without_pard();
        assert!(!cfg.pard_enabled);
        assert!(!cfg.mem.priorities_enabled);
    }

    #[test]
    fn with_max_ds_propagates() {
        let cfg = SystemConfig::asplos15().with_max_ds(32);
        assert_eq!(cfg.llc.max_ds, 32);
        assert_eq!(cfg.mem.max_ds, 32);
        assert_eq!(cfg.bridge.max_ds, 32);
        assert_eq!(cfg.ide.max_ds, 32);
        assert_eq!(cfg.nic.max_ds, 32);
    }

    #[test]
    fn builder_defaults_match_the_preset() {
        let built = SystemConfig::builder().build();
        let preset = SystemConfig::asplos15();
        assert_eq!(built.cores, preset.cores);
        assert_eq!(built.max_ds, preset.max_ds);
        assert_eq!(built.seed, preset.seed);
        assert_eq!(
            built.llc.geometry.size_bytes(),
            preset.llc.geometry.size_bytes()
        );
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = SystemConfig::builder()
            .cores(8)
            .llc_geometry(2 << 20, 8, 64)
            .stats_window(Time::from_us(50))
            .prm_poll(Time::from_us(10))
            .max_ds(64)
            .pard_enabled(false)
            .seed(1234)
            .build();
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.llc.geometry.size_bytes(), 2 << 20);
        assert_eq!(cfg.llc.geometry.ways(), 8);
        assert_eq!(cfg.llc.window, Time::from_us(50));
        assert_eq!(cfg.mem.window, Time::from_us(50));
        assert_eq!(cfg.prm_poll, Time::from_us(10));
        assert_eq!(cfg.nic.max_ds, 64);
        assert!(!cfg.pard_enabled);
        assert!(!cfg.mem.priorities_enabled);
        assert_eq!(cfg.seed, 1234);
    }
}
