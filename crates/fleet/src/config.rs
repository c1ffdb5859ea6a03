//! Fleet-level configuration and its environment overrides.

use pard_sim::{RunConfig, Time};

/// Per-tier SLO targets the attainment metric scores against.
#[derive(Debug, Clone, Copy)]
pub struct TierSlos {
    /// Guaranteed-tier p95 response-time target.
    pub guaranteed_p95: Time,
    /// Guaranteed-tier p99 response-time target.
    pub guaranteed_p99: Time,
    /// Best-effort p95 target (looser: these tenants bought no guarantee).
    pub best_effort_p95: Time,
    /// Best-effort p99 target.
    pub best_effort_p99: Time,
}

/// Configuration of one fleet experiment run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of PARD machines in the fleet.
    pub machines: usize,
    /// Consolidation ratio: tenants initially placed per machine.
    pub tenants_per_machine: usize,
    /// Number of measurement epochs (the fleet manager reacts at epoch
    /// boundaries).
    pub epochs: usize,
    /// Epochs discarded from SLO attainment (fleet warm-up).
    pub warmup_epochs: usize,
    /// Simulated span of one epoch.
    pub epoch: Time,
    /// Fleet seed; every tenant arrival stream and machine derives from it.
    pub seed: u64,
    /// Baseline request rate of the most popular tenant (tenant 0).
    pub base_rps: f64,
    /// Zipf exponent of tenant popularity: tenant `t` offers
    /// `base_rps * (t+1)^-popularity_s`.
    pub popularity_s: f64,
    /// Diurnal swing amplitude shared by all tenants (each phase-shifted).
    pub diurnal_amplitude: f64,
    /// Flash-crowd multiplier hitting tenant 0 partway through the run.
    pub flash_multiplier: f64,
    /// Epoch index at which the flash crowd starts (runs to the end).
    pub flash_from_epoch: usize,
    /// Absolute floor (MB/s) of the machine-local escalation trigger's
    /// calibrated threshold: the trigger fires when a tenant's memory
    /// bandwidth exceeds [`ESCALATE_FACTOR`](crate::ESCALATE_FACTOR)
    /// times its warm-up mean, but never below this floor, so relative
    /// noise on a near-idle tenant never reaches the fleet manager.
    pub escalate_mbps: u64,
    /// Whether the fleet manager reacts to escalations (re-shard /
    /// migrate) or merely records them (the disarmed baseline).
    pub armed: bool,
    /// SLO targets.
    pub slo: TierSlos,
    /// Every machine's tracer, auditor and fault plan; the manager traces
    /// its reactions into the same tracer. Defaults to what the
    /// environment asks for ([`RunConfig::from_env`]), with no fault plan.
    pub run: RunConfig,
}

impl FleetConfig {
    /// The committed default-scale configuration behind `fig_fleet.json`.
    pub fn default_scale() -> Self {
        FleetConfig {
            machines: 3,
            tenants_per_machine: 2,
            epochs: 8,
            warmup_epochs: 1,
            epoch: Time::from_ms(10),
            seed: 42,
            base_rps: 44_000.0,
            popularity_s: 0.15,
            diurnal_amplitude: 0.1,
            flash_multiplier: 3.0,
            flash_from_epoch: 2,
            escalate_mbps: 150,
            armed: false,
            slo: TierSlos {
                guaranteed_p95: Time::from_us(400),
                guaranteed_p99: Time::from_ms(1),
                best_effort_p95: Time::from_ms(2),
                best_effort_p99: Time::from_ms(5),
            },
            run: RunConfig::from_env(),
        }
    }

    /// Scales the per-epoch span by `scale` (`--quick` / `--full`).
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.epoch = Time::from_units((self.epoch.units() as f64 * scale) as u64);
        self
    }

    /// Total simulated span of the run.
    pub fn total_span(&self) -> Time {
        Time::from_units(self.epoch.units() * self.epochs as u64)
    }

    /// Total tenants across the fleet.
    pub fn tenant_count(&self) -> usize {
        self.machines * self.tenants_per_machine
    }
}

/// Applies `PARD_FLEET_*` environment overrides to `cfg`. Pure: the
/// variables are passed in, so the hard-error contract is unit-testable
/// without touching the process environment. On a malformed value the
/// returned error names the variable; binaries print it and exit 2 —
/// never run with a silently defaulted parameter.
///
/// Recognized: `PARD_FLEET_MACHINES` (>= 2), `PARD_FLEET_TENANTS`
/// (tenants per machine, >= 1), `PARD_FLEET_EPOCHS` (>= 2),
/// `PARD_FLEET_SEED` (u64).
///
/// # Errors
///
/// Returns a message naming the offending variable and value.
pub fn apply_env(mut cfg: FleetConfig, vars: &[(String, String)]) -> Result<FleetConfig, String> {
    for (key, value) in vars {
        match key.as_str() {
            "PARD_FLEET_MACHINES" => {
                cfg.machines = parse_min(key, value, 2)?;
            }
            "PARD_FLEET_TENANTS" => {
                cfg.tenants_per_machine = parse_min(key, value, 1)?;
            }
            "PARD_FLEET_EPOCHS" => {
                cfg.epochs = parse_min(key, value, 2)?;
            }
            "PARD_FLEET_SEED" => {
                cfg.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("{key}: expected a u64 seed, got {value:?}"))?;
            }
            _ => {}
        }
    }
    Ok(cfg)
}

fn parse_min(key: &str, value: &str, min: usize) -> Result<usize, String> {
    let n = value
        .parse::<usize>()
        .map_err(|_| format!("{key}: expected an integer >= {min}, got {value:?}"))?;
    if n < min {
        return Err(format!(
            "{key}: expected an integer >= {min}, got {value:?}"
        ));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn env_overrides_apply_and_malformed_values_name_the_variable() {
        let cfg = apply_env(
            FleetConfig::default_scale(),
            &vars(&[
                ("PARD_FLEET_MACHINES", "4"),
                ("PARD_FLEET_TENANTS", "3"),
                ("PARD_FLEET_EPOCHS", "5"),
                ("PARD_FLEET_SEED", "7"),
                ("UNRELATED", "junk"),
            ]),
        )
        .unwrap();
        assert_eq!(cfg.machines, 4);
        assert_eq!(cfg.tenants_per_machine, 3);
        assert_eq!(cfg.epochs, 5);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.tenant_count(), 12);

        for (k, v) in [
            ("PARD_FLEET_MACHINES", "two"),
            ("PARD_FLEET_MACHINES", "1"),
            ("PARD_FLEET_TENANTS", "0"),
            ("PARD_FLEET_EPOCHS", "-3"),
            ("PARD_FLEET_SEED", "0x2a"),
        ] {
            let err = apply_env(FleetConfig::default_scale(), &vars(&[(k, v)])).unwrap_err();
            assert!(err.contains(k), "error must name {k}: {err}");
            assert!(err.contains(v), "error must show the value {v}: {err}");
        }
    }

    #[test]
    fn scaling_stretches_epochs_only() {
        let cfg = FleetConfig::default_scale().scaled(0.25);
        assert_eq!(cfg.epoch, Time::from_us(2_500));
        assert_eq!(cfg.epochs, FleetConfig::default_scale().epochs);
        assert_eq!(cfg.total_span(), Time::from_ms(20));
    }
}
