//! Shipped trigger-driven **recovery actions** — the resilience playbook.
//!
//! The fault-injection layer ([`pard_sim::fault`]) degrades service inside
//! component models; the control planes observe the degradation through
//! their statistics tables; a [`TriggerMode::DegradationPct`] trigger
//! (installed via [`Firmware::pardtrigger_with_mode`] or the shell's
//! `-cond=degr,N` form) raises an interrupt; and the firmware dispatches
//! one of the [`pardscript`](crate::script) programs below. Each script
//! manipulates only the `/sys` device-file tree — exactly what an operator
//! at the PRM console could type by hand — so recovery is an *exercise of
//! the paper's "trigger ⇒ action" methodology*, not a privileged backdoor
//! into the models:
//!
//! * [`dram_reprioritize`] — flip the LDom's memory-controller `priority`
//!   and `rowbuf` parameters on `cpa1` so its requests bypass the
//!   admission gate that faulted banks are congesting,
//! * [`llc_rebalance`] — widen the LDom's `waymask` on `cpa0` so cache
//!   misses stop amplifying the slow DRAM path,
//! * [`ide_raise_quota`] — raise the LDom's `bandwidth` share on `cpa3`
//!   to outweigh fault-degraded disk quanta,
//! * [`composite`] — all three in one handler (the action `fig_fault`
//!   binds to its degradation trigger), and
//! * [`install_composite`] — registers the composite under a name.
//!
//! All scripts expand `$DS` (the watched LDom's DS-id) at dispatch time,
//! so one registered action serves any LDom whose trigger names it.
//!
//! [`TriggerMode::DegradationPct`]: pard_cp::TriggerMode::DegradationPct

use crate::firmware::{Action, Firmware};

/// Pardscript: raise the dispatching LDom's DRAM service class on `cpa1`.
///
/// Sets `priority=1` (bypass the bus admission gate) and `rowbuf=1`
/// (reserved row-buffer policy), and logs the old priority for the
/// operator's audit trail.
#[must_use]
pub fn dram_reprioritize() -> String {
    r#"old=$(cat /sys/cpa/cpa1/ldoms/ldom$DS/parameters/priority)
echo 1 > /sys/cpa/cpa1/ldoms/ldom$DS/parameters/priority
echo 1 > /sys/cpa/cpa1/ldoms/ldom$DS/parameters/rowbuf
log "recovery: ldom$DS dram priority $old -> 1 (rowbuf on)"
"#
    .to_string()
}

/// Pardscript: widen the dispatching LDom's LLC `waymask` on `cpa0` by
/// OR-ing in `extra_ways` (a way-bit mask, e.g. `0xFF00`), optionally
/// reassigning those ways *from* a donor LDom by writing the donor's new
/// mask. Without the donor step the widened ways stay shared with their
/// previous owner, whose allocations keep evicting the protected LDom's
/// lines — widening alone is not a transfer of capacity.
#[must_use]
pub fn llc_rebalance(extra_ways: u64, donor: Option<(u32, u64)>) -> String {
    let mut s = format!(
        r#"cur=$(cat /sys/cpa/cpa0/ldoms/ldom$DS/parameters/waymask)
new=$((cur | {extra_ways:#x}))
echo $new > /sys/cpa/cpa0/ldoms/ldom$DS/parameters/waymask
log "recovery: ldom$DS waymask $cur -> $new"
"#
    );
    if let Some((donor_ldom, donor_mask)) = donor {
        s.push_str(&format!(
            r#"dcur=$(cat /sys/cpa/cpa0/ldoms/ldom{donor_ldom}/parameters/waymask)
echo {donor_mask:#x} > /sys/cpa/cpa0/ldoms/ldom{donor_ldom}/parameters/waymask
log "recovery: donor ldom{donor_ldom} waymask $dcur -> {donor_mask:#x}"
"#
        ));
    }
    s
}

/// Pardscript: raise the dispatching LDom's IDE `bandwidth` share on
/// `cpa3` to `quota` (a proportional-share weight).
#[must_use]
pub fn ide_raise_quota(quota: u64) -> String {
    format!(
        r#"old=$(cat /sys/cpa/cpa3/ldoms/ldom$DS/parameters/bandwidth)
echo {quota} > /sys/cpa/cpa3/ldoms/ldom$DS/parameters/bandwidth
log "recovery: ldom$DS ide quota $old -> {quota}"
"#
    )
}

/// The composite recovery handler: DRAM re-prioritisation, LLC way
/// rebalance (optionally reclaiming the ways from a donor LDom), and IDE
/// quota raise in one script, guarded so it is idempotent when the
/// level-latched trigger re-fires after re-arming.
#[must_use]
pub fn composite(extra_ways: u64, donor: Option<(u32, u64)>, ide_quota: u64) -> String {
    format!(
        r#"log "recovery: degradation trigger fired for ldom$DS (cpa$CPA slot $SLOT)"
prio=$(cat /sys/cpa/cpa1/ldoms/ldom$DS/parameters/priority)
if [ $prio -eq 0 ]; then
{}{}{}else
    log "recovery: ldom$DS already promoted"
fi
"#,
        indent(&dram_reprioritize()),
        indent(&llc_rebalance(extra_ways, donor)),
        indent(&ide_raise_quota(ide_quota)),
    )
}

/// Registers [`composite`] under `name` so a `triggers/{action}` leaf can
/// bind to it.
pub fn install_composite(
    fw: &mut Firmware,
    name: &str,
    extra_ways: u64,
    donor: Option<(u32, u64)>,
    ide_quota: u64,
) {
    fw.register_action(
        name,
        Action::Script(composite(extra_ways, donor, ide_quota)),
    );
}

fn indent(script: &str) -> String {
    script
        .lines()
        .map(|l| format!("    {l}\n"))
        .collect::<String>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_scripts_have_expected_shape() {
        let c = composite(0xFF00, Some((1, 0x00F0)), 80);
        assert!(c.contains("parameters/priority"));
        assert!(c.contains("parameters/waymask"));
        assert!(c.contains("parameters/bandwidth"));
        assert!(c.contains("0xff00"));
        assert!(c.contains("echo 80 >"));
        // The donor's ways are reassigned by constant, not widened.
        assert!(c.contains("echo 0xf0 > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask"));
        // Idempotence guard wraps the mutating body.
        assert!(c.contains("if [ $prio -eq 0 ]; then"));
        assert!(ide_raise_quota(50).contains("cpa3"));
        assert!(dram_reprioritize().contains("cpa1"));
        assert!(llc_rebalance(1, None).contains("cpa0"));
        assert!(!llc_rebalance(1, None).contains("donor"));
    }
}
