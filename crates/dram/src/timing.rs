//! DDR3 timing parameters.

use pard_icn::{mem_cycles, MEM_CYCLE};
use pard_sim::Time;

/// DDR3 timing parameters (Table 2: DDR3-1600 11-11-11, Micron
/// MT41J512M8-class 4 Gbit chips).
///
/// All values are stored as [`Time`] (quarter-nanoseconds), already rounded
/// to memory-cycle multiples where JEDEC specifies cycles.
///
/// # Example
///
/// ```
/// use pard_dram::DramTiming;
/// let t = DramTiming::ddr3_1600_11();
/// assert_eq!(t.tcl.as_ns(), 13.75);
/// assert_eq!(t.burst_time().as_ns(), 5.0); // BL8 on an 8n-prefetch bus
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Memory-bus clock period (tCK).
    pub tck: Time,
    /// RAS-to-CAS delay (activate → read/write).
    pub trcd: Time,
    /// CAS latency (read → first data).
    pub tcl: Time,
    /// Row-precharge time.
    pub trp: Time,
    /// Minimum row-active time (activate → precharge).
    pub tras: Time,
    /// Activate-to-activate delay, different banks of the same rank.
    pub trrd: Time,
    /// Column-command spacing (CAS-to-CAS, same bank).
    pub tccd: Time,
    /// Burst length in beats.
    pub burst_len: u32,
    /// Data-bus width in bytes.
    pub bus_bytes: u32,
}

impl DramTiming {
    /// The paper's Table 2 configuration: DDR3-1600 11-11-11,
    /// tRCD = tCL = tRP = 13.75 ns, tRAS = 35 ns, tRRD = 6 ns, BL8.
    pub fn ddr3_1600_11() -> Self {
        DramTiming {
            tck: MEM_CYCLE,
            trcd: mem_cycles(11),
            tcl: mem_cycles(11),
            trp: mem_cycles(11),
            tras: Time::from_ns(35),
            trrd: Time::from_ns(6),
            tccd: mem_cycles(4),
            burst_len: 8,
            bus_bytes: 8,
        }
    }

    /// Time to stream one burst on the data bus: `BL/2 × tCK` on a
    /// double-data-rate bus.
    pub fn burst_time(&self) -> Time {
        self.tck * u64::from(self.burst_len / 2)
    }

    /// Bytes delivered per burst.
    pub fn burst_bytes(&self) -> u32 {
        self.burst_len * self.bus_bytes
    }

    /// Number of bursts needed for a payload of `bytes`.
    ///
    /// Costs no division for a payload of at most one burst (every
    /// cache-line request); only multi-burst DMA divides.
    #[inline]
    pub fn bursts_for(&self, bytes: u32) -> u64 {
        let per_burst = self.burst_bytes();
        if bytes <= per_burst {
            1
        } else {
            u64::from(bytes.div_ceil(per_burst))
        }
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::ddr3_1600_11()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let t = DramTiming::ddr3_1600_11();
        assert_eq!(t.tck.as_ns(), 1.25);
        assert_eq!(t.trcd.as_ns(), 13.75);
        assert_eq!(t.trp.as_ns(), 13.75);
        assert_eq!(t.tras.as_ns(), 35.0);
        assert_eq!(t.trrd.as_ns(), 6.0);
    }

    #[test]
    fn burst_math() {
        let t = DramTiming::ddr3_1600_11();
        assert_eq!(t.burst_bytes(), 64);
        assert_eq!(t.bursts_for(64), 1);
        assert_eq!(t.bursts_for(65), 2);
        assert_eq!(t.bursts_for(4096), 64);
        assert_eq!(t.bursts_for(1), 1);
        assert_eq!(t.burst_time(), mem_cycles(4));
    }

    #[test]
    fn bursts_for_matches_ceiling_division_at_any_burst_size() {
        for (burst_len, bus_bytes) in [(8, 8), (4, 8), (8, 6), (3, 5)] {
            let t = DramTiming {
                burst_len,
                bus_bytes,
                ..DramTiming::ddr3_1600_11()
            };
            for bytes in (0..700).chain([4095, 4096, 4097, u32::MAX]) {
                let want = u64::from(bytes.div_ceil(t.burst_bytes()).max(1));
                assert_eq!(t.bursts_for(bytes), want, "{bytes} B at {t:?}");
            }
        }
    }
}
