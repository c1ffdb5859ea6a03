//! Non-homogeneous arrival processes for the fleet's tenant population.
//!
//! The rack-scale consolidation experiment (`pard-fleet`, fig_fleet)
//! drives each tenant with traffic shaped like a real service's: a
//! diurnal sinusoid (day/night load swing) with optional **flash crowds**
//! (a promotion, a news spike) multiplying the rate over a window. Both
//! shapes compose into a [`RateProfile`]; [`ModulatedArrivals`] samples a
//! non-homogeneous Poisson process with that rate by *thinning*: candidate
//! arrivals are drawn at the profile's peak rate and accepted with
//! probability `rate(t) / peak` — exact for any bounded rate function,
//! and deterministic given the seed.
//!
//! A [`ModulatedArrivals`] also carries a **dispatch scale** in `[0, 1]`,
//! the load balancer's per-machine traffic share for the tenant: the fleet
//! manager re-shards a tenant by scaling one machine's replica down and
//! another's up, without disturbing either RNG stream. Scale 0 (a drained
//! replica) yields no arrivals and consumes no randomness, so a later
//! scale-up resumes the stream exactly where it paused.

use pard_sim::rng::{stream_rng, Rng, Xoshiro256pp};
use pard_sim::Time;

use crate::generators::PoissonArrivals;

/// Arrival time returned by a fully drained process (scale 0): far enough
/// in the future that no bounded experiment reaches it, while leaving
/// headroom for `Time` arithmetic.
pub const NEVER: Time = Time::from_units(u64::MAX / 4);

/// A flash-crowd window: the rate is multiplied by `multiplier` for
/// `start <= t < end`.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Window start (absolute simulated time).
    pub start: Time,
    /// Window end (exclusive).
    pub end: Time,
    /// Rate multiplier over the window (≥ 0; > 1 is a crowd, < 1 an
    /// outage-shaped dip).
    pub multiplier: f64,
}

/// A deterministic, time-varying request-rate profile.
#[derive(Debug, Clone)]
pub struct RateProfile {
    /// Baseline rate in requests per second.
    pub base_rps: f64,
    /// Diurnal swing amplitude in `[0, 1)`: the rate oscillates between
    /// `base * (1 - a)` and `base * (1 + a)`.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid (a simulated "day").
    pub diurnal_period: Time,
    /// Phase offset in fractions of a period (tenants peak at different
    /// hours).
    pub diurnal_phase: f64,
    /// Flash-crowd windows (may overlap; multipliers compose).
    pub flash: Vec<FlashCrowd>,
}

impl RateProfile {
    /// A flat profile: plain Poisson at `base_rps`.
    pub fn constant(base_rps: f64) -> Self {
        RateProfile {
            base_rps,
            diurnal_amplitude: 0.0,
            diurnal_period: Time::from_ms(100),
            diurnal_phase: 0.0,
            flash: Vec::new(),
        }
    }

    /// The instantaneous rate at absolute time `t`, in requests/second.
    pub fn rate_at(&self, t: Time) -> f64 {
        let cycles = t.units() as f64 / self.diurnal_period.units().max(1) as f64;
        let angle = std::f64::consts::TAU * (cycles + self.diurnal_phase);
        let mut rate = self.base_rps * (1.0 + self.diurnal_amplitude * angle.sin());
        for f in &self.flash {
            if t >= f.start && t < f.end {
                rate *= f.multiplier;
            }
        }
        rate.max(0.0)
    }

    /// An upper bound on [`rate_at`](Self::rate_at) over all time — the thinning
    /// envelope. Overlapping flash windows are bounded conservatively by
    /// the product of all multipliers above 1.
    pub fn peak(&self) -> f64 {
        let mut peak = self.base_rps * (1.0 + self.diurnal_amplitude);
        for f in &self.flash {
            if f.multiplier > 1.0 {
                peak *= f.multiplier;
            }
        }
        peak
    }
}

/// A non-homogeneous Poisson arrival process over a [`RateProfile`],
/// sampled by thinning, with a load-balancer dispatch scale.
#[derive(Debug, Clone)]
pub struct ModulatedArrivals {
    profile: RateProfile,
    peak: f64,
    scale: f64,
    next: Time,
    rng: Xoshiro256pp,
}

impl ModulatedArrivals {
    /// Creates the process, seeded deterministically from `(seed, stream)`.
    ///
    /// # Panics
    ///
    /// Panics if the profile's peak rate is not strictly positive or its
    /// amplitude is outside `[0, 1)`.
    pub fn new(profile: RateProfile, seed: u64, stream: &str) -> Self {
        Self::with_rng(profile, stream_rng(seed, stream))
    }

    /// Creates the process, forking its randomness off `rng`.
    pub fn from_rng(profile: RateProfile, rng: &mut impl Rng) -> Self {
        Self::with_rng(profile, Xoshiro256pp::seed_from_u64(rng.next_u64()))
    }

    fn with_rng(profile: RateProfile, rng: Xoshiro256pp) -> Self {
        assert!(
            profile.peak() > 0.0,
            "rate profile must have a positive peak"
        );
        assert!(
            (0.0..1.0).contains(&profile.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
        ModulatedArrivals {
            peak: profile.peak(),
            profile,
            scale: 1.0,
            next: Time::ZERO,
            rng,
        }
    }

    /// The current dispatch scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Sets the dispatch scale (the load balancer's traffic share for
    /// this replica).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is outside `[0, 1]` — the thinning envelope is
    /// computed for at most the full profile rate.
    pub fn set_scale(&mut self, scale: f64) {
        assert!(
            (0.0..=1.0).contains(&scale),
            "dispatch scale must be in [0, 1], got {scale}"
        );
        self.scale = scale;
    }

    /// The profile driving this process.
    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// Fast-forwards the process so no arrival is generated before `t`,
    /// without consuming randomness. A replica admitted mid-run (fleet
    /// re-shard or migration) must start its stream at the machine's
    /// current time: the process otherwise replays every arrival since
    /// time zero as an instantaneous — and entirely fictitious — backlog.
    pub fn skip_until(&mut self, t: Time) {
        if self.next < t {
            self.next = t;
        }
    }

    /// Returns the next arrival's absolute time and advances the process.
    /// With scale 0 returns [`NEVER`] without consuming randomness.
    pub fn next_arrival(&mut self) -> Time {
        if self.scale <= 0.0 {
            return NEVER;
        }
        loop {
            let u = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let gap_secs = -u.ln() / self.peak;
            self.next += Time::from_units((gap_secs * 4e9).max(1.0) as u64);
            let rate = self.profile.rate_at(self.next) * self.scale;
            if rate > 0.0 && self.rng.gen_f64() < rate / self.peak {
                return self.next;
            }
        }
    }
}

/// The arrival source a request-serving engine draws from: the classic
/// fixed-rate process, or the fleet's modulated one.
#[derive(Debug, Clone)]
pub enum ArrivalSource {
    /// Homogeneous Poisson at a fixed rate.
    Poisson(PoissonArrivals),
    /// Non-homogeneous (diurnal + flash-crowd), load-balancer scaled.
    Modulated(ModulatedArrivals),
}

impl ArrivalSource {
    /// Returns the next arrival's absolute time and advances the process.
    pub fn next_arrival(&mut self) -> Time {
        match self {
            ArrivalSource::Poisson(p) => p.next_arrival(),
            ArrivalSource::Modulated(m) => m.next_arrival(),
        }
    }

    /// Sets the dispatch scale.
    ///
    /// # Panics
    ///
    /// Panics on a fixed-rate source — only modulated processes carry a
    /// dispatch scale, and scaling must never be silently ignored.
    pub fn set_scale(&mut self, scale: f64) {
        match self {
            ArrivalSource::Poisson(_) => {
                panic!("dispatch scale requires a modulated arrival source")
            }
            ArrivalSource::Modulated(m) => m.set_scale(scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_in(arr: &mut ModulatedArrivals, from: Time, to: Time) -> u64 {
        let mut n = 0;
        loop {
            let t = arr.next_arrival();
            if t >= to {
                return n;
            }
            if t >= from {
                n += 1;
            }
        }
    }

    #[test]
    fn constant_profile_matches_poisson_rate() {
        let mut arr = ModulatedArrivals::new(RateProfile::constant(100_000.0), 7, "t");
        let n = count_in(&mut arr, Time::ZERO, Time::from_ms(100));
        // 100 kRPS over 100 ms ≈ 10 000 arrivals.
        assert!((9_000..=11_000).contains(&n), "got {n}");
    }

    #[test]
    fn diurnal_swing_moves_load_between_half_periods() {
        let profile = RateProfile {
            base_rps: 200_000.0,
            diurnal_amplitude: 0.8,
            diurnal_period: Time::from_ms(40),
            diurnal_phase: 0.0,
            flash: Vec::new(),
        };
        let mut arr = ModulatedArrivals::new(profile, 11, "t");
        let up = count_in(&mut arr, Time::ZERO, Time::from_ms(20));
        let mut arr2 = ModulatedArrivals::new(
            RateProfile {
                base_rps: 200_000.0,
                diurnal_amplitude: 0.8,
                diurnal_period: Time::from_ms(40),
                diurnal_phase: 0.0,
                flash: Vec::new(),
            },
            11,
            "t",
        );
        // Skip the first half-period, then count the second.
        let _ = count_in(&mut arr2, Time::ZERO, Time::from_ms(20));
        let down = count_in(&mut arr2, Time::from_ms(20), Time::from_ms(40));
        assert!(
            up as f64 > 2.0 * down as f64,
            "sin>0 half must far outweigh sin<0 half: {up} vs {down}"
        );
    }

    #[test]
    fn flash_crowd_multiplies_the_window() {
        let profile = RateProfile {
            base_rps: 50_000.0,
            diurnal_amplitude: 0.0,
            diurnal_period: Time::from_ms(100),
            diurnal_phase: 0.0,
            flash: vec![FlashCrowd {
                start: Time::from_ms(10),
                end: Time::from_ms(20),
                multiplier: 4.0,
            }],
        };
        let mut arr = ModulatedArrivals::new(profile, 3, "t");
        let before = count_in(&mut arr, Time::ZERO, Time::from_ms(10));
        let during = count_in(&mut arr, Time::from_ms(10), Time::from_ms(20));
        assert!(
            during as f64 > 2.5 * before as f64,
            "flash window must spike: {before} -> {during}"
        );
    }

    #[test]
    fn scale_zero_pauses_without_consuming_randomness() {
        let profile = RateProfile::constant(10_000.0);
        let mut a = ModulatedArrivals::new(profile.clone(), 5, "t");
        let mut b = ModulatedArrivals::new(profile, 5, "t");
        let head: Vec<Time> = (0..8).map(|_| a.next_arrival()).collect();
        // b pauses for a while mid-stream, then resumes.
        let mut resumed: Vec<Time> = (0..3).map(|_| b.next_arrival()).collect();
        b.set_scale(0.0);
        for _ in 0..5 {
            assert_eq!(b.next_arrival(), NEVER);
        }
        b.set_scale(1.0);
        resumed.extend((0..5).map(|_| b.next_arrival()));
        assert_eq!(head, resumed, "pause must not shift the stream");
    }

    #[test]
    fn replays_exactly_for_equal_seeds() {
        let p = RateProfile {
            base_rps: 80_000.0,
            diurnal_amplitude: 0.5,
            diurnal_period: Time::from_ms(30),
            diurnal_phase: 0.25,
            flash: vec![FlashCrowd {
                start: Time::from_ms(5),
                end: Time::from_ms(9),
                multiplier: 3.0,
            }],
        };
        let seq = |seed| {
            let mut m = ModulatedArrivals::new(p.clone(), seed, "replay");
            (0..64)
                .map(|_| m.next_arrival().units())
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }

    #[test]
    #[should_panic(expected = "dispatch scale")]
    fn out_of_range_scale_panics() {
        let mut m = ModulatedArrivals::new(RateProfile::constant(1.0), 1, "t");
        m.set_scale(1.5);
    }
}
