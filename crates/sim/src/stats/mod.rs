//! Statistics toolkit shared by all modelled components.
//!
//! Everything a control plane's *statistics table* or an experiment harness
//! needs: windowed counters for rates, latency samples with percentile
//! queries and CDF export (Figure 11), time-series samplers (Figures 7, 9,
//! 10), and online mean/variance.

mod latency;
mod online;
mod timeseries;
mod window;

pub use latency::LatencySample;
pub use online::OnlineStats;
pub use timeseries::TimeSeries;
pub use window::{bytes_per_span_to_gbps, WindowedCounter};
