//! # irs-metrics — statistics and reporting
//!
//! Small, dependency-free statistics used across the reproduction:
//!
//! * [`Summary`] — the mean of f64 samples.
//! * [`percentile`] — nearest-rank percentiles for latency distributions
//!   (the 99th-percentile `ab` latency of Fig 8).
//! * [`improvement_pct`] / [`slowdown`] — the derived quantities the
//!   paper's figures report.
//! * [`Table`] and [`Series`] — fixed-width text (and CSV) rendering so the
//!   `figures` binary prints the same rows/series the paper plots.

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

mod stats;
mod table;

pub use stats::{improvement_pct, percentile, slowdown, Summary};
pub use table::{Series, Table};
