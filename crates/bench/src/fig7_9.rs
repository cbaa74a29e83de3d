//! Figures 7 and 9: system-wide weighted speedup when the measured
//! application is consolidated with a real background application.
//!
//! Speedup of the foreground is `vanilla makespan / makespan`; the
//! background application never terminates (it repeats), so its speedup is
//! its useful-work *rate* relative to vanilla. The weighted speedup is the
//! average of the two, reported in percent (100 = vanilla parity).
//!
//! Every run is a Fig 5/6 real-application cell, so each panel projects
//! the [`RealAppGrid`] Fig 5/6 read for the same background.

use crate::fig5_6::RealAppGrid;
use irs_metrics::Table;

/// Fig 7: weighted speedup of PARSEC applications, one panel per
/// background (fluidanimate, streamcluster) of a PARSEC grid.
pub fn fig7(grid: &RealAppGrid) -> Table {
    grid.weighted_speedup("Fig 7 — weighted speedup of two PARSEC applications (higher is better)")
}

/// Fig 9: weighted speedup of NPB applications, one panel per background
/// (LU, UA) of an NPB grid.
pub fn fig9(grid: &RealAppGrid) -> Table {
    grid.weighted_speedup("Fig 9 — weighted speedup of NPB applications (higher is better)")
}
