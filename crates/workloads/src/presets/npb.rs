//! NPB-like presets (OpenMP data-parallel kernels).
//!
//! The paper runs NPB with `OMP_WAIT_POLICY=active` for the spinning
//! experiments (Fig 6) and `passive` for the utilization study (Fig 2);
//! the `mode` parameter selects between the two. All kernels are
//! barrier-iterative; they differ in barrier granularity and memory
//! intensity, which is what separates their Fig 6 columns.

use super::{data_parallel, lock_parallel};
use crate::bundle::WorkloadBundle;
use irs_sync::WaitMode;

/// BT: block-tridiagonal solver; coarse iterations.
pub fn bt(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("BT", n, 12, 130_000, 0.06, mode, 0.5)
}

/// CG: conjugate gradient; fine-grained barriers, memory heavy.
pub fn cg(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("CG", n, 200, 8_000, 0.08, mode, 0.7)
}

/// EP: embarrassingly parallel; essentially one slab and a final join
/// (the paper's "EP performs less synchronization", §5.5).
pub fn ep(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("EP", n, 2, 800_000, 0.04, mode, 0.1)
}

/// FT: 3-D FFT; coarse transposes, very memory intensive.
pub fn ft(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("FT", n, 16, 100_000, 0.07, mode, 0.8)
}

/// IS: integer sort; very fine-grained barriers.
pub fn is(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("IS", n, 300, 5_000, 0.1, mode, 0.6)
}

/// LU: LU decomposition; the coarsest-grained kernel (used as the
/// coarse-grained background interference in §5.1).
pub fn lu(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("LU", n, 7, 230_000, 0.05, mode, 0.5)
}

/// MG: multigrid; fine-grained barriers (§5.5 "MG (spinning)").
pub fn mg(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("MG", n, 160, 10_000, 0.08, mode, 0.7)
}

/// SP: scalar pentadiagonal; fine-grained barriers.
pub fn sp(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("SP", n, 220, 7_000, 0.08, mode, 0.6)
}

/// UA: unstructured adaptive mesh; medium-grained barriers plus shared
/// locks (the fine-grained background interference of §5.1, "1-2s" at full
/// scale).
pub fn ua(n: usize, mode: WaitMode) -> WorkloadBundle {
    lock_parallel("UA", n, 90, 18_000, 60, 1, mode, 0.6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;
    use crate::runner::ProgramRunner;

    fn solo_work_ns(bundle: &mut WorkloadBundle) -> u64 {
        let mut r = ProgramRunner::new(bundle.threads[0].clone());
        let mut total = 0u64;
        while let Some(op) = r.next(&mut bundle.space) {
            if let Op::Compute { mean_ns, .. } = op {
                total += mean_ns;
            }
        }
        total
    }

    #[test]
    fn all_kernels_are_in_the_1_to_3s_band() {
        for (name, mut b) in [
            ("BT", bt(4, WaitMode::Spin)),
            ("CG", cg(4, WaitMode::Spin)),
            ("EP", ep(4, WaitMode::Spin)),
            ("FT", ft(4, WaitMode::Spin)),
            ("IS", is(4, WaitMode::Spin)),
            ("LU", lu(4, WaitMode::Spin)),
            ("MG", mg(4, WaitMode::Spin)),
            ("SP", sp(4, WaitMode::Spin)),
            ("UA", ua(4, WaitMode::Spin)),
        ] {
            let work = solo_work_ns(&mut b);
            assert!(
                (1_000_000_000..3_000_000_000).contains(&work),
                "{name}: {} ms per thread",
                work / 1_000_000
            );
        }
    }

    #[test]
    fn mode_parameter_controls_wait_mode() {
        for mode in [WaitMode::Spin, WaitMode::Block] {
            let mut b = mg(4, mode);
            let bar = b.space.barrier(irs_sync::BarrierId(0));
            assert_eq!(
                bar.arrive(irs_guest::TaskId(0)),
                irs_sync::BarrierOutcome::MustWait(mode)
            );
        }
    }

    #[test]
    fn granularity_ordering_matches_the_paper() {
        // LU must be coarser-grained than UA, which is coarser than IS
        // (barrier interval = compute grain between barriers).
        // LU: 230 ms, UA: 18 ms, IS: 5 ms.
        // Encoded in the presets; assert the relationships hold.
        let lu_grain = 230_000u64;
        let ua_grain = 18_000u64;
        let is_grain = 5_000u64;
        assert!(lu_grain > ua_grain && ua_grain > is_grain);
    }
}
