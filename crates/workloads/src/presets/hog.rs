//! The CPU-hog interference micro-benchmark (§5.1): persistent compute
//! with "almost zero memory footprint".

use crate::bundle::WorkloadBundle;
use crate::program::ProgramBuilder;
use irs_sync::SyncSpace;

/// `n` CPU hogs, each an endless compute loop. In a scenario, hog `i` lands
/// on vCPU `i` of its VM, so `cpu_hogs(2)` in a 4-vCPU interfering VM is
/// exactly the paper's "2-inter." configuration.
pub fn cpu_hogs(n: usize) -> WorkloadBundle {
    assert!(n > 0, "need at least one hog");
    let threads = (0..n)
        .map(|_| {
            ProgramBuilder::new()
                .forever(|b| b.compute_us(10_000, 0.0))
                .build()
        })
        .collect();
    WorkloadBundle::interference("cpu-hogs", threads, SyncSpace::new(), 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::WorkloadKind;
    use crate::program::Op;
    use crate::runner::ProgramRunner;

    #[test]
    fn hogs_never_finish() {
        let mut b = cpu_hogs(2);
        assert_eq!(b.kind, WorkloadKind::Interference);
        assert_eq!(b.n_threads(), 2);
        let mut r = ProgramRunner::new(b.threads[0].clone());
        for _ in 0..1000 {
            assert!(matches!(r.next(&mut b.space), Some(Op::Compute { .. })));
        }
    }

    #[test]
    fn hogs_have_zero_memory_footprint() {
        assert_eq!(cpu_hogs(1).memory_intensity, 0.0);
    }
}
