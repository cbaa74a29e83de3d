//! The resumable program interpreter.

use crate::program::{Op, Program};
use irs_sync::SyncSpace;
use std::sync::Arc;

/// Interpreter state for one task's program.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct ProgramRunner {
    /// Shared, immutable instruction sequence. Sibling tasks running the
    /// same program (every parallel preset spawns N identical threads)
    /// share one allocation instead of each cloning the op vector; the
    /// interpreter's mutable state is everything below.
    program: Arc<Program>,
    pc: usize,
    loop_stack: Vec<LoopFrame>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoopFrame {
    start_pc: usize,
    remaining: u64,
}

impl ProgramRunner {
    /// Creates a runner positioned at the program start. Pass an
    /// `Arc<Program>` when many tasks run the same program: the op vector
    /// is reference-counted, not cloned per task.
    pub fn new(program: impl Into<Arc<Program>>) -> Self {
        ProgramRunner {
            program: program.into(),
            pc: 0,
            loop_stack: Vec::new(),
        }
    }

    /// The program this runner interprets.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The next instruction a task carries out, as written, or `None`
    /// once the program has ended (every later call returns `None` too).
    ///
    /// Control flow ([`Op::LoopStart`], [`Op::LoopEnd`], [`Op::Jump`],
    /// [`Op::StealOrExit`]) is resolved here and never returned. `space`
    /// is needed because work-steal loops claim chunks inline: stealing
    /// is non-blocking and has no scheduling consequence.
    pub fn next(&mut self, space: &mut SyncSpace) -> Option<Op> {
        loop {
            let op = *self.program.op(self.pc)?;
            match op {
                Op::LoopStart { count } => {
                    if count == 0 {
                        self.pc = self.program.matching_loop_end(self.pc) + 1;
                    } else {
                        self.loop_stack.push(LoopFrame {
                            start_pc: self.pc,
                            remaining: count,
                        });
                        self.pc += 1;
                    }
                }
                Op::LoopEnd => {
                    let frame = self
                        .loop_stack
                        .last_mut()
                        .expect("validated program: LoopEnd has a frame");
                    frame.remaining = frame.remaining.saturating_sub(1);
                    if frame.remaining > 0 {
                        self.pc = frame.start_pc + 1;
                    } else {
                        self.loop_stack.pop();
                        self.pc += 1;
                    }
                }
                Op::Jump { target } => {
                    self.pc = target;
                }
                Op::StealOrExit(pool) => {
                    self.pc = if space.pool(pool).steal() {
                        self.pc + 1
                    } else {
                        self.program.len()
                    };
                }
                _ => {
                    self.pc += 1;
                    return Some(op);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use irs_sim::SimRng;
    use irs_sync::WaitMode;

    /// Instructions returned until the program ends.
    fn count(r: &mut ProgramRunner, space: &mut SyncSpace) -> usize {
        std::iter::from_fn(|| r.next(space)).count()
    }

    #[test]
    fn straight_line_program_runs_to_done() {
        let mut space = SyncSpace::new();
        let l = space.new_lock(WaitMode::Block);
        let p = ProgramBuilder::new()
            .compute_us(10, 0.0)
            .lock(l)
            .unlock(l)
            .build();
        let mut r = ProgramRunner::new(p);
        let compute = Op::Compute {
            mean_ns: 10_000,
            jitter: 0.0,
        };
        assert_eq!(r.next(&mut space), Some(compute));
        assert_eq!(r.next(&mut space), Some(Op::Lock(l)));
        assert_eq!(r.next(&mut space), Some(Op::Unlock(l)));
        assert_eq!(r.next(&mut space), None);
        assert_eq!(r.next(&mut space), None, "the end is sticky");
    }

    #[test]
    fn loops_repeat_the_body() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .repeat(3, |b| b.compute_us(1, 0.0))
            .build();
        assert_eq!(count(&mut ProgramRunner::new(p), &mut space), 3);
    }

    #[test]
    fn nested_loops_multiply() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .repeat(4, |b| b.repeat(5, |b| b.compute_us(1, 0.0)))
            .build();
        assert_eq!(count(&mut ProgramRunner::new(p), &mut space), 20);
    }

    #[test]
    fn zero_count_loop_is_skipped() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .repeat(0, |b| b.compute_us(1, 0.0))
            .compute_us(2, 0.0)
            .build();
        let mut r = ProgramRunner::new(p);
        assert_eq!(
            r.next(&mut space),
            Some(Op::Compute {
                mean_ns: 2_000,
                jitter: 0.0
            })
        );
        assert_eq!(r.next(&mut space), None);
    }

    #[test]
    fn steal_loop_consumes_the_pool_then_exits() {
        let mut space = SyncSpace::new();
        let pool = space.new_pool(7);
        let p = ProgramBuilder::new().steal_loop(pool, 100, 0.0).build();
        let mut r = ProgramRunner::new(p);
        assert_eq!(count(&mut r, &mut space), 7);
        assert!(!space.pool(pool).steal(), "the loop left no chunk behind");
        assert_eq!(
            r.next(&mut space),
            None,
            "an exhausted pool ends the program"
        );
    }

    #[test]
    fn two_runners_share_a_pool() {
        let mut space = SyncSpace::new();
        let pool = space.new_pool(10);
        let p = std::sync::Arc::new(ProgramBuilder::new().steal_loop(pool, 100, 0.0).build());
        let mut a = ProgramRunner::new(std::sync::Arc::clone(&p));
        let mut b = ProgramRunner::new(p);
        let mut total = 0;
        // Interleave: the pool arbitrates, totals must equal the pool size.
        loop {
            let sa = a.next(&mut space);
            let sb = b.next(&mut space);
            if sa.is_none() && sb.is_none() {
                break;
            }
            total += usize::from(sa.is_some()) + usize::from(sb.is_some());
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn jitter_is_resolved_per_step() {
        // The runner returns each segment as written; whoever executes it
        // draws the jitter once per segment.
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .repeat(50, |b| b.compute_us(1_000, 0.5))
            .build();
        let mut r = ProgramRunner::new(p);
        let mut rng = SimRng::seed_from(42);
        let mut seen = std::collections::HashSet::new();
        while let Some(Op::Compute { mean_ns, jitter }) = r.next(&mut space) {
            assert_eq!((mean_ns, jitter), (1_000_000, 0.5), "returned as written");
            let ns = rng.jittered(mean_ns, jitter);
            assert!((500_000..=1_500_000).contains(&ns));
            seen.insert(ns);
        }
        assert!(seen.len() > 10, "jitter should vary across iterations");
    }

    #[test]
    fn request_markers_surface() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .request_start()
            .compute_us(5, 0.0)
            .request_done()
            .build();
        let mut r = ProgramRunner::new(p);
        assert_eq!(r.next(&mut space), Some(Op::RequestStart));
        assert!(matches!(r.next(&mut space), Some(Op::Compute { .. })));
        assert_eq!(r.next(&mut space), Some(Op::RequestDone));
    }

    #[test]
    fn time_anchored_steps_surface() {
        let mut space = SyncSpace::new();
        let e = space.new_epoch(1_000_000, 1, WaitMode::Block);
        let a = space.new_arrival(1_000);
        let p = ProgramBuilder::new()
            .safepoint_poll(e)
            .await_arrival(a)
            .build();
        let mut r = ProgramRunner::new(p);
        assert_eq!(r.next(&mut space), Some(Op::SafepointPoll(e)));
        assert_eq!(r.next(&mut space), Some(Op::AwaitArrival(a)));
        assert_eq!(r.next(&mut space), None);
    }

    #[test]
    fn empty_program_is_immediately_done() {
        let mut space = SyncSpace::new();
        let mut r = ProgramRunner::new(Program::new(vec![]));
        assert_eq!(r.next(&mut space), None);
    }

    #[test]
    fn forever_loop_keeps_producing() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .forever(|b| b.compute_us(1, 0.0))
            .build();
        let mut r = ProgramRunner::new(p);
        for _ in 0..10_000 {
            assert!(matches!(r.next(&mut space), Some(Op::Compute { .. })));
        }
    }
}
