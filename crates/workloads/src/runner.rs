//! The resumable program interpreter.

use crate::program::{Op, Program};
use irs_sim::SimRng;
use irs_sync::{ArrivalId, BarrierId, ChannelId, EpochId, LockId, SyncSpace};
use std::sync::Arc;

/// An externally visible step of a running program.
///
/// Control flow (loops, jumps, work stealing) is resolved inside the
/// runner; the embedding simulation only ever sees steps that take time or
/// touch the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Execute for `ns` nanoseconds of CPU time.
    Compute {
        /// Resolved (jittered) segment length.
        ns: u64,
    },
    /// Attempt to acquire this lock.
    Acquire(LockId),
    /// Release this lock.
    Release(LockId),
    /// Arrive at this barrier.
    Arrive(BarrierId),
    /// Push into this channel.
    Push(ChannelId),
    /// Pop from this channel.
    Pop(ChannelId),
    /// Sleep for `ns` nanoseconds (off-CPU, not waiting on anyone).
    Sleep {
        /// Sleep length.
        ns: u64,
    },
    /// Poll this gang-epoch safepoint.
    SafepointPoll(EpochId),
    /// Take the next open-loop request from this arrival process.
    AwaitArrival(ArrivalId),
    /// Request-start marker (timestamp me).
    RequestStart,
    /// Request-completion marker (account my latency).
    RequestDone,
    /// Program finished.
    Done,
}

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
    done: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoopFrame {
    start_pc: usize,
    remaining: u64,
}

impl ProgramRunner {
    /// Creates a runner positioned at the program start.
    pub fn new(program: Program) -> Self {
        Self::from_shared(Arc::new(program))
    }

    /// Creates a runner over an already-shared program, positioned at the
    /// start. Use this when many tasks run the same program: the op vector
    /// is reference-counted, not cloned per task.
    pub fn from_shared(program: Arc<Program>) -> Self {
        ProgramRunner {
            program,
            pc: 0,
            loop_stack: Vec::new(),
            done: false,
        }
    }

    /// The program this runner interprets.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Advances to the next externally visible step.
    ///
    /// `rng` resolves compute jitter; `space` is needed because work-steal
    /// loops claim chunks inline (stealing is non-blocking and has no
    /// scheduling consequence, so it never surfaces as a step).
    ///
    /// After [`Step::Done`] every further call returns `Done`.
    pub fn next(&mut self, rng: &mut SimRng, space: &mut SyncSpace) -> Step {
        if self.done {
            return Step::Done;
        }
        loop {
            let Some(op) = self.program.op(self.pc) else {
                self.done = true;
                return Step::Done;
            };
            match *op {
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
                    if space.pool(pool).steal() {
                        self.pc += 1;
                    } else {
                        self.done = true;
                        return Step::Done;
                    }
                }
                Op::Compute { mean_ns, jitter } => {
                    self.pc += 1;
                    return Step::Compute {
                        ns: rng.jittered(mean_ns, jitter),
                    };
                }
                Op::Lock(l) => {
                    self.pc += 1;
                    return Step::Acquire(l);
                }
                Op::Unlock(l) => {
                    self.pc += 1;
                    return Step::Release(l);
                }
                Op::Barrier(b) => {
                    self.pc += 1;
                    return Step::Arrive(b);
                }
                Op::Push(c) => {
                    self.pc += 1;
                    return Step::Push(c);
                }
                Op::Pop(c) => {
                    self.pc += 1;
                    return Step::Pop(c);
                }
                Op::Sleep { ns } => {
                    self.pc += 1;
                    return Step::Sleep { ns };
                }
                Op::SafepointPoll(e) => {
                    self.pc += 1;
                    return Step::SafepointPoll(e);
                }
                Op::AwaitArrival(a) => {
                    self.pc += 1;
                    return Step::AwaitArrival(a);
                }
                Op::RequestStart => {
                    self.pc += 1;
                    return Step::RequestStart;
                }
                Op::RequestDone => {
                    self.pc += 1;
                    return Step::RequestDone;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use irs_sync::WaitMode;

    fn rng() -> SimRng {
        SimRng::seed_from(42)
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
        let mut rng = rng();
        assert_eq!(r.next(&mut rng, &mut space), Step::Compute { ns: 10_000 });
        assert_eq!(r.next(&mut rng, &mut space), Step::Acquire(l));
        assert_eq!(r.next(&mut rng, &mut space), Step::Release(l));
        assert_eq!(r.next(&mut rng, &mut space), Step::Done);
        assert_eq!(r.next(&mut rng, &mut space), Step::Done, "done is sticky");
    }

    #[test]
    fn loops_repeat_the_body() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .repeat(3, |b| b.compute_us(1, 0.0))
            .build();
        let mut r = ProgramRunner::new(p);
        let mut rng = rng();
        let mut computes = 0;
        while r.next(&mut rng, &mut space) != Step::Done {
            computes += 1;
        }
        assert_eq!(computes, 3);
    }

    #[test]
    fn nested_loops_multiply() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .repeat(4, |b| b.repeat(5, |b| b.compute_us(1, 0.0)))
            .build();
        let mut r = ProgramRunner::new(p);
        let mut rng = rng();
        let mut computes = 0;
        while r.next(&mut rng, &mut space) != Step::Done {
            computes += 1;
        }
        assert_eq!(computes, 20);
    }

    #[test]
    fn zero_count_loop_is_skipped() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .repeat(0, |b| b.compute_us(1, 0.0))
            .compute_us(2, 0.0)
            .build();
        let mut r = ProgramRunner::new(p);
        let mut rng = rng();
        assert_eq!(r.next(&mut rng, &mut space), Step::Compute { ns: 2_000 });
        assert_eq!(r.next(&mut rng, &mut space), Step::Done);
    }

    #[test]
    fn steal_loop_consumes_the_pool_then_exits() {
        let mut space = SyncSpace::new();
        let pool = space.new_pool(7);
        let p = ProgramBuilder::new().steal_loop(pool, 100, 0.0).build();
        let mut r = ProgramRunner::new(p);
        let mut rng = rng();
        let mut chunks = 0;
        while r.next(&mut rng, &mut space) != Step::Done {
            chunks += 1;
        }
        assert_eq!(chunks, 7);
        assert!(!space.pool(pool).steal(), "the loop left no chunk behind");
    }

    #[test]
    fn two_runners_share_a_pool() {
        let mut space = SyncSpace::new();
        let pool = space.new_pool(10);
        let p = ProgramBuilder::new().steal_loop(pool, 100, 0.0).build();
        let mut a = ProgramRunner::new(p.clone());
        let mut b = ProgramRunner::new(p);
        let mut rng = rng();
        let mut total = 0;
        // Interleave: the pool arbitrates, totals must equal the pool size.
        loop {
            let sa = a.next(&mut rng, &mut space);
            let sb = b.next(&mut rng, &mut space);
            if sa == Step::Done && sb == Step::Done {
                break;
            }
            total += usize::from(sa != Step::Done) + usize::from(sb != Step::Done);
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn jitter_is_resolved_per_step() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .repeat(50, |b| b.compute_us(1_000, 0.5))
            .build();
        let mut r = ProgramRunner::new(p);
        let mut rng = rng();
        let mut seen = std::collections::HashSet::new();
        while let Step::Compute { ns } = r.next(&mut rng, &mut space) {
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
        let mut rng = rng();
        assert_eq!(r.next(&mut rng, &mut space), Step::RequestStart);
        assert!(matches!(r.next(&mut rng, &mut space), Step::Compute { .. }));
        assert_eq!(r.next(&mut rng, &mut space), Step::RequestDone);
    }

    #[test]
    fn time_anchored_steps_surface() {
        let mut space = SyncSpace::new();
        let e = space.new_epoch(1_000_000, 1, WaitMode::Block);
        let a = space.new_arrival(irs_sync::ArrivalDist::Poisson { mean_ns: 1_000 });
        let p = ProgramBuilder::new()
            .safepoint_poll(e)
            .await_arrival(a)
            .build();
        let mut r = ProgramRunner::new(p);
        let mut rng = rng();
        assert_eq!(r.next(&mut rng, &mut space), Step::SafepointPoll(e));
        assert_eq!(r.next(&mut rng, &mut space), Step::AwaitArrival(a));
        assert_eq!(r.next(&mut rng, &mut space), Step::Done);
    }

    #[test]
    fn empty_program_is_immediately_done() {
        let mut space = SyncSpace::new();
        let mut r = ProgramRunner::new(Program::new(vec![]));
        assert_eq!(r.next(&mut rng(), &mut space), Step::Done);
    }

    #[test]
    fn forever_loop_keeps_producing() {
        let mut space = SyncSpace::new();
        let p = ProgramBuilder::new()
            .forever(|b| b.compute_us(1, 0.0))
            .build();
        let mut r = ProgramRunner::new(p);
        let mut rng = rng();
        for _ in 0..10_000 {
            assert!(matches!(r.next(&mut rng, &mut space), Step::Compute { .. }));
        }
    }
}
