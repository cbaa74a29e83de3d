//! The workload bytecode and its builder.

use irs_sync::{ArrivalId, BarrierId, ChannelId, EpochId, LockId, PoolId};

/// One instruction of a thread program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Execute for `mean_ns` nanoseconds ± `jitter` (multiplicative).
    Compute {
        /// Mean segment length in nanoseconds.
        mean_ns: u64,
        /// Relative jitter in `[0, 1]`.
        jitter: f64,
    },
    /// Acquire a lock (blocking or spinning per the lock's mode).
    Lock(LockId),
    /// Release a lock.
    Unlock(LockId),
    /// Arrive at a barrier.
    Barrier(BarrierId),
    /// Push one item into a channel (blocks when full).
    Push(ChannelId),
    /// Pop one item from a channel (blocks when empty).
    Pop(ChannelId),
    /// Claim one chunk from a work pool; on exhaustion, jump to program end.
    StealOrExit(PoolId),
    /// Sleep for a fixed duration (timed wait, I/O think time).
    Sleep {
        /// Sleep length in nanoseconds.
        ns: u64,
    },
    /// Poll a gang-epoch safepoint: pass free unless the epoch's
    /// wall-clock deadline has been reached, in which case park until
    /// every participant has arrived (JVM stop-the-world shape).
    SafepointPoll(EpochId),
    /// Take the next request from an open-loop arrival process: starts
    /// the request's latency clock at the *arrival* instant and sleeps
    /// until then if the arrival is still in the future.
    AwaitArrival(ArrivalId),
    /// Begin a counted loop (use `u64::MAX` for effectively-forever).
    LoopStart {
        /// Number of iterations of the loop body.
        count: u64,
    },
    /// End of the innermost loop body.
    LoopEnd,
    /// Unconditional jump to an absolute instruction index.
    Jump {
        /// Absolute target index.
        target: usize,
    },
    /// Mark the start of a request (service-time measurement).
    RequestStart,
    /// Mark the completion of a request (latency/throughput accounting).
    RequestDone,
}

/// A validated thread program.
///
/// Construct through [`ProgramBuilder`]; validation guarantees balanced
/// loops and in-range jump targets, so the interpreter never faults.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced `LoopStart`/`LoopEnd` or an out-of-range jump.
    pub fn new(ops: Vec<Op>) -> Self {
        let mut depth = 0i64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::LoopStart { .. } => depth += 1,
                Op::LoopEnd => {
                    depth -= 1;
                    assert!(depth >= 0, "LoopEnd without LoopStart at op {i}");
                }
                Op::Jump { target } => {
                    assert!(*target <= ops.len(), "jump target {target} out of range at op {i}");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced loops: {depth} LoopStart(s) unclosed");
        Program { ops }
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn op(&self, pc: usize) -> Option<&Op> {
        self.ops.get(pc)
    }

    /// Every instruction, in program order.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty program (immediately done).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Distinct gang epochs this program polls ([`Op::SafepointPoll`]),
    /// in first-reference order. The embedding simulation uses this to
    /// verify every epoch's participant count matches the number of
    /// threads actually polling it.
    pub fn epochs_polled(&self) -> Vec<EpochId> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let Op::SafepointPoll(e) = op {
                if !out.contains(e) {
                    out.push(*e);
                }
            }
        }
        out
    }

    /// Index of the `LoopEnd` matching the `LoopStart` at `start_pc`.
    ///
    /// # Panics
    ///
    /// Panics if `start_pc` is not a `LoopStart` (validation makes a missing
    /// match impossible).
    pub(crate) fn matching_loop_end(&self, start_pc: usize) -> usize {
        assert!(matches!(self.ops[start_pc], Op::LoopStart { .. }));
        let mut depth = 0usize;
        for (i, op) in self.ops.iter().enumerate().skip(start_pc) {
            match op {
                Op::LoopStart { .. } => depth += 1,
                Op::LoopEnd => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        unreachable!("validated program has a matching LoopEnd");
    }

    /// Wraps the whole program in an infinite loop — how background
    /// (interfering) applications are kept running for the entire
    /// measurement window (§5.4 "repeated at least five times").
    pub fn repeat_forever(self) -> Program {
        let mut ops = Vec::with_capacity(self.ops.len() + 2);
        ops.push(Op::LoopStart { count: u64::MAX });
        ops.extend(self.ops);
        ops.push(Op::LoopEnd);
        Program::new(ops)
    }
}

/// Fluent builder for [`Program`]s.
///
/// # Example
///
/// ```
/// use irs_workloads::ProgramBuilder;
///
/// // 10 iterations of: compute ~5 ms (±10%), then a tiny tail compute.
/// let program = ProgramBuilder::new()
///     .repeat(10, |p| p.compute_us(5_000, 0.1))
///     .compute_us(100, 0.0)
///     .build();
/// assert_eq!(program.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends a compute segment of `mean_us` microseconds ± `jitter`.
    pub fn compute_us(mut self, mean_us: u64, jitter: f64) -> Self {
        self.ops.push(Op::Compute {
            mean_ns: mean_us * 1_000,
            jitter,
        });
        self
    }

    /// Appends a lock acquisition.
    pub fn lock(mut self, lock: LockId) -> Self {
        self.ops.push(Op::Lock(lock));
        self
    }

    /// Appends a lock release.
    pub fn unlock(mut self, lock: LockId) -> Self {
        self.ops.push(Op::Unlock(lock));
        self
    }

    /// Appends a barrier arrival.
    pub fn barrier(mut self, barrier: BarrierId) -> Self {
        self.ops.push(Op::Barrier(barrier));
        self
    }

    /// Appends a channel push.
    pub fn push(mut self, chan: ChannelId) -> Self {
        self.ops.push(Op::Push(chan));
        self
    }

    /// Appends a channel pop.
    pub fn pop(mut self, chan: ChannelId) -> Self {
        self.ops.push(Op::Pop(chan));
        self
    }

    /// Appends a sleep.
    pub fn sleep_us(mut self, us: u64) -> Self {
        self.ops.push(Op::Sleep { ns: us * 1_000 });
        self
    }

    /// Appends a gang-epoch safepoint poll.
    pub fn safepoint_poll(mut self, epoch: EpochId) -> Self {
        self.ops.push(Op::SafepointPoll(epoch));
        self
    }

    /// Appends an open-loop arrival take: block until the process's next
    /// request instant, then start that request's latency clock there.
    pub fn await_arrival(mut self, arrival: ArrivalId) -> Self {
        self.ops.push(Op::AwaitArrival(arrival));
        self
    }

    /// Appends a request-start marker.
    pub fn request_start(mut self) -> Self {
        self.ops.push(Op::RequestStart);
        self
    }

    /// Appends a request-completion marker.
    pub fn request_done(mut self) -> Self {
        self.ops.push(Op::RequestDone);
        self
    }

    /// Appends `count` iterations of the body built by `f`.
    pub fn repeat(mut self, count: u64, f: impl FnOnce(ProgramBuilder) -> ProgramBuilder) -> Self {
        self.ops.push(Op::LoopStart { count });
        let body = f(ProgramBuilder::new());
        self.ops.extend(body.ops);
        self.ops.push(Op::LoopEnd);
        self
    }

    /// Appends an infinite loop of the body built by `f`.
    pub fn forever(self, f: impl FnOnce(ProgramBuilder) -> ProgramBuilder) -> Self {
        self.repeat(u64::MAX, f)
    }

    /// Appends a work-steal loop: claim a chunk from `pool`, compute
    /// `chunk_us` ± `jitter`, repeat until the pool is exhausted.
    pub fn steal_loop(mut self, pool: PoolId, chunk_us: u64, jitter: f64) -> Self {
        let head = self.ops.len();
        self.ops.push(Op::StealOrExit(pool));
        self.ops.push(Op::Compute {
            mean_ns: chunk_us * 1_000,
            jitter,
        });
        self.ops.push(Op::Jump { target: head });
        self
    }

    /// Finalizes (and validates) the program.
    ///
    /// # Panics
    ///
    /// Panics if the instruction sequence is malformed (see
    /// [`Program::new`]).
    pub fn build(self) -> Program {
        Program::new(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_ops() {
        let l = LockId(0);
        let p = ProgramBuilder::new()
            .compute_us(100, 0.1)
            .lock(l)
            .compute_us(5, 0.0)
            .unlock(l)
            .build();
        assert_eq!(p.len(), 4);
        assert!(matches!(p.op(1), Some(Op::Lock(_))));
        assert!(p.op(4).is_none());
    }

    #[test]
    fn repeat_nests() {
        let p = ProgramBuilder::new()
            .repeat(3, |b| b.repeat(2, |b| b.compute_us(1, 0.0)))
            .build();
        // LoopStart, LoopStart, Compute, LoopEnd, LoopEnd
        assert_eq!(p.len(), 5);
        assert_eq!(p.matching_loop_end(0), 4);
        assert_eq!(p.matching_loop_end(1), 3);
    }

    #[test]
    fn steal_loop_shape() {
        let pool = PoolId(0);
        let p = ProgramBuilder::new().steal_loop(pool, 1_000, 0.1).build();
        assert!(matches!(p.op(0), Some(Op::StealOrExit(_))));
        assert!(matches!(p.op(2), Some(Op::Jump { target: 0 })));
    }

    #[test]
    fn repeat_forever_wraps() {
        let p = ProgramBuilder::new().compute_us(1, 0.0).build();
        let wrapped = p.repeat_forever();
        assert_eq!(wrapped.len(), 3);
        assert!(matches!(wrapped.op(0), Some(Op::LoopStart { count: u64::MAX })));
        assert!(matches!(wrapped.op(2), Some(Op::LoopEnd)));
    }

    #[test]
    #[should_panic(expected = "unbalanced loops")]
    fn unbalanced_loop_panics() {
        Program::new(vec![Op::LoopStart { count: 1 }]);
    }

    #[test]
    #[should_panic(expected = "LoopEnd without LoopStart")]
    fn stray_loop_end_panics() {
        Program::new(vec![Op::LoopEnd]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wild_jump_panics() {
        Program::new(vec![Op::Jump { target: 7 }]);
    }

    #[test]
    fn align_and_arrivals_are_loop_safe() {
        // AwaitArrival consumes the stream and SafepointPoll re-arms per
        // epoch, so both belong in loop bodies.
        let p = ProgramBuilder::new()
            .forever(|b| {
                b.await_arrival(ArrivalId(0))
                    .compute_us(100, 0.1)
                    .safepoint_poll(EpochId(0))
            })
            .build();
        assert_eq!(p.len(), 5);
        assert!(matches!(p.op(3), Some(Op::SafepointPoll(_))));
    }
}
