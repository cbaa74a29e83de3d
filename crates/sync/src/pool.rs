//! Work-stealing chunk pools (user-level load balancing à la raytrace).

/// A shared pool of work chunks that threads claim one at a time.
///
/// This models the user-level work stealing that makes raytrace resilient
/// to interference in Figs 1 and 2: a thread on an interference-free vCPU
/// simply claims more chunks, so a stalled sibling delays only the chunk it
/// currently holds, not a fixed share of the program.
#[derive(Debug, Clone)]
pub struct WorkPool {
    remaining: u64,
}

impl WorkPool {
    /// Creates a pool of `chunks` units of work.
    pub fn new(chunks: u64) -> Self {
        WorkPool { remaining: chunks }
    }

    /// Claims one chunk; `false` when the pool is exhausted.
    pub fn steal(&mut self) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steals_until_exhausted() {
        let mut p = WorkPool::new(3);
        assert!(p.steal());
        assert!(p.steal());
        assert!(p.steal());
        assert!(!p.steal());
        assert!(!p.steal(), "an exhausted pool stays exhausted");
    }

    #[test]
    fn empty_pool_yields_nothing() {
        let mut p = WorkPool::new(0);
        assert!(!p.steal());
    }
}
