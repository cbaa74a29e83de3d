//! Run results and derived metrics.

use irs_guest::GuestStats;
use irs_metrics::{percentile, Summary};
use irs_sim::SimTime;
use irs_workloads::WorkloadKind;
use irs_xen::HvStats;

/// Outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Virtual time at which the run ended (measured-workload completion
    /// or the horizon).
    pub elapsed: SimTime,
    /// Per-VM outcomes, indexed like the scenario's VMs.
    pub vms: Vec<VmResult>,
    /// Hypervisor scheduler counters.
    pub hv: HvStats,
    /// Total discrete events processed — the denominator of the simulator's
    /// own events/sec throughput metric (`figures perf`).
    pub events: u64,
    /// Fault-injection counters; `None` unless the run was configured with
    /// [`crate::SystemConfig::faults`].
    pub faults: Option<crate::faults::FaultStats>,
}

impl RunResult {
    /// The first measured VM's result (most experiments have exactly one).
    ///
    /// # Panics
    ///
    /// Panics if no VM was marked measured.
    pub fn measured(&self) -> &VmResult {
        self.vms
            .iter()
            .find(|v| v.measured)
            .expect("scenario had no measured VM")
    }

    /// Coarse, deterministic estimate of this result's resident bytes —
    /// what a [`crate::runner::ForkCache`] reports as resident (the
    /// companion of [`crate::Snapshot::approx_bytes`]). Latency vectors
    /// dominate; everything else is inline.
    pub fn approx_bytes(&self) -> usize {
        let mut b = std::mem::size_of::<Self>();
        for vm in &self.vms {
            b += std::mem::size_of::<VmResult>() + vm.name.len();
            b += vm.latencies_us.capacity() * std::mem::size_of::<f64>();
        }
        b
    }
}

/// Per-VM outcome of a run.
#[derive(Debug, Clone)]
pub struct VmResult {
    /// Workload name (e.g. `"streamcluster"`, `"cpu-hogs"`).
    pub name: String,
    /// Workload semantics.
    pub kind: WorkloadKind,
    /// Whether this VM was a measurement target.
    pub measured: bool,
    /// Completion instant for parallel workloads that finished.
    pub makespan: Option<SimTime>,
    /// Useful compute completed (the background progress metric).
    pub useful: SimTime,
    /// Physical CPU time consumed by the VM.
    pub cpu_time: SimTime,
    /// Steal time suffered by the VM.
    pub steal_time: SimTime,
    /// Completed requests (server workloads).
    pub requests: u64,
    /// Open-loop requests dropped at a full accept queue.
    pub dropped_requests: u64,
    /// Requests still in flight when the run ended (arrived or started,
    /// never completed): counted explicitly so goodput tables surface the
    /// cut-off tail instead of silently dropping it.
    pub requests_truncated: u64,
    /// Per-request latencies in microseconds.
    pub latencies_us: Vec<f64>,
    /// Guest scheduler counters.
    pub guest: GuestStats,
    /// Lock-holder preemptions observed.
    pub lhp: u64,
    /// Lock-waiter preemptions observed.
    pub lwp: u64,
}

impl VmResult {
    /// Makespan in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the workload did not complete — check
    /// [`VmResult::makespan`] first when that is a legitimate outcome.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan
            .expect("workload did not complete within the horizon")
            .as_nanos() as f64
            / 1e6
    }

    /// Request throughput over `elapsed`.
    pub fn throughput_rps(&self, elapsed: SimTime) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.requests as f64 / elapsed.as_secs_f64()
        }
    }

    /// Mean request latency (µs); 0 with no requests.
    pub fn mean_latency_us(&self) -> f64 {
        Summary::of(&self.latencies_us).mean
    }

    /// Latency percentile (µs).
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        percentile(&self.latencies_us, p)
    }

    /// CPU utilization relative to a fair share of `fair_pcpus` physical
    /// CPUs over `elapsed` — Fig 2's y-axis.
    pub fn utilization_vs_fair_share(&self, fair_pcpus: f64, elapsed: SimTime) -> f64 {
        let fair = elapsed.as_secs_f64() * fair_pcpus;
        if fair <= 0.0 {
            0.0
        } else {
            self.cpu_time.as_secs_f64() / fair
        }
    }

    /// Useful-work rate (ns of completed compute per second of run) — the
    /// progress metric for never-terminating background workloads.
    pub fn work_rate(&self, elapsed: SimTime) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.useful.as_nanos() as f64 / elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(measured: bool) -> VmResult {
        VmResult {
            name: "x".into(),
            kind: WorkloadKind::Parallel,
            measured,
            makespan: Some(SimTime::from_millis(1500)),
            useful: SimTime::from_secs(6),
            cpu_time: SimTime::from_secs(3),
            steal_time: SimTime::from_secs(1),
            requests: 500,
            dropped_requests: 0,
            requests_truncated: 0,
            latencies_us: vec![100.0, 200.0, 300.0, 400.0],
            guest: GuestStats::default(),
            lhp: 0,
            lwp: 0,
        }
    }

    #[test]
    fn measured_finds_the_right_vm() {
        let r = RunResult {
            elapsed: SimTime::from_secs(2),
            vms: vec![vm(false), vm(true)],
            hv: HvStats::default(),
            events: 0,
            faults: None,
        };
        assert!(r.measured().measured);
    }

    #[test]
    #[should_panic(expected = "no measured VM")]
    fn measured_panics_without_one() {
        let r = RunResult {
            elapsed: SimTime::from_secs(2),
            vms: vec![vm(false)],
            hv: HvStats::default(),
            events: 0,
            faults: None,
        };
        r.measured();
    }

    #[test]
    fn derived_metrics() {
        let v = vm(true);
        assert!((v.makespan_ms() - 1500.0).abs() < 1e-9);
        assert!((v.throughput_rps(SimTime::from_secs(2)) - 250.0).abs() < 1e-9);
        assert!((v.mean_latency_us() - 250.0).abs() < 1e-9);
        assert_eq!(v.latency_percentile_us(99.0), 400.0);
        // 3 s of CPU over 2 s against a fair share of 2 pCPUs = 75%.
        let util = v.utilization_vs_fair_share(2.0, SimTime::from_secs(2));
        assert!((util - 0.75).abs() < 1e-9);
        // 6e9 ns of useful work over 2 s = 3e9 ns/s.
        assert!((v.work_rate(SimTime::from_secs(2)) - 3e9).abs() < 1.0);
    }
}
