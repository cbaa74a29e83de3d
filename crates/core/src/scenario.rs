//! Declarative experiment setup.

use crate::results::RunResult;
use crate::strategy::Strategy;
use crate::system::System;
use irs_guest::GuestSaConfig;
use irs_sim::SimTime;
use irs_sync::WaitMode;
use irs_workloads::{presets, WorkloadBundle};
use irs_xen::PcpuId;

/// One VM of a scenario.
#[derive(Debug)]
pub struct VmScenario {
    /// The workload it runs.
    pub bundle: WorkloadBundle,
    /// Number of vCPUs.
    pub n_vcpus: usize,
    /// Hard affinity, one pCPU per vCPU; `None` leaves the VM unpinned.
    pub pinning: Option<Vec<PcpuId>>,
    /// Whether this VM's performance is the experiment's measurement.
    pub measured: bool,
    /// Force the guest-IRS capability; `None` derives it (`measured` VMs
    /// get IRS kernels under IRS strategies, background VMs stay vanilla —
    /// the paper's §5.4 setup).
    pub irs_guest: Option<bool>,
    /// Override the guest-side SA parameters (delay sweeps, pingpong and
    /// idle-first ablations). Ignored unless the VM runs an IRS kernel.
    pub sa_override: Option<GuestSaConfig>,
}

impl VmScenario {
    /// A VM with `n_vcpus` vCPUs running `bundle`, unmeasured and unpinned.
    pub fn new(bundle: WorkloadBundle, n_vcpus: usize) -> Self {
        VmScenario {
            bundle,
            n_vcpus,
            pinning: None,
            measured: false,
            irs_guest: None,
            sa_override: None,
        }
    }

    /// Pins vCPU `i` to pCPU `i` (the §5.1 controlled placement).
    pub fn pin_one_to_one(mut self) -> Self {
        self.pinning = Some((0..self.n_vcpus).map(PcpuId).collect());
        self
    }

    /// Pins vCPU `i` to `pcpus[i]`.
    pub fn pin(mut self, pcpus: Vec<PcpuId>) -> Self {
        assert_eq!(pcpus.len(), self.n_vcpus, "one pCPU per vCPU");
        self.pinning = Some(pcpus);
        self
    }

    /// Marks this VM as the measurement target.
    pub fn measured(mut self) -> Self {
        self.measured = true;
        self
    }

    /// Overrides the derived guest-IRS capability.
    pub fn irs_guest(mut self, enabled: bool) -> Self {
        self.irs_guest = Some(enabled);
        self
    }
}

/// A complete experiment description.
#[derive(Debug)]
pub struct Scenario {
    /// Physical CPUs.
    pub n_pcpus: usize,
    /// Scheduling strategy under test.
    pub strategy: Strategy,
    /// RNG seed (each repetition uses a different seed).
    pub seed: u64,
    /// Hard stop; parallel measurements normally finish earlier.
    pub horizon: SimTime,
    /// Override the hypervisor time slice (e.g. 6 ms to model KVM's CFS
    /// granularity or 50 ms for VMware's, vs Xen's default 30 ms).
    pub slice_override: Option<SimTime>,
    /// The VMs.
    pub vms: Vec<VmScenario>,
}

impl Scenario {
    /// An empty scenario on `n_pcpus` physical CPUs.
    pub fn new(n_pcpus: usize, strategy: Strategy, seed: u64) -> Self {
        Scenario {
            n_pcpus,
            strategy,
            seed,
            horizon: SimTime::from_secs(120),
            slice_override: None,
            vms: Vec::new(),
        }
    }

    /// Adds a VM.
    pub fn vm(mut self, vm: VmScenario) -> Self {
        self.vms.push(vm);
        self
    }

    /// Sets the hard stop.
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Overrides the hypervisor time slice (slice-length sensitivity
    /// experiments: 6 ms ~ KVM, 30 ms ~ Xen, 50 ms ~ VMware).
    pub fn time_slice(mut self, slice: SimTime) -> Self {
        self.slice_override = Some(slice);
        self
    }

    /// Builds the system and runs to completion.
    ///
    /// # Panics
    ///
    /// Panics on malformed scenarios (no VMs, bad pinning, unknown names in
    /// the canned constructors).
    pub fn run(self) -> RunResult {
        System::new(self).run()
    }

    // ------------------------------------------------------------------
    // canned constructors for the paper's standard setups
    // ------------------------------------------------------------------

    /// The §5.1/§5.2 controlled setup behind Figs 5 and 6: 4 pCPUs, a
    /// 4-vCPU foreground VM running `benchmark` (blocking PARSEC or
    /// spinning NPB per the catalog name), and a 4-vCPU background VM with
    /// `n_inter` CPU hogs; both pinned one-to-one so hog `i` contends with
    /// foreground vCPU `i`.
    ///
    /// # Panics
    ///
    /// Panics if `benchmark` is unknown or `n_inter` is not 1..=4.
    pub fn fig5_style(benchmark: &str, n_inter: usize, strategy: Strategy, seed: u64) -> Self {
        assert!((1..=4).contains(&n_inter), "n_inter must be 1..=4");
        let fg = presets::by_name(benchmark, 4, presets::wait_mode(benchmark))
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let bg = presets::hog::cpu_hogs(n_inter);
        Scenario::new(4, strategy, seed)
            .vm(VmScenario::new(fg, 4).pin_one_to_one().measured())
            .vm(VmScenario::new(bg, 4).pin_one_to_one())
    }

    /// The Fig 2 configuration: everything blocking (`OMP_WAIT_POLICY=
    /// passive` for NPB), one CPU hog, vanilla scheduling — the utilization
    /// study needs the *deceptive idleness* of blocking waits.
    pub fn fig2_style(benchmark: &str, seed: u64) -> Self {
        let fg = presets::by_name(benchmark, 4, WaitMode::Block)
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let bg = presets::hog::cpu_hogs(1);
        Scenario::new(4, Strategy::Vanilla, seed)
            .vm(VmScenario::new(fg, 4).pin_one_to_one().measured())
            .vm(VmScenario::new(bg, 4).pin_one_to_one())
    }

    /// The §5.5 scalability setup behind Fig 10: two 8-vCPU VMs sharing 8
    /// pCPUs; the background runs either `n_inter` CPU hogs
    /// (`background = None`) or an `n_inter`-thread real application.
    pub fn fig10_style(
        benchmark: &str,
        background: Option<&str>,
        n_inter: usize,
        strategy: Strategy,
        seed: u64,
    ) -> Self {
        assert!((1..=8).contains(&n_inter), "n_inter must be 1..=8");
        let fg = presets::by_name(benchmark, 8, presets::wait_mode(benchmark))
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let bg = match background {
            None => presets::hog::cpu_hogs(n_inter),
            Some(name) => presets::by_name(name, n_inter, WaitMode::Block)
                .unwrap_or_else(|| panic!("unknown background {name}"))
                .into_background(),
        };
        Scenario::new(8, strategy, seed)
            .vm(VmScenario::new(fg, 8).pin_one_to_one().measured())
            .vm(VmScenario::new(bg, 8).pin_one_to_one())
    }

    /// The §5.5 consolidation-depth setup behind Fig 11: a 4-vCPU
    /// foreground VM plus `n_vms` interfering VMs, each running `n_inter`
    /// CPU hogs pinned to the same pCPUs, so each interfered pCPU hosts
    /// `n_vms + 1` competing vCPUs.
    pub fn fig11_style(
        benchmark: &str,
        n_inter: usize,
        n_vms: usize,
        strategy: Strategy,
        seed: u64,
    ) -> Self {
        assert!((1..=4).contains(&n_inter), "n_inter must be 1..=4");
        assert!((1..=3).contains(&n_vms), "n_vms must be 1..=3");
        let fg = presets::by_name(benchmark, 4, presets::wait_mode(benchmark))
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let mut s = Scenario::new(4, strategy, seed)
            .vm(VmScenario::new(fg, 4).pin_one_to_one().measured());
        for _ in 0..n_vms {
            s = s.vm(
                VmScenario::new(presets::hog::cpu_hogs(n_inter), 4).pin_one_to_one(),
            );
        }
        s
    }

    /// Like [`Scenario::fig5_style`] but with a real parallel application
    /// as the background interference (e.g. `"streamcluster"`, `"LU"`),
    /// running `n_inter` threads and repeating forever (§5.2's "(b)/(c)"
    /// panels and the §5.4 weighted-speedup setup when `measure_bg`).
    pub fn real_interference(
        benchmark: &str,
        background: &str,
        n_inter: usize,
        strategy: Strategy,
        seed: u64,
    ) -> Self {
        assert!((1..=4).contains(&n_inter), "n_inter must be 1..=4");
        let fg = presets::by_name(benchmark, 4, presets::wait_mode(benchmark))
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let bg = presets::by_name(background, n_inter, WaitMode::Block)
            .unwrap_or_else(|| panic!("unknown background {background}"))
            .into_background();
        Scenario::new(4, strategy, seed)
            .vm(VmScenario::new(fg, 4).pin_one_to_one().measured())
            .vm(VmScenario::new(bg, 4).pin_one_to_one())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_workloads::WorkloadKind;

    #[test]
    fn fig5_style_builds_the_controlled_setup() {
        let s = Scenario::fig5_style("streamcluster", 2, Strategy::Irs, 1);
        assert_eq!(s.n_pcpus, 4);
        assert_eq!(s.vms.len(), 2);
        assert!(s.vms[0].measured);
        assert!(!s.vms[1].measured);
        assert_eq!(s.vms[1].bundle.n_threads(), 2);
        assert_eq!(
            s.vms[0].pinning.as_ref().unwrap(),
            &vec![PcpuId(0), PcpuId(1), PcpuId(2), PcpuId(3)]
        );
    }

    #[test]
    fn real_interference_wraps_background_forever() {
        let s = Scenario::real_interference("UA", "LU", 2, Strategy::Vanilla, 1);
        assert_eq!(s.vms[1].bundle.kind, WorkloadKind::Interference);
        assert!(s.vms[1].bundle.name.contains("LU"));
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        Scenario::fig5_style("doom", 1, Strategy::Vanilla, 1);
    }

    #[test]
    #[should_panic(expected = "n_inter")]
    fn bad_inter_count_panics() {
        Scenario::fig5_style("streamcluster", 5, Strategy::Vanilla, 1);
    }

    #[test]
    #[should_panic(expected = "65537 VMs; an event addresses at most 65536")]
    fn more_vms_than_an_event_addresses_panics() {
        let mut s = Scenario::new(1, Strategy::Vanilla, 1);
        s.vms = (0..=1 << 16)
            .map(|_| VmScenario::new(presets::hog::cpu_hogs(1), 1))
            .collect();
        s.run();
    }

    #[test]
    fn vm_builder_pins() {
        let b = presets::hog::cpu_hogs(1);
        let v = VmScenario::new(b, 2).pin(vec![PcpuId(1), PcpuId(0)]);
        assert_eq!(v.pinning.unwrap()[0], PcpuId(1));
    }
}
