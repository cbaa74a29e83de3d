//! Virtual machine (domain) descriptors.

use crate::ids::PcpuId;

/// Specification of a VM to create, builder-style.
///
/// # Example
///
/// ```
/// use irs_xen::{PcpuId, VmSpec};
///
/// // A 4-vCPU VM, each vCPU pinned to its own pCPU, SA-capable guest.
/// let spec = VmSpec::new(4)
///     .pin(vec![PcpuId(0), PcpuId(1), PcpuId(2), PcpuId(3)])
///     .sa_capable(true);
/// assert_eq!(spec.n_vcpus, 4);
/// ```
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Number of virtual CPUs.
    pub n_vcpus: usize,
    /// Optional hard affinity, one pCPU per vCPU.
    pub pinning: Option<Vec<PcpuId>>,
    /// Whether the guest kernel implements the `VIRQ_SA_UPCALL` handler.
    ///
    /// The paper's §5.4 background VMs run vanilla kernels: the hypervisor
    /// may be SA-enabled globally, but a VM that is not `sa_capable` never
    /// receives (and would ignore) SA notifications.
    pub sa_capable: bool,
}

impl VmSpec {
    /// A VM with `n_vcpus` vCPUs, unpinned, vanilla guest.
    pub fn new(n_vcpus: usize) -> Self {
        VmSpec {
            n_vcpus,
            pinning: None,
            sa_capable: false,
        }
    }

    /// Pins vCPU `i` to `pcpus[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `pcpus.len() != n_vcpus`.
    pub fn pin(mut self, pcpus: Vec<PcpuId>) -> Self {
        assert_eq!(
            pcpus.len(),
            self.n_vcpus,
            "pinning must name exactly one pCPU per vCPU"
        );
        self.pinning = Some(pcpus);
        self
    }

    /// Pins every vCPU to the same pCPU (used by single-vCPU interferers and
    /// the consolidation experiments of Fig 11).
    pub fn pin_all(mut self, pcpu: PcpuId) -> Self {
        self.pinning = Some(vec![pcpu; self.n_vcpus]);
        self
    }

    /// Marks the guest as implementing the SA receiver.
    pub fn sa_capable(mut self, yes: bool) -> Self {
        self.sa_capable = yes;
        self
    }
}

/// Internal per-VM record.
#[derive(Debug, Clone)]
pub(crate) struct Vm {
    pub sa_capable: bool,
    pub n_vcpus: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let s = VmSpec::new(2);
        assert!(s.pinning.is_none());
        assert!(!s.sa_capable);
    }

    #[test]
    fn pin_all_replicates() {
        let s = VmSpec::new(3).pin_all(PcpuId(7));
        assert_eq!(s.pinning.unwrap(), vec![PcpuId(7); 3]);
    }

    #[test]
    #[should_panic(expected = "one pCPU per vCPU")]
    fn pin_length_mismatch_panics() {
        let _ = VmSpec::new(2).pin(vec![PcpuId(0)]);
    }
}
