//! Identifier newtypes for the hypervisor domain.

use std::fmt;

/// Index of a physical CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PcpuId(pub usize);

impl fmt::Display for PcpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pcpu{}", self.0)
    }
}

/// Identifier of a virtual machine (a Xen domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub usize);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// A `(vm, vcpu index)` pair naming one virtual CPU in the whole system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcpuRef {
    /// Owning VM.
    pub vm: VmId,
    /// Index of the vCPU within the VM (0-based).
    pub idx: usize,
}

impl VcpuRef {
    /// Creates a vCPU reference.
    pub fn new(vm: VmId, idx: usize) -> Self {
        VcpuRef { vm, idx }
    }
}

impl fmt::Display for VcpuRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.v{}", self.vm, self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(PcpuId(3).to_string(), "pcpu3");
        assert_eq!(VmId(1).to_string(), "vm1");
        assert_eq!(VcpuRef::new(VmId(1), 2).to_string(), "vm1.v2");
    }

    #[test]
    fn vcpu_ref_ordering_is_by_vm_then_idx() {
        let a = VcpuRef::new(VmId(0), 5);
        let b = VcpuRef::new(VmId(1), 0);
        assert!(a < b);
    }
}
