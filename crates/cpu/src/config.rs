//! Core configuration (the paper's Table I).

use crate::component::HwComponent;
use mbu_mem::MemorySystemConfig;
use mbu_sram::Geometry;

/// Microarchitectural parameters of the modeled out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched (and decoded) per cycle.
    pub fetch_width: u32,
    /// Instructions issued to execution per cycle.
    pub issue_width: u32,
    /// Results written back per cycle.
    pub writeback_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Physical integer registers.
    pub phys_regs: u32,
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Instruction-queue entries.
    pub iq_entries: u32,
    /// Decoded-instruction buffer between fetch and rename.
    pub decode_buffer: u32,
    /// Issue strictly in program order (in-order core ablation; the paper's
    /// conclusion notes the methodology also applies to in-order CPUs).
    pub in_order: bool,
    /// Predict conditional branches (bimodal, 1024 2-bit counters) and
    /// execute speculatively with mispredict squash — extension; the
    /// default (off) stalls fetch until branch resolution.
    pub branch_prediction: bool,
    /// Memory-hierarchy configuration.
    pub mem: MemorySystemConfig,
}

impl CoreConfig {
    /// The ARM Cortex-A9-like configuration of Table I: out-of-order,
    /// 2-wide fetch, 4-wide execute/writeback, 56 physical registers,
    /// 40-entry ROB, 32-entry IQ, 32 KB 4-way L1s, 512 KB 8-way L2,
    /// 32-entry TLBs.
    pub fn cortex_a9_like() -> Self {
        Self {
            fetch_width: 2,
            issue_width: 4,
            writeback_width: 4,
            commit_width: 4,
            phys_regs: 56,
            rob_entries: 40,
            iq_entries: 32,
            decode_buffer: 8,
            in_order: false,
            branch_prediction: false,
            mem: MemorySystemConfig::default(),
        }
    }

    /// The same machine with bimodal branch prediction and speculative
    /// execution enabled (extension; see the speculation ablation bench).
    pub fn speculative_a9() -> Self {
        Self {
            branch_prediction: true,
            ..Self::cortex_a9_like()
        }
    }

    /// The same machine with strictly in-order issue — the in-order-CPU
    /// extension the paper's conclusion mentions; everything else
    /// (structures, widths, memory) is unchanged.
    pub fn in_order_a9() -> Self {
        Self {
            in_order: true,
            ..Self::cortex_a9_like()
        }
    }

    /// A deliberately tiny configuration for stress-testing structural
    /// hazards (full ROB/IQ/free-list paths) in unit tests.
    pub fn tiny() -> Self {
        Self {
            fetch_width: 1,
            issue_width: 1,
            writeback_width: 1,
            commit_width: 1,
            phys_regs: 18,
            rob_entries: 4,
            iq_entries: 2,
            decode_buffer: 2,
            in_order: false,
            branch_prediction: false,
            mem: MemorySystemConfig::default(),
        }
    }

    /// Geometry of an injectable component's bit array — a pure function
    /// of the configuration, so no machine needs to be built to learn it.
    pub fn component_geometry(&self, component: HwComponent) -> Geometry {
        match component {
            HwComponent::L1D => self.mem.l1d.data_geometry(),
            HwComponent::L1I => self.mem.l1i.data_geometry(),
            HwComponent::L2 => self.mem.l2.data_geometry(),
            HwComponent::RegFile => Geometry::new(self.phys_regs as usize, 32),
            HwComponent::DTlb => self.mem.dtlb.geometry(),
            HwComponent::ITlb => self.mem.itlb.geometry(),
        }
    }

    /// Geometry of a cache's *tag* array (tag, valid and dirty bits).
    ///
    /// # Panics
    ///
    /// Panics for non-cache components.
    pub fn tag_geometry(&self, component: HwComponent) -> Geometry {
        match component {
            HwComponent::L1D => self.mem.l1d.tag_geometry(),
            HwComponent::L1I => self.mem.l1i.tag_geometry(),
            HwComponent::L2 => self.mem.l2.tag_geometry(),
            other => panic!("{other} has no tag array"),
        }
    }

    /// Validates structural constraints.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot support execution (fewer physical
    /// registers than architectural, zero-sized windows, …).
    pub fn validate(&self) {
        assert!(
            self.phys_regs >= 17,
            "need at least 17 physical registers (15 arch + 2 in flight)"
        );
        assert!(
            self.phys_regs <= 64,
            "physical register file is modeled up to 64 entries"
        );
        assert!(self.rob_entries >= 1 && self.iq_entries >= 1);
        assert!(self.fetch_width >= 1 && self.issue_width >= 1);
        assert!(self.writeback_width >= 1 && self.commit_width >= 1);
        assert!(self.decode_buffer >= self.fetch_width);
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::cortex_a9_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = CoreConfig::cortex_a9_like();
        assert_eq!(c.fetch_width, 2);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.writeback_width, 4);
        assert_eq!(c.phys_regs, 56);
        assert_eq!(c.rob_entries, 40);
        assert_eq!(c.iq_entries, 32);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "physical registers")]
    fn too_few_phys_regs_rejected() {
        let mut c = CoreConfig::cortex_a9_like();
        c.phys_regs = 15;
        c.validate();
    }
}
