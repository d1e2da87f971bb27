//! Dynamic trace records emitted by the workload executor.

use serde::{Deserialize, Serialize};

use crate::addr::VAddr;
use crate::branch::BranchKind;

/// The dynamic outcome of a branch instruction in the committed trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchOutcome {
    /// Static kind of the branch instruction.
    pub kind: BranchKind,
    /// Whether the branch was taken in this dynamic instance.
    pub taken: bool,
    /// The target the branch redirected to when taken. For not-taken
    /// conditionals this is the would-be target (statically encoded).
    pub target: VAddr,
}

/// One committed instruction in the trace.
///
/// The trace is the *correct-path* instruction stream, which is what
/// trace-driven frontend simulation consumes; wrong-path effects are modelled
/// with penalty cycles in the timing model rather than replayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Program counter of the committed instruction.
    pub pc: VAddr,
    /// Branch outcome if the instruction is a branch, `None` otherwise.
    pub branch: Option<BranchOutcome>,
}

impl TraceRecord {
    /// Creates a non-branch instruction record.
    #[inline]
    pub fn plain(pc: VAddr) -> Self {
        TraceRecord { pc, branch: None }
    }

    /// Creates a branch instruction record.
    #[inline]
    pub fn branch(pc: VAddr, kind: BranchKind, taken: bool, target: VAddr) -> Self {
        TraceRecord {
            pc,
            branch: Some(BranchOutcome {
                kind,
                taken,
                target,
            }),
        }
    }

    /// The address of the next instruction the core commits after this one.
    #[inline]
    pub fn next_pc(&self) -> VAddr {
        match self.branch {
            Some(b) if b.taken => b.target,
            _ => self.pc.next_instr(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pc_follows_taken_branch() {
        let r = TraceRecord::branch(
            VAddr::new(0x100),
            BranchKind::Unconditional,
            true,
            VAddr::new(0x800),
        );
        assert_eq!(r.next_pc(), VAddr::new(0x800));
    }

    #[test]
    fn next_pc_falls_through_not_taken() {
        let r = TraceRecord::branch(
            VAddr::new(0x100),
            BranchKind::Conditional,
            false,
            VAddr::new(0x800),
        );
        assert_eq!(r.next_pc(), VAddr::new(0x104));
    }

    #[test]
    fn plain_record_is_sequential() {
        let r = TraceRecord::plain(VAddr::new(0x200));
        assert_eq!(r.next_pc(), VAddr::new(0x204));
        assert!(r.branch.is_none());
    }
}
