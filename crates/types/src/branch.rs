//! Branch classification and predecoded branch metadata.

use serde::{Deserialize, Serialize};

use crate::addr::VAddr;

/// The full branch taxonomy used by the synthetic program generator.
///
/// The paper's BTB stores a 2-bit type field covering four classes
/// (conditional, unconditional, indirect, return); our generator
/// distinguishes calls from plain jumps so the return-address stack can be
/// exercised, and [`BranchKind::class`] maps down to the paper's 2-bit
/// encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Conditional direct branch (taken/not-taken decided by the direction
    /// predictor; target encoded in the instruction).
    Conditional,
    /// Unconditional direct jump.
    Unconditional,
    /// Direct call: unconditional, pushes the return address on the RAS.
    Call,
    /// Return: target supplied by the return-address stack.
    Return,
    /// Indirect jump through a register (e.g. switch tables).
    IndirectJump,
    /// Indirect call (e.g. virtual dispatch); pushes the return address.
    IndirectCall,
}

impl BranchKind {
    /// True if the branch consults the direction predictor.
    #[inline]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }

    /// True if the branch target is not encoded in the instruction and must
    /// be predicted by the indirect target cache or the RAS.
    #[inline]
    pub fn is_indirect(self) -> bool {
        matches!(
            self,
            BranchKind::IndirectJump | BranchKind::IndirectCall | BranchKind::Return
        )
    }

    /// True if executing the branch pushes a return address onto the RAS.
    #[inline]
    pub fn pushes_ras(self) -> bool {
        matches!(self, BranchKind::Call | BranchKind::IndirectCall)
    }

    /// The paper's 2-bit BTB type class for this branch.
    #[inline]
    pub fn class(self) -> BranchClass {
        match self {
            BranchKind::Conditional => BranchClass::Conditional,
            BranchKind::Unconditional | BranchKind::Call => BranchClass::Unconditional,
            BranchKind::IndirectJump | BranchKind::IndirectCall => BranchClass::Indirect,
            BranchKind::Return => BranchClass::Return,
        }
    }
}

/// The 2-bit branch type stored in a BTB entry (paper Section 3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchClass {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct branch (including calls).
    Unconditional,
    /// Indirect branch (jump or call); target from the indirect target cache.
    Indirect,
    /// Return; target from the return-address stack.
    Return,
}

/// A statically known branch inside an instruction block, as produced by the
/// predecoder when a block is fetched (paper Section 3.2).
///
/// `target` is `Some` for direct branches (the displacement is encoded in
/// the instruction and can be precomputed); it is `None` for indirect
/// branches and returns, whose targets come from the indirect target cache
/// or the RAS at prediction time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PredecodedBranch {
    /// Instruction index of the branch within its block (0..16).
    pub offset: u8,
    /// Kind of the branch instruction.
    pub kind: BranchKind,
    /// Statically known target for direct branches, `None` for indirect.
    pub target: Option<VAddr>,
}

impl PredecodedBranch {
    /// Creates a direct branch record.
    pub fn direct(offset: u8, kind: BranchKind, target: VAddr) -> Self {
        debug_assert!(!kind.is_indirect(), "direct branch must have a direct kind");
        PredecodedBranch {
            offset,
            kind,
            target: Some(target),
        }
    }

    /// Creates an indirect branch or return record (no static target).
    pub fn indirect(offset: u8, kind: BranchKind) -> Self {
        debug_assert!(
            kind.is_indirect(),
            "indirect branch must have an indirect kind"
        );
        PredecodedBranch {
            offset,
            kind,
            target: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping_matches_paper_taxonomy() {
        assert_eq!(BranchKind::Conditional.class(), BranchClass::Conditional);
        assert_eq!(
            BranchKind::Unconditional.class(),
            BranchClass::Unconditional
        );
        assert_eq!(BranchKind::Call.class(), BranchClass::Unconditional);
        assert_eq!(BranchKind::IndirectJump.class(), BranchClass::Indirect);
        assert_eq!(BranchKind::IndirectCall.class(), BranchClass::Indirect);
        assert_eq!(BranchKind::Return.class(), BranchClass::Return);
    }

    #[test]
    fn ras_behaviour_flags() {
        assert!(BranchKind::Call.pushes_ras());
        assert!(BranchKind::IndirectCall.pushes_ras());
        assert!(!BranchKind::Conditional.pushes_ras());
        assert!(!BranchKind::Return.pushes_ras());
    }

    #[test]
    fn only_conditionals_consult_direction_predictor() {
        for k in [
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::IndirectJump,
            BranchKind::IndirectCall,
        ] {
            assert!(!k.is_conditional(), "{k:?} must be always taken");
        }
        assert!(BranchKind::Conditional.is_conditional());
    }

    #[test]
    fn indirect_kinds_have_no_static_target() {
        let b = PredecodedBranch::indirect(3, BranchKind::Return);
        assert_eq!(b.target, None);
        let d = PredecodedBranch::direct(1, BranchKind::Call, VAddr::new(0x40));
        assert_eq!(d.target, Some(VAddr::new(0x40)));
    }
}
