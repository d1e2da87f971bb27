//! The predecoder's branch-scan latency.
//!
//! The paper's predecoder scans a cache block for branch instructions as it
//! arrives from the LLC, extracting each branch's type and PC-relative
//! displacement before insertion into the L1-I (Section 3.2). The scan
//! takes a few cycles, which is off the critical path for prefetched blocks
//! but adds to the fetch latency of demand misses. The branch extraction
//! itself is the program's `PredecodeSource` oracle; this module holds only
//! the latency the timing model charges for it.

/// Default branch-scan latency in cycles (paper cites "a few cycles",
/// referencing SPARC T4-style predecode).
pub const DEFAULT_PREDECODE_LATENCY: u64 = 2;
