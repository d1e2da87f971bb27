//! Deterministic design-space search over the memoizing experiment
//! engine.
//!
//! The figure and sweep runners reproduce *published* points; this
//! crate asks the inverse question — which point should you build? A
//! [`Study`] names an objective ("max IPC per mm² under an area
//! budget", "smallest SHIFT history within 1% of peak coverage"), a
//! [`SearchStrategy`] proposes successive batches of candidate points,
//! and the driver maps each batch through the sweep subsystem's public
//! job constructors into ordinary content-keyed jobs on a
//! [`SimEngine`](confluence_sim::SimEngine).
//!
//! That last part is the point of the design: the search inherits the
//! engine's whole memo hierarchy. Probes that coincide with sweep or
//! figure points are cache hits; a search over a warm persistent store
//! executes **zero** simulations; `--connect` routes every batch to a
//! `confluence serve` daemon unchanged. Strategies are seeded and
//! deterministic, so a fixed seed yields an identical visited-point
//! sequence — which is what the committed search goldens pin.
//!
//! Results fold into three [`Report`](confluence_sim::report::Report)s
//! per study: the per-iteration trajectory, the Pareto frontier of
//! metric vs area (joined through `confluence-area`'s model), and the
//! single-row answer.

#![warn(missing_docs)]

pub mod driver;
pub mod objective;
pub mod strategy;

pub use driver::{run_search, SearchOutcome, MAX_ITERATIONS};
pub use objective::{find, registry, AnswerRule, PointEval, Study, StudyKind};
pub use strategy::{
    CoordinateDescent, GoldenSection, Point, SearchStrategy, SplitMix64, ThresholdBisection,
    ThresholdSense,
};
