//! Persistent content-addressed result store for the Confluence
//! reproduction.
//!
//! Three layers, lowest first:
//!
//! - [`wire`] — shared framing primitives (varints, length prefixes,
//!   fixed-width integers, FNV-1a), also used by the memo-table codec;
//! - [`Encode`]/[`Decode`] — the hand-rolled versioned binary codec
//!   traits, with impls for primitives and containers (schemas for
//!   domain types live next to those types, e.g. `confluence_sim`'s job
//!   codec);
//! - [`ResultStore`] — one verified file per key under
//!   `<dir>/v<schema>/<key-hash>.bin`, written atomically, with
//!   corruption demoted to a cache miss.
//!
//! Everything here assumes results are pure functions of their keys:
//! there is no invalidation protocol, only schema versioning.

#![warn(missing_docs)]

mod codec;
mod store;
pub mod wire;

pub use codec::{Decode, Encode};
pub use store::{verify_entry, GcStats, ResultStore, StoreUsage, Tier};
pub use wire::{read_frame, write_frame, FrameError, Reader, WireError};
