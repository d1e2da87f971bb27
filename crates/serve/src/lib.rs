//! The experiment service: one warm engine, many concurrent clients.
//!
//! Every stand-alone run of the experiment suite pays engine spin-up
//! (workload generation, program translation) and shares cache warmth
//! only through the filesystem. This crate is the daemon shape of the
//! same machinery: a long-running process owns the engine and its
//! persistent store, and N clients submit job batches over a
//! Unix-domain socket, sharing one in-memory cache, one warm-artifact
//! import per workload, and exactly-once execution across all of them.
//!
//! Three layers, lowest first:
//!
//! - [`protocol`] — the versioned frame vocabulary ([`Frame`],
//!   [`BatchStats`], [`ErrorCode`]) encoded with the store's codec
//!   conventions and carried in the store's checksummed stream envelope
//!   (`confluence_store::write_frame`). Job payloads are **opaque byte
//!   strings** at this layer: the daemon and its clients agree on the
//!   job schema out of band (the `Hello` handshake pins schema version
//!   and workload-config fingerprint), which keeps this crate free of
//!   any simulator dependency — and the dependency DAG acyclic, since
//!   `confluence_sim` links the client side into the `confluence` binary.
//! - [`server`] — the accept loop and per-connection protocol driver,
//!   generic over a [`BatchHost`]: the engine-owning side implements
//!   four methods (report its schema, validate a handshake, run a
//!   whole batch, answer a peer fetch) and gets multiplexing, framing,
//!   and per-connection failure isolation for free. Scheduling a batch
//!   is the host's business: the engine runs it on the same scheduler
//!   as in process.
//! - [`client`] — the blocking client: handshake, submit a batch,
//!   collect its results into submission order.
//!
//! The engine-facing [`BatchHost`] implementation lives in
//! `confluence_sim` (`daemon` module), which owns the job codec and the
//! engine; `confluence serve` mounts it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod protocol;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod server;

#[cfg(unix)]
pub use client::{BatchReply, Client, ClientError};
pub use protocol::{
    BatchStats, ErrorCode, Frame, StoreLine, FETCH_HOP_LIMIT, MAX_FRAME_LEN, PROTO_VERSION,
};
#[cfg(unix)]
pub use server::{BatchHost, Rejection, Server, ServerHandle};
