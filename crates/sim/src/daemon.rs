//! The engine-facing halves of the experiment daemon: the
//! [`BatchHost`] implementation `confluence serve` mounts a
//! [`SimEngine`] behind, and the client helper the `--connect` mode of
//! the engine subcommands submits batches through.
//!
//! `confluence_serve` deliberately knows nothing about simulation — job
//! payloads are opaque bytes at its layer. This module is where the
//! opacity ends: [`EngineHost`] decodes each payload with the job codec
//! (`crate::codec`), runs it through the shared engine (inheriting its
//! in-flight dedup, so two clients submitting the same content-keyed
//! job trigger one execution and two results), and settles each batch
//! with artifact persistence and store GC. The handshake pins
//! [`SCHEMA_VERSION`] and the [`workloads_fingerprint`] of the engine's
//! generator specs, so a quick-mode client talking to a full-mode
//! daemon is a typed `ConfigMismatch` refusal, never silently different
//! numbers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use confluence_serve::{BatchHost, BatchStats, ErrorCode, Rejection, StoreLine};
use confluence_serve::{Client, ClientError};
use confluence_store::{Decode, Encode, Tier};
use confluence_trace::MemoStats;

use crate::codec::{output_matches, workloads_fingerprint, SCHEMA_VERSION};
use crate::engine::{EngineStats, SimEngine};
use crate::job::{Job, JobOutput};

/// A [`SimEngine`] mounted behind the daemon protocol.
pub struct EngineHost {
    engine: SimEngine,
    fingerprint: u64,
    store_cap: Option<u64>,
}

/// Pre-batch accounting marks; [`BatchHost::finish_batch`] diffs them
/// into the per-batch deltas a `BatchDone` frame carries.
pub struct EngineSnapshot {
    stats: EngineStats,
    memo: MemoStats,
}

impl EngineHost {
    /// Mounts `engine` as a batch host. `store_cap` (from
    /// `--store-cap-bytes`) is applied to the
    /// engine's store after every batch, so a long-running daemon keeps
    /// its disk footprint bounded without ever evicting mid-batch.
    pub fn new(engine: SimEngine, store_cap: Option<u64>) -> Self {
        let fingerprint = workloads_fingerprint(engine.workloads());
        EngineHost {
            engine,
            fingerprint,
            store_cap,
        }
    }

    /// The mounted engine.
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// The workload-config fingerprint clients must present.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl BatchHost for EngineHost {
    type Snapshot = EngineSnapshot;

    fn schema(&self) -> u32 {
        SCHEMA_VERSION
    }

    fn validate_hello(&self, schema: u32, fingerprint: u64) -> Result<(), Rejection> {
        if schema != SCHEMA_VERSION {
            return Err(Rejection::new(
                ErrorCode::SchemaMismatch,
                format!("daemon serves job schema v{SCHEMA_VERSION}, client speaks v{schema}"),
            ));
        }
        if fingerprint != self.fingerprint {
            return Err(Rejection::new(
                ErrorCode::ConfigMismatch,
                format!(
                    "client workload configuration {fingerprint:016x} differs from the \
                     daemon's {:016x} (e.g. --quick against a full-scale daemon)",
                    self.fingerprint
                ),
            ));
        }
        Ok(())
    }

    fn threads(&self) -> usize {
        self.engine.threads()
    }

    fn cost_hint(&self, job: &[u8]) -> u64 {
        // Undecodable payloads rank anywhere; run_job rejects them with
        // a proper typed error when their turn comes.
        Job::from_bytes(job).map_or(0, |j| j.cost_hint())
    }

    fn run_job(&self, payload: &[u8]) -> Result<Vec<u8>, Rejection> {
        let job = Job::from_bytes(payload).map_err(|e| {
            Rejection::new(
                ErrorCode::MalformedJob,
                format!("job failed to decode: {e}"),
            )
        })?;
        let workload = job.workload();
        if !self.engine.workloads().iter().any(|(w, _)| *w == workload) {
            return Err(Rejection::new(
                ErrorCode::MalformedJob,
                format!("daemon serves no workload {workload:?}"),
            ));
        }
        // A panicking job must stay a connection-scoped failure, not a
        // daemon crash. The engine's slot bookkeeping survives the
        // unwind (waiters on the key re-panic and land here too).
        let output = catch_unwind(AssertUnwindSafe(|| self.engine.output(&job)))
            .map_err(|_| Rejection::new(ErrorCode::JobFailed, format!("job {job:?} failed")))?;
        Ok(output.to_bytes())
    }

    fn prepare_batch(&self, jobs: &[Vec<u8>]) {
        // The batched remote pre-pass: decode what decodes (undecodable
        // payloads earn their typed rejection in run_job) and fetch
        // every local miss from the peers in one round trip. Called
        // after `snapshot`, so the promotions land in this batch's
        // remote-counter deltas.
        let decoded: Vec<Job> = jobs
            .iter()
            .filter_map(|payload| Job::from_bytes(payload).ok())
            .collect();
        self.engine.prefetch_remote(&decoded);
    }

    fn fetch_batch(&self, tier: Tier, ttl: u32, keys: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        self.engine.fetch_remote_raw(tier, ttl, keys)
    }

    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            stats: self.engine.stats(),
            memo: self.engine.memo_stats(),
        }
    }

    fn finish_batch(&self, before: EngineSnapshot) -> BatchStats {
        // Maintenance first — fresh artifacts on disk, then the cap —
        // so the store line below reports post-GC occupancy.
        let written = self.engine.persist_warm_artifacts();
        if written > 0 {
            eprintln!("confluence-serve: wrote {written} memo table(s) to the store");
        }
        if let (Some(store), Some(cap)) = (self.engine.store(), self.store_cap) {
            let gc = store.evict_to_cap(cap);
            if gc.evicted_entries > 0 {
                eprintln!(
                    "confluence-serve: store gc evicted {} entries ({} bytes) to fit {cap} bytes",
                    gc.evicted_entries, gc.evicted_bytes
                );
            }
        }
        let stats = self.engine.stats();
        let memo = self.engine.memo_stats();
        BatchStats {
            // Saturating: concurrent batches race these counters, and a
            // neighbour's increment between our snapshot and theirs must
            // never underflow a delta.
            requests: stats.requests.saturating_sub(before.stats.requests),
            executed: stats.executed.saturating_sub(before.stats.executed),
            hits: stats.hits.saturating_sub(before.stats.hits),
            disk_hits: stats.disk_hits.saturating_sub(before.stats.disk_hits),
            memo_replayed: memo.replayed.saturating_sub(before.memo.replayed),
            memo_recorded: memo.recorded.saturating_sub(before.memo.recorded),
            memo_live: memo.live.saturating_sub(before.memo.live),
            memo_tables: memo.tables as u64,
            memo_steps: memo.steps as u64,
            store: self.engine.store().map(|s| {
                let usage = s.usage();
                StoreLine {
                    root: s.root().display().to_string(),
                    schema: s.schema(),
                    entries: usage.entries as u64,
                    bytes: usage.bytes,
                    artifacts: usage.artifacts as u64,
                    artifact_bytes: usage.artifact_bytes,
                }
            }),
            remote_hits: stats.remote_hits.saturating_sub(before.stats.remote_hits),
            remote_round_trips: stats
                .remote_round_trips
                .saturating_sub(before.stats.remote_round_trips),
            remote_bytes: stats.remote_bytes.saturating_sub(before.stats.remote_bytes),
        }
    }
}

/// Submits `jobs` to the daemon at `sock` and seeds every result into
/// `engine`'s in-memory cache, so the caller's report formatters are
/// pure local hits afterwards — the same post-condition as
/// `SimEngine::run`. Duplicate keys are collapsed before submission
/// (result frames refer to jobs by index, so the daemon never needs to
/// see a duplicate). Returns the daemon's per-batch accounting.
///
/// # Errors
///
/// [`ClientError::Daemon`] carries the daemon's typed refusal; any
/// output that fails to decode or answers the wrong job kind is a
/// [`ClientError::Protocol`].
pub fn submit_jobs(
    sock: &Path,
    engine: &SimEngine,
    jobs: &[Job],
) -> Result<BatchStats, ClientError> {
    let fingerprint = workloads_fingerprint(engine.workloads());
    let mut client = Client::connect(sock, SCHEMA_VERSION, fingerprint)?;

    let mut deduped: Vec<&Job> = Vec::with_capacity(jobs.len());
    let mut seen = std::collections::HashSet::with_capacity(jobs.len());
    for job in jobs {
        if seen.insert(job) {
            deduped.push(job);
        }
    }
    let payloads: Vec<Vec<u8>> = deduped.iter().map(|j| j.to_bytes()).collect();
    let reply = client.submit(1, payloads)?;

    for (job, bytes) in deduped.into_iter().zip(&reply.outputs) {
        let output = JobOutput::from_bytes(bytes)
            .map_err(|e| ClientError::Protocol(format!("daemon result failed to decode: {e}")))?;
        if !output_matches(job, &output) {
            return Err(ClientError::Protocol(format!(
                "daemon answered job {job:?} with the wrong output kind"
            )));
        }
        engine.seed(job.clone(), output);
    }
    Ok(reply.stats)
}
