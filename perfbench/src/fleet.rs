//! The `warm-fleet` workload: zero simulation. Set-up warms a store with
//! the quick suite and mounts it behind an in-process daemon; each round
//! then runs three operations a warm user pays for:
//!
//! - `warm_render`: a fresh engine over the warm store runs the suite's
//!   jobs and renders every report;
//! - `daemon_batch`: every unique job goes to the memory-warm daemon over
//!   its Unix socket, and the reports are rendered;
//! - `peer_fetch`: the same batch goes to a fresh empty-store daemon
//!   peered to the warm one, which fetches, re-verifies and adopts every
//!   entry in one round trip.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use confluence_serve::{Client, Server, ServerHandle, FETCH_HOP_LIMIT};
use confluence_sim::codec::{workloads_fingerprint, StoreKey};
use confluence_sim::daemon::{submit_jobs, EngineHost};
use confluence_sim::experiments::{self, ExperimentConfig};
use confluence_sim::{EngineStats, Job, PeerSet, SimEngine, SCHEMA_VERSION};
use confluence_store::{Encode, ResultStore, Tier};

use crate::cold::{engine, render, ColdKind, Programs};
use crate::probe::usage;
use crate::spans::{self, At, Tracer};

/// Peer I/O timeout; generous, since a timeout would turn a fetch into a
/// local miss and fail the round-trip check rather than slow it.
const PEER_TIMEOUT: Duration = Duration::from_secs(20);

/// The warm store, its daemon, and what every op is checked against.
pub struct Fleet {
    cfg: ExperimentConfig,
    /// Programs the warm engines are built over. Nothing executes on
    /// them, so they are never translated.
    programs: Programs,
    /// The suite's jobs as the formatters declare them.
    declared: Vec<Job>,
    /// The same jobs moved by the run's seed: what every op submits.
    jobs: Vec<Job>,
    unique: Vec<Job>,
    seed: u64,
    store_dir: PathBuf,
    work: PathBuf,
    sock: PathBuf,
    daemon: Option<ServerHandle>,
    /// The warm-up's render: every op must reproduce it byte for byte.
    reference: String,
    /// Socket ops started so far (see [`Fleet::dephase`]).
    socket_ops: Cell<u64>,
}

/// One timed op's outcome.
pub struct FleetOp {
    /// Timed wall seconds.
    pub secs: f64,
    /// Process CPU seconds inside the timed section.
    pub cpu_s: f64,
    /// Failed checks; empty when the op is correct.
    pub why: Vec<String>,
}

impl Fleet {
    /// Mounts the warm store at `store_dir` (already filled by the
    /// warm-up op over `programs`, with `reference` as its render) behind
    /// a memory-warm daemon bound under `work`.
    pub fn start(
        programs: &Programs,
        store_dir: &Path,
        work: &Path,
        reference: String,
        workers: usize,
        seed: u64,
    ) -> Fleet {
        let cfg = ExperimentConfig::quick();
        let programs: Programs = programs.clone();
        let probe = SimEngine::new(programs.clone());
        let declared = crate::cold::unique(&experiments::all_jobs(&probe, &cfg));
        let jobs = crate::seed::jobs(&experiments::all_jobs(&probe, &cfg), seed);
        let unique = crate::cold::unique(&jobs);
        let sock = work.join("warm.sock");
        let host = Arc::new(EngineHost::new(
            engine(programs.clone(), workers, Some(store_dir)),
            None,
        ));
        let daemon = Server::bind(&sock, host)
            .expect("warm daemon binds its socket")
            .spawn();
        let fleet = Fleet {
            cfg,
            programs,
            declared,
            jobs,
            unique,
            seed,
            store_dir: store_dir.to_path_buf(),
            work: work.to_path_buf(),
            sock,
            daemon: Some(daemon),
            reference,
            socket_ops: Cell::new(0),
        };
        // Memory-warm: the daemon's first batch loads every entry from
        // disk into its cache.
        let warm = fleet.client_engine();
        submit_jobs(&fleet.sock, &warm, &fleet.jobs).expect("warm daemon serves the suite");
        fleet
    }

    /// The suite's unique jobs.
    pub fn unique(&self) -> &[Job] {
        &self.unique
    }

    /// An engine over the fleet's programs with no store: a client.
    pub fn client_engine(&self) -> SimEngine {
        SimEngine::new(self.programs.clone())
    }

    /// `warm_render`. Also returns the engine's accounting and the render
    /// time alone.
    pub fn warm_render(&self, workers: usize, at: At<'_>) -> (FleetOp, EngineStats, f64) {
        let before = usage();
        let start = Instant::now();
        let e = engine(self.programs.clone(), workers, Some(&self.store_dir));
        let run = || e.run(&self.jobs);
        spans::time(at, "engine.run.warm", run);
        let render_start = Instant::now();
        let rep = || {
            crate::seed::alias(&e, &self.declared, self.seed);
            render(&ColdKind::Suite.reports(&e, &self.cfg))
        };
        let csv = spans::time(at, "report.render", rep);
        let end = Instant::now();
        let cpu_s = usage().cpu_s - before.cpu_s;
        let stats = e.stats();
        let mut why = Vec::new();
        check(&mut why, csv == self.reference, || {
            "warm_render: CSV differs from the cold render".into()
        });
        check(&mut why, stats.executed == 0, || {
            format!("warm_render: executed {}", stats.executed)
        });
        check(
            &mut why,
            stats.disk_hits == self.unique.len() as u64,
            || {
                format!(
                    "warm_render: {} disk hits of {}",
                    stats.disk_hits,
                    self.unique.len()
                )
            },
        );
        let op = FleetOp {
            secs: (end - start).as_secs_f64(),
            cpu_s,
            why,
        };
        (op, stats, (end - render_start).as_secs_f64())
    }

    /// Pauses before a socket op, outside its timed section. A daemon's
    /// accept loop polls every few milliseconds, and back-to-back rounds
    /// lock onto one phase of that poll, holding the connect delay at one
    /// value for a whole run (`warm-fleet`'s `batch_s` moved 20% between
    /// runs that way). Starting each op at a golden-ratio offset within
    /// 10 ms samples the delay evenly instead.
    fn dephase(&self) {
        let k = self.socket_ops.get();
        self.socket_ops.set(k + 1);
        let frac = (k as f64 * 0.618_033_988_749_895).fract();
        std::thread::sleep(Duration::from_micros((frac * 10_000.0) as u64));
    }

    /// `daemon_batch`.
    pub fn daemon_batch(&self, at: At<'_>) -> FleetOp {
        self.dephase();
        let before = usage();
        let start = Instant::now();
        let client = self.client_engine();
        let submit = || submit_jobs(&self.sock, &client, &self.jobs);
        let stats = spans::time(at, "serve.submit", submit);
        let rep = || {
            crate::seed::alias(&client, &self.declared, self.seed);
            render(&ColdKind::Suite.reports(&client, &self.cfg))
        };
        let csv = spans::time(at, "report.render", rep);
        let secs = start.elapsed().as_secs_f64();
        let cpu_s = usage().cpu_s - before.cpu_s;
        let mut why = Vec::new();
        match stats {
            Ok(s) => check(&mut why, s.executed == 0, || {
                format!("daemon_batch: executed {}", s.executed)
            }),
            Err(e) => why.push(format!("daemon_batch: {e}")),
        }
        check(&mut why, csv == self.reference, || {
            "daemon_batch: CSV differs from the cold render".into()
        });
        check(&mut why, client.stats().executed == 0, || {
            "daemon_batch: client simulated".into()
        });
        FleetOp { secs, cpu_s, why }
    }

    /// `peer_fetch`: a fresh empty-store daemon peered to the warm one
    /// takes the batch. Only the batch is timed; spawning and stopping
    /// the peer and rendering its results for the check are not. Every
    /// op reuses one store path and socket, emptied first.
    pub fn peer_fetch(&self, workers: usize, at: At<'_>) -> FleetOp {
        let dir = self.work.join("peer-store");
        let sock = self.work.join("peer.sock");
        let _ = std::fs::remove_dir_all(&dir);
        let peer_engine = engine(self.programs.clone(), workers, Some(&dir))
            .with_peers(PeerSet::new(vec![self.sock.clone()], PEER_TIMEOUT));
        let handle = Server::bind(&sock, Arc::new(EngineHost::new(peer_engine, None)))
            .expect("peer daemon binds its socket")
            .spawn();
        let client = self.client_engine();

        self.dephase();
        let before = usage();
        let start = Instant::now();
        let submit = || submit_jobs(&sock, &client, &self.jobs);
        let stats = spans::time(at, "peers.batch", submit);
        let secs = start.elapsed().as_secs_f64();
        let cpu_s = usage().cpu_s - before.cpu_s;

        let stopped = handle.stop();
        let adopted = ResultStore::open(&dir, SCHEMA_VERSION)
            .map(|s| s.len())
            .unwrap_or(0);
        crate::seed::alias(&client, &self.declared, self.seed);
        let csv = render(&ColdKind::Suite.reports(&client, &self.cfg));

        let n = self.unique.len() as u64;
        let mut why = Vec::new();
        check(&mut why, stopped.is_ok(), || {
            "peer_fetch: peer daemon failed".into()
        });
        match stats {
            Ok(s) => {
                check(&mut why, s.remote_round_trips == 1, || {
                    format!("peer_fetch: {} round trips", s.remote_round_trips)
                });
                check(&mut why, s.remote_hits == n, || {
                    format!("peer_fetch: {} of {n} fetched", s.remote_hits)
                });
                check(&mut why, s.executed == 0, || {
                    format!("peer_fetch: executed {}", s.executed)
                });
            }
            Err(e) => why.push(format!("peer_fetch: {e}")),
        }
        check(&mut why, adopted as u64 == n, || {
            format!("peer_fetch: {adopted} of {n} entries adopted")
        });
        check(&mut why, csv == self.reference, || {
            "peer_fetch: CSV differs from the cold render".into()
        });
        FleetOp { secs, cpu_s, why }
    }

    /// The encoded result keys of every unique job.
    pub fn keys(&self) -> Vec<Vec<u8>> {
        let probe = self.client_engine();
        self.unique
            .iter()
            .map(|job| {
                StoreKey {
                    spec: probe.program(job.workload()).spec(),
                    job,
                }
                .to_bytes()
            })
            .collect()
    }

    /// `serve` probes against the memory-warm daemon: one whole-suite
    /// submit without rendering (ms), the median round trip of a 1-job
    /// batch on an open connection (us), and the reply's output bytes.
    pub fn serve_probe(&self, tracer: &Tracer, op: u64) -> Result<(f64, f64, u64), String> {
        let root = tracer.span("probe.serve", None, op);
        let fingerprint = workloads_fingerprint(&self.programs);
        let payloads: Vec<Vec<u8>> = self.unique.iter().map(Encode::to_bytes).collect();
        let mut client =
            Client::connect(&self.sock, SCHEMA_VERSION, fingerprint).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let reply = tracer
            .time("serve.submit.raw", Some(root.id()), op, || {
                client.submit(1, payloads.clone())
            })
            .map_err(|e| e.to_string())?;
        let submit_ms = t.elapsed().as_secs_f64() * 1e3;
        let bytes: u64 = reply.outputs.iter().map(|o| o.len() as u64).sum();
        let one = vec![payloads[payloads.len() - 1].clone()];
        let mut rtts = Vec::new();
        for i in 0..64 {
            let t = Instant::now();
            tracer
                .time("serve.submit.one", Some(root.id()), op, || {
                    client.submit(2 + i, one.clone())
                })
                .map_err(|e| e.to_string())?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok((submit_ms, crate::stats::median(&rtts).unwrap_or(0.0), bytes))
    }

    /// `PeerSet::fetch` of every result key straight from the warm
    /// daemon: `(ms, hits, bytes, round trips)`.
    pub fn peers_probe(&self, tracer: &Tracer, op: u64) -> (f64, u64, u64, u64) {
        let keys = self.keys();
        let peers = PeerSet::new(vec![self.sock.clone()], PEER_TIMEOUT);
        let fingerprint = workloads_fingerprint(&self.programs);
        let t = Instant::now();
        let fetched = tracer.time("peers.fetch", None, op, || {
            peers.fetch(fingerprint, Tier::Result, FETCH_HOP_LIMIT, &keys)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let hits = fetched.entries.iter().filter(|e| e.is_some()).count() as u64;
        (ms, hits, fetched.bytes, fetched.round_trips)
    }

    /// The warm store.
    pub fn store(&self) -> ResultStore {
        ResultStore::open(&self.store_dir, SCHEMA_VERSION).expect("warm store reopens")
    }

    /// Stops the warm daemon and waits for its threads.
    pub fn stop(&mut self) -> bool {
        self.daemon.take().is_none_or(|d| d.stop().is_ok())
    }
}

/// Records `what` in `why` when a check fails.
fn check(why: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        why.push(what());
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}
