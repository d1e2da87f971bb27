//! The accept loop and per-connection protocol driver.
//!
//! The server owns nothing about simulation: it is generic over a
//! [`BatchHost`], the engine-owning side of the daemon. For every
//! connection it runs the handshake, then answers each `SubmitBatch`
//! frame by handing the whole batch to [`BatchHost::run_batch`] — the
//! host schedules it on its own worker pool — and writing one
//! `JobResult` frame per job in index order, then `BatchDone`.
//! Exactly-once semantics across concurrent clients are the host's
//! business — the engine's content-keyed in-flight dedup — so two
//! clients submitting the same job each get a result frame while the
//! simulation runs once.
//!
//! Failure isolation is per connection: a malformed frame or rejected
//! batch earns a typed [`Frame::Error`] and a clean close; a client that
//! disconnects mid-batch only loses its replies (the batch's work still
//! lands in the host's cache and store) and its thread exits. Nothing a
//! client does can poison the shared engine.

use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use confluence_store::Tier;

use crate::protocol::{
    self, BatchStats, ErrorCode, Frame, RecvError, FETCH_HOP_LIMIT, PROTO_VERSION,
};

/// How often the accept loop checks its stop flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A typed refusal from the host: handshake validation or a batch that
/// could not be decoded/executed. Sent to the client verbatim as a
/// [`Frame::Error`].
#[derive(Clone, Debug)]
pub struct Rejection {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl Rejection {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Rejection {
            code,
            message: message.into(),
        }
    }
}

/// The engine-owning side of the daemon, as the server sees it.
///
/// Implementations decode the opaque job payloads with their own schema
/// (the `Hello` handshake guarantees both sides agree on it) and are
/// responsible for exactly-once execution under concurrency — the
/// server will call [`BatchHost::run_batch`] from several connections
/// at once, with overlapping jobs, and expects the host to dedup in
/// flight.
pub trait BatchHost: Send + Sync + 'static {
    /// The host's job schema version, echoed in `HelloAck`.
    fn schema(&self) -> u32;

    /// Accepts or rejects a client handshake. `schema` and
    /// `fingerprint` are the client's job schema version and
    /// workload-config fingerprint.
    ///
    /// # Errors
    ///
    /// A [`Rejection`] is sent to the client as a typed error frame and
    /// the connection is closed.
    fn validate_hello(&self, schema: u32, fingerprint: u64) -> Result<(), Rejection>;

    /// Runs one submitted batch of encoded jobs to completion and
    /// returns exactly one encoded output per job, index-aligned, plus
    /// the batch's accounting (deltas over the batch, settled after any
    /// end-of-batch maintenance such as store GC).
    ///
    /// # Errors
    ///
    /// A [`Rejection`] fails the whole batch: the client gets a typed
    /// error frame instead of any result.
    fn run_batch(&self, jobs: &[Vec<u8>]) -> Result<(Vec<Vec<u8>>, BatchStats), Rejection>;

    /// Answers one batched fetch from a peer (or a daemonless client):
    /// for each encoded store key, the raw verified entry bytes from
    /// this host's store in `tier`, or `None` for a miss. With `ttl > 0`
    /// the host may consult its own peers (forwarding `ttl - 1`) before
    /// conceding a miss. Must return exactly `keys.len()` slots. The
    /// default — a host with no store — misses everything.
    fn fetch_batch(&self, tier: Tier, ttl: u32, keys: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let _ = (tier, ttl);
        vec![None; keys.len()]
    }
}

/// A bound but not yet running server.
pub struct Server<H: BatchHost> {
    listener: UnixListener,
    host: Arc<H>,
    path: PathBuf,
}

impl<H: BatchHost> Server<H> {
    /// Binds a Unix-domain socket at `path`, replacing any stale socket
    /// file left by a previous run.
    ///
    /// # Errors
    ///
    /// Errors if the socket cannot be bound.
    pub fn bind(path: impl AsRef<Path>, host: Arc<H>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        // A crashed daemon leaves its socket file behind; binding over
        // it needs the stale file gone. Losing a race here means the
        // path is genuinely in use and bind reports AddrInUse.
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(&path)?;
        Ok(Server {
            listener,
            host,
            path,
        })
    }

    /// The socket path this server is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Runs the accept loop on the calling thread until the process is
    /// killed. The daemon binary's main loop.
    ///
    /// # Errors
    ///
    /// Errors if the listener fails fatally.
    pub fn run(self) -> io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        serve_loop(self.listener, self.host, &stop, &conns)
    }

    /// Starts the accept loop on a background thread and returns a
    /// handle that can stop it. The in-process form used by tests.
    pub fn spawn(self) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::spawn(move || serve_loop(self.listener, self.host, &stop, &conns))
        };
        ServerHandle {
            stop,
            thread: Some(thread),
            conns,
            path: self.path,
        }
    }
}

/// Handle to a spawned server; stopping joins the accept loop and every
/// live connection thread, then removes the socket file.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<io::Result<()>>>,
    conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    path: PathBuf,
}

impl ServerHandle {
    /// The socket path the server was bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops accepting, waits for in-flight connections to finish, and
    /// removes the socket file.
    ///
    /// # Errors
    ///
    /// Returns the accept loop's fatal error, if it had one.
    pub fn stop(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        let result = match self.thread.take() {
            Some(t) => t.join().unwrap_or(Ok(())),
            None => Ok(()),
        };
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for conn in conns {
            let _ = conn.join();
        }
        let _ = std::fs::remove_file(&self.path);
        result
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

fn serve_loop<H: BatchHost>(
    listener: UnixListener,
    host: Arc<H>,
    stop: &AtomicBool,
    conns: &Mutex<Vec<thread::JoinHandle<()>>>,
) -> io::Result<()> {
    // Nonblocking accept so the loop can notice its stop flag; each
    // accepted stream goes back to blocking for its connection thread.
    listener.set_nonblocking(true)?;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let host = Arc::clone(&host);
                let handle = thread::spawn(move || handle_connection(stream, &*host));
                let mut conns = conns.lock().unwrap();
                // Reap finished connection threads, so a long-running
                // daemon holds one handle per live connection rather than
                // one per connection it has ever served.
                for done in conns.extract_if(.., |c| c.is_finished()) {
                    let _ = done.join();
                }
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sends a typed error frame, ignoring transport failure (the client
/// may already be gone), then lets the connection close.
fn refuse(stream: &mut UnixStream, code: ErrorCode, message: String) {
    let _ = protocol::send(stream, &Frame::Error { code, message });
    let _ = stream.flush();
}

fn handle_connection<H: BatchHost>(mut stream: UnixStream, host: &H) {
    // Handshake first: anything other than a well-formed, compatible
    // Hello gets a typed refusal and a close.
    match protocol::recv(&mut stream) {
        Ok(Frame::Hello {
            proto,
            schema,
            fingerprint,
        }) => {
            if proto != PROTO_VERSION {
                return refuse(
                    &mut stream,
                    ErrorCode::ProtoMismatch,
                    format!("daemon speaks frame protocol v{PROTO_VERSION}, client sent v{proto}"),
                );
            }
            if let Err(rej) = host.validate_hello(schema, fingerprint) {
                return refuse(&mut stream, rej.code, rej.message);
            }
            let ack = Frame::HelloAck {
                proto: PROTO_VERSION,
                schema: host.schema(),
            };
            if protocol::send(&mut stream, &ack).is_err() {
                return;
            }
        }
        Ok(_) => {
            return refuse(
                &mut stream,
                ErrorCode::MalformedFrame,
                "expected Hello as first frame".to_string(),
            );
        }
        Err(RecvError::Closed | RecvError::Io(_)) => return,
        Err(e @ (RecvError::Envelope(_) | RecvError::Malformed(_))) => {
            return refuse(&mut stream, ErrorCode::MalformedFrame, e.to_string());
        }
    }

    loop {
        match protocol::recv(&mut stream) {
            Ok(Frame::SubmitBatch { batch_id, jobs }) => {
                if !serve_batch(&mut stream, host, batch_id, &jobs) {
                    return;
                }
            }
            Ok(Frame::FetchResults { ttl, keys }) => {
                if !serve_fetch(&mut stream, host, Tier::Result, ttl, &keys) {
                    return;
                }
            }
            Ok(Frame::FetchArtifacts { ttl, keys }) => {
                if !serve_fetch(&mut stream, host, Tier::Artifact, ttl, &keys) {
                    return;
                }
            }
            Ok(_) => {
                return refuse(
                    &mut stream,
                    ErrorCode::MalformedFrame,
                    "expected SubmitBatch".to_string(),
                );
            }
            // A dropped client abandons its reads; nothing to clean up
            // here — the shared engine state lives in the host.
            Err(RecvError::Closed | RecvError::Io(_)) => return,
            Err(e @ (RecvError::Envelope(_) | RecvError::Malformed(_))) => {
                return refuse(&mut stream, ErrorCode::MalformedFrame, e.to_string());
            }
        }
    }
}

/// Answers one batched fetch: streams a [`Frame::FetchHit`] per key the
/// host holds, then one [`Frame::FetchDone`]. Returns `false` if the
/// connection should close (transport failure or a host that broke the
/// one-slot-per-key contract).
fn serve_fetch<H: BatchHost>(
    stream: &mut UnixStream,
    host: &H,
    tier: Tier,
    ttl: u32,
    keys: &[Vec<u8>],
) -> bool {
    let entries = host.fetch_batch(tier, ttl.min(FETCH_HOP_LIMIT), keys);
    if entries.len() != keys.len() {
        refuse(
            stream,
            ErrorCode::JobFailed,
            format!("fetch answered {} of {} keys", entries.len(), keys.len()),
        );
        return false;
    }
    let mut hits: u32 = 0;
    for (idx, entry) in entries.into_iter().enumerate() {
        if let Some(entry) = entry {
            hits += 1;
            #[allow(clippy::cast_possible_truncation)]
            let idx = idx as u32;
            if protocol::send(stream, &Frame::FetchHit { idx, entry }).is_err() {
                return false;
            }
        }
    }
    #[allow(clippy::cast_possible_truncation)]
    let misses = keys.len() as u32 - hits;
    protocol::send(stream, &Frame::FetchDone { hits, misses }).is_ok()
}

/// Runs one batch, then writes its results in index order and the
/// closing [`Frame::BatchDone`]. Returns `false` if the connection should
/// close (transport failure or a rejected batch).
fn serve_batch<H: BatchHost>(
    stream: &mut UnixStream,
    host: &H,
    batch_id: u64,
    jobs: &[Vec<u8>],
) -> bool {
    let (outputs, stats) = match host.run_batch(jobs) {
        Ok(done) => done,
        Err(rej) => {
            refuse(stream, rej.code, rej.message);
            return false;
        }
    };
    for (idx, output) in outputs.into_iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        let job_idx = idx as u32;
        if protocol::send(stream, &Frame::JobResult { job_idx, output }).is_err() {
            return false;
        }
    }
    protocol::send(stream, &Frame::BatchDone { batch_id, stats }).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_constructor() {
        let r = Rejection::new(ErrorCode::MalformedJob, "nope");
        assert_eq!(r.code, ErrorCode::MalformedJob);
        assert_eq!(r.message, "nope");
    }

    #[test]
    fn batch_stats_default_is_all_zero() {
        let stats = BatchStats::default();
        assert_eq!(stats.requests, 0);
        assert!(stats.store.is_none());
    }

    /// A host that accepts every handshake and never sees a batch.
    struct IdleHost;

    impl BatchHost for IdleHost {
        fn schema(&self) -> u32 {
            1
        }
        fn validate_hello(&self, _: u32, _: u64) -> Result<(), Rejection> {
            Ok(())
        }
        fn run_batch(&self, _: &[Vec<u8>]) -> Result<(Vec<Vec<u8>>, BatchStats), Rejection> {
            Ok((Vec::new(), BatchStats::default()))
        }
    }

    /// Connections that have closed are joined at the next accept: after
    /// many sequential clients the server holds at most the last two
    /// handles (the newest, and one whose push raced the wait below), not
    /// one per client served.
    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let path =
            std::env::temp_dir().join(format!("confluence-reap-{}.sock", std::process::id()));
        let handle = Server::bind(&path, Arc::new(IdleHost)).unwrap().spawn();
        for _ in 0..20 {
            drop(crate::Client::connect(&path, 1, 0).expect("handshake"));
            // Every thread the server holds exits before the next accept.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !handle.conns.lock().unwrap().iter().all(|c| c.is_finished()) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "connection thread hung"
                );
                thread::sleep(Duration::from_millis(1));
            }
        }
        let held = handle.conns.lock().unwrap().len();
        assert!(
            held <= 2,
            "{held} connection handles held after 20 closed clients"
        );
        handle.stop().unwrap();
    }
}
