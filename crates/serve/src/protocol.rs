//! The versioned frame vocabulary of the experiment service.
//!
//! Every frame is one [`Frame`] value encoded with the store codec
//! conventions (1-byte tags, varint integers, length-prefixed byte
//! strings) and carried in the store's checksummed stream envelope
//! (`u32 len | payload | u64 fnv`, see `confluence_store::write_frame`).
//! Tag values and field orders are pinned by the golden-bytes tests at
//! the bottom of this file — the same discipline as the result-store
//! job schema.
//!
//! A session is: client sends [`Frame::Hello`] (protocol version, job
//! schema version, workload-config fingerprint); server answers
//! [`Frame::HelloAck`] or a typed [`Frame::Error`] and closes. Each
//! [`Frame::SubmitBatch`] is answered by one [`Frame::JobResult`] per
//! job, carrying the job's submission index, and a final
//! [`Frame::BatchDone`] with the batch's cache accounting, so the client
//! can render the same cache-summary line an in-process run prints. A
//! failed batch is answered by one typed [`Frame::Error`] instead. The
//! server writes the results in index order once the whole batch has
//! run, but the index is what places a result, so clients accept any
//! order. Any malformed or out-of-place frame gets a
//! typed [`Frame::Error`] and a clean close; corruption never panics
//! the peer.
//!
//! Job payloads and result payloads are opaque byte strings here; the
//! `Hello` handshake (schema version + config fingerprint) is what
//! guarantees both sides interpret them identically.

use std::io;

use confluence_store::wire::{self, FrameError};
use confluence_store::{Decode, Encode, Reader, WireError};

/// Version of the frame protocol itself (envelope, tags, field orders).
/// Bump on any wire-visible change; the server refuses mismatched
/// clients with [`ErrorCode::ProtoMismatch`] instead of misparsing.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on peer-forwarding depth for the remote warm tier. A
/// fetch request carries a `ttl`; a daemon holding a miss consults its
/// own peers only while `ttl > 0`, forwarding with `ttl - 1`, and the
/// server clamps inbound values here — so a ring of mutually-peered
/// daemons always terminates with a miss instead of recursing, whatever
/// a client claims.
pub const FETCH_HOP_LIMIT: u32 = 3;

/// Upper bound on one frame's payload. Generous: the quick suite's
/// whole job batch is a few kilobytes and the largest result (a
/// many-core timing run) a few hundred bytes; the cap exists so a
/// garbled length prefix fails typed instead of demanding memory.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Machine-readable class of a [`Frame::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer speaks a different frame-protocol version.
    ProtoMismatch,
    /// The peer's job schema version differs from the daemon's.
    SchemaMismatch,
    /// The peer's workload configuration (generator specs) differs from
    /// what the daemon's engine was built over, so job keys would alias
    /// across different programs.
    ConfigMismatch,
    /// A frame failed to decode, or arrived out of protocol order.
    MalformedFrame,
    /// A submitted job payload failed to decode, or names a workload
    /// the daemon does not serve.
    MalformedJob,
    /// A job was accepted but its execution failed on the daemon.
    JobFailed,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::ProtoMismatch => 0,
            ErrorCode::SchemaMismatch => 1,
            ErrorCode::ConfigMismatch => 2,
            ErrorCode::MalformedFrame => 3,
            ErrorCode::MalformedJob => 4,
            ErrorCode::JobFailed => 5,
        }
    }

    fn from_tag(offset: usize, tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => ErrorCode::ProtoMismatch,
            1 => ErrorCode::SchemaMismatch,
            2 => ErrorCode::ConfigMismatch,
            3 => ErrorCode::MalformedFrame,
            4 => ErrorCode::MalformedJob,
            5 => ErrorCode::JobFailed,
            _ => {
                return Err(WireError {
                    offset,
                    reason: "unknown error-code tag",
                })
            }
        })
    }
}

/// One line of the daemon's persistent-store accounting, carried in
/// [`BatchStats`] so clients can render the store segment of the
/// cache-summary line without filesystem access to the daemon's store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreLine {
    /// The store's versioned root directory, as the daemon sees it.
    pub root: String,
    /// Schema version the store was opened with.
    pub schema: u32,
    /// Committed result entries on disk.
    pub entries: u64,
    /// Their total bytes.
    pub bytes: u64,
    /// Committed warm-artifact files on disk.
    pub artifacts: u64,
    /// Their total bytes.
    pub artifact_bytes: u64,
}

impl Encode for StoreLine {
    fn encode(&self, out: &mut Vec<u8>) {
        self.root.encode(out);
        self.schema.encode(out);
        self.entries.encode(out);
        self.bytes.encode(out);
        self.artifacts.encode(out);
        self.artifact_bytes.encode(out);
    }
}

impl Decode for StoreLine {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StoreLine {
            root: Decode::decode(r)?,
            schema: Decode::decode(r)?,
            entries: Decode::decode(r)?,
            bytes: Decode::decode(r)?,
            artifacts: Decode::decode(r)?,
            artifact_bytes: Decode::decode(r)?,
        })
    }
}

/// Cache accounting for one served batch, carried by
/// [`Frame::BatchDone`]. Request/hit/memo counters are **deltas over
/// the batch** (so a warm batch reports `executed: 0` and a replay-only
/// batch reports `memo_recorded: 0`, exactly what CI greps); the memo
/// table/step figures and the store line are absolutes — bank and disk
/// occupancy at batch end. The deltas are windows over the daemon's
/// shared counters: exact for sequential batches, while overlapping
/// batches each see whatever executions landed during their window —
/// the daemon's own totals stay exactly-once either way.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Job requests this batch made against the engine.
    pub requests: u64,
    /// Unique jobs the batch actually simulated.
    pub executed: u64,
    /// Requests served from the in-memory cache (including waits on
    /// another client's in-flight execution).
    pub hits: u64,
    /// Unique jobs served from the persistent result store.
    pub disk_hits: u64,
    /// Executor requests begun in replay mode (path-memo hits).
    pub memo_replayed: u64,
    /// Executor requests whose recording was newly finalized.
    pub memo_recorded: u64,
    /// Executor requests stepped live (cold paths).
    pub memo_live: u64,
    /// Memoized request paths in the banks at batch end (absolute).
    pub memo_tables: u64,
    /// Total memo steps in the bank arenas at batch end (absolute).
    pub memo_steps: u64,
    /// The daemon's store occupancy at batch end, if a store is
    /// attached.
    pub store: Option<StoreLine>,
    /// Entries promoted from remote peers during the batch (delta).
    pub remote_hits: u64,
    /// Batched fetch exchanges with peers during the batch (delta) —
    /// the figure the one-round-trip-per-batch contract is asserted on.
    pub remote_round_trips: u64,
    /// Raw entry bytes fetched from peers during the batch (delta).
    pub remote_bytes: u64,
}

impl Encode for BatchStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.requests.encode(out);
        self.executed.encode(out);
        self.hits.encode(out);
        self.disk_hits.encode(out);
        self.memo_replayed.encode(out);
        self.memo_recorded.encode(out);
        self.memo_live.encode(out);
        self.memo_tables.encode(out);
        self.memo_steps.encode(out);
        match &self.store {
            None => out.push(0),
            Some(line) => {
                out.push(1);
                line.encode(out);
            }
        }
        // Remote-tier counters ride a default-invisible tail extension
        // (the PR 5 codec pattern): a batch with no remote traffic
        // encodes exactly the v1 bytes, so the goldens stay green and
        // old clients parse new daemons whenever no peer was consulted.
        if self.remote_hits != 0 || self.remote_round_trips != 0 || self.remote_bytes != 0 {
            self.remote_hits.encode(out);
            self.remote_round_trips.encode(out);
            self.remote_bytes.encode(out);
        }
    }
}

impl Decode for BatchStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut stats = BatchStats {
            requests: Decode::decode(r)?,
            executed: Decode::decode(r)?,
            hits: Decode::decode(r)?,
            disk_hits: Decode::decode(r)?,
            memo_replayed: Decode::decode(r)?,
            memo_recorded: Decode::decode(r)?,
            memo_live: Decode::decode(r)?,
            memo_tables: Decode::decode(r)?,
            memo_steps: Decode::decode(r)?,
            store: None,
            remote_hits: 0,
            remote_round_trips: 0,
            remote_bytes: 0,
        };
        let offset = r.offset();
        match r.u8()? {
            0 => {}
            1 => stats.store = Some(Decode::decode(r)?),
            _ => {
                return Err(WireError {
                    offset,
                    reason: "invalid store-line presence byte",
                })
            }
        }
        // Tail extension: absent on v1 writers and remote-quiet batches.
        if !r.is_empty() {
            stats.remote_hits = Decode::decode(r)?;
            stats.remote_round_trips = Decode::decode(r)?;
            stats.remote_bytes = Decode::decode(r)?;
        }
        Ok(stats)
    }
}

/// One protocol frame. See the module docs for the session shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: open a session. Carries the client's frame
    /// protocol version, its job schema version, and the FNV-1a
    /// fingerprint of its workload configuration.
    Hello {
        /// The client's [`PROTO_VERSION`].
        proto: u32,
        /// The client's job schema version.
        schema: u32,
        /// Fingerprint of the client's workload generator specs.
        fingerprint: u64,
    },
    /// Server → client: handshake accepted; echoes the server's own
    /// versions.
    HelloAck {
        /// The server's [`PROTO_VERSION`].
        proto: u32,
        /// The server's job schema version.
        schema: u32,
    },
    /// Client → server: run these jobs. Each job is an opaque
    /// schema-encoded payload; results refer to jobs by index into this
    /// vector.
    SubmitBatch {
        /// Client-chosen batch identifier, echoed by
        /// [`Frame::BatchDone`].
        batch_id: u64,
        /// The encoded jobs, in submission order.
        jobs: Vec<Vec<u8>>,
    },
    /// Server → client: one job's encoded output. Sent after the whole
    /// batch has run, in index order; the index, not arrival order,
    /// places the result.
    JobResult {
        /// Index into the submitted batch.
        job_idx: u32,
        /// The job's schema-encoded output.
        output: Vec<u8>,
    },
    /// Server → client: every job of the batch has been answered.
    BatchDone {
        /// The submitting [`Frame::SubmitBatch`]'s identifier.
        batch_id: u64,
        /// Cache accounting for the batch.
        stats: BatchStats,
    },
    /// Either direction: a typed failure. The sender closes the
    /// connection after this frame.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client/peer → server: batched lookup of raw result-tier store
    /// entries — the remote warm tier's read path. One frame carries
    /// *every* key a batch missed locally, so a cold batch costs one
    /// round trip, not one per job. Answered by a stream of
    /// [`Frame::FetchHit`]s (hits only, in no particular order) closed
    /// by one [`Frame::FetchDone`]. A v1 daemon answers the unknown tag
    /// with a typed [`ErrorCode::MalformedFrame`] — the version refusal
    /// that lets old and new daemons coexist on one socket directory.
    FetchResults {
        /// Remaining peer-forwarding hops. A server holding a miss may
        /// consult its own peers only when `ttl > 0`, forwarding with
        /// `ttl - 1` — so mutually-peered daemons terminate with a miss
        /// instead of recursing.
        ttl: u32,
        /// Encoded store keys (the store's key bytes, not job payloads),
        /// in request order; hits refer to this vector by index.
        keys: Vec<Vec<u8>>,
    },
    /// Client/peer → server: as [`Frame::FetchResults`], against the
    /// warm-artifact tier.
    FetchArtifacts {
        /// As [`Frame::FetchResults::ttl`].
        ttl: u32,
        /// As [`Frame::FetchResults::keys`].
        keys: Vec<Vec<u8>>,
    },
    /// Server → client/peer: one fetched entry — the *entire verified
    /// store entry file*, container framing included, which the receiver
    /// re-verifies byte-for-byte before adopting (a lying peer demotes
    /// to a miss, never poisons).
    FetchHit {
        /// Index into the requesting fetch frame's key vector.
        idx: u32,
        /// The raw store entry bytes.
        entry: Vec<u8>,
    },
    /// Server → client/peer: the fetch is fully answered; every key not
    /// named by a preceding [`Frame::FetchHit`] is a miss.
    FetchDone {
        /// Keys answered with a [`Frame::FetchHit`].
        hits: u32,
        /// Keys the server (and, within `ttl`, its peers) did not hold.
        misses: u32,
    },
}

impl Encode for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                proto,
                schema,
                fingerprint,
            } => {
                out.push(0);
                proto.encode(out);
                schema.encode(out);
                fingerprint.encode(out);
            }
            Frame::HelloAck { proto, schema } => {
                out.push(1);
                proto.encode(out);
                schema.encode(out);
            }
            Frame::SubmitBatch { batch_id, jobs } => {
                out.push(2);
                batch_id.encode(out);
                wire::put_usize(out, jobs.len());
                for job in jobs {
                    wire::put_length_prefixed(out, job);
                }
            }
            Frame::JobResult { job_idx, output } => {
                out.push(3);
                job_idx.encode(out);
                wire::put_length_prefixed(out, output);
            }
            Frame::BatchDone { batch_id, stats } => {
                out.push(4);
                batch_id.encode(out);
                stats.encode(out);
            }
            Frame::Error { code, message } => {
                out.push(5);
                out.push(code.tag());
                message.encode(out);
            }
            Frame::FetchResults { ttl, keys } => encode_fetch(out, 6, *ttl, keys),
            Frame::FetchArtifacts { ttl, keys } => encode_fetch(out, 7, *ttl, keys),
            Frame::FetchHit { idx, entry } => {
                out.push(8);
                idx.encode(out);
                wire::put_length_prefixed(out, entry);
            }
            Frame::FetchDone { hits, misses } => {
                out.push(9);
                hits.encode(out);
                misses.encode(out);
            }
        }
    }
}

fn encode_fetch(out: &mut Vec<u8>, tag: u8, ttl: u32, keys: &[Vec<u8>]) {
    out.push(tag);
    ttl.encode(out);
    wire::put_usize(out, keys.len());
    for key in keys {
        wire::put_length_prefixed(out, key);
    }
}

/// Decodes the shared tail of the two fetch-request frames, with the
/// same allocation guard as [`Frame::SubmitBatch`]'s job vector.
fn decode_fetch(r: &mut Reader<'_>) -> Result<(u32, Vec<Vec<u8>>), WireError> {
    let ttl = Decode::decode(r)?;
    let count = r.usize_varint()?;
    if count > r.remaining() {
        return Err(r.error("key count exceeds buffer"));
    }
    let mut keys = Vec::with_capacity(count);
    for _ in 0..count {
        keys.push(r.length_prefixed()?.to_vec());
    }
    Ok((ttl, keys))
}

impl Decode for Frame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        Ok(match r.u8()? {
            0 => Frame::Hello {
                proto: Decode::decode(r)?,
                schema: Decode::decode(r)?,
                fingerprint: Decode::decode(r)?,
            },
            1 => Frame::HelloAck {
                proto: Decode::decode(r)?,
                schema: Decode::decode(r)?,
            },
            2 => {
                let batch_id = Decode::decode(r)?;
                let count = r.usize_varint()?;
                // Same allocation guard as the store codec's Vec<T>:
                // a buffer holding `count` jobs is at least `count`
                // bytes long.
                if count > r.remaining() {
                    return Err(r.error("job count exceeds buffer"));
                }
                let mut jobs = Vec::with_capacity(count);
                for _ in 0..count {
                    jobs.push(r.length_prefixed()?.to_vec());
                }
                Frame::SubmitBatch { batch_id, jobs }
            }
            3 => Frame::JobResult {
                job_idx: Decode::decode(r)?,
                output: r.length_prefixed()?.to_vec(),
            },
            4 => Frame::BatchDone {
                batch_id: Decode::decode(r)?,
                stats: Decode::decode(r)?,
            },
            5 => {
                let code_offset = r.offset();
                let code = ErrorCode::from_tag(code_offset, r.u8()?)?;
                Frame::Error {
                    code,
                    message: Decode::decode(r)?,
                }
            }
            6 => {
                let (ttl, keys) = decode_fetch(r)?;
                Frame::FetchResults { ttl, keys }
            }
            7 => {
                let (ttl, keys) = decode_fetch(r)?;
                Frame::FetchArtifacts { ttl, keys }
            }
            8 => Frame::FetchHit {
                idx: Decode::decode(r)?,
                entry: r.length_prefixed()?.to_vec(),
            },
            9 => Frame::FetchDone {
                hits: Decode::decode(r)?,
                misses: Decode::decode(r)?,
            },
            _ => {
                return Err(WireError {
                    offset,
                    reason: "unknown frame tag",
                })
            }
        })
    }
}

/// Why a frame could not be received.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The transport failed (including mid-frame EOF).
    Io(io::Error),
    /// The envelope failed verification (length cap, checksum) — the
    /// stream cannot be resynchronized.
    Envelope(&'static str),
    /// The envelope verified but the payload is not a valid frame.
    Malformed(WireError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "peer closed the connection"),
            RecvError::Io(e) => write!(f, "transport failed: {e}"),
            RecvError::Envelope(reason) => write!(f, "corrupt frame envelope: {reason}"),
            RecvError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Writes one frame into the checksummed stream envelope.
///
/// # Errors
///
/// Errors if the transport rejects the write.
pub fn send<W: io::Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    wire::write_frame(w, &frame.to_bytes())
}

/// Reads and decodes one frame from the stream envelope. Never panics
/// on corrupt input: every defect maps to a typed [`RecvError`].
///
/// # Errors
///
/// As [`RecvError`] describes.
pub fn recv<R: io::Read>(r: &mut R) -> Result<Frame, RecvError> {
    let payload = wire::read_frame(r, MAX_FRAME_LEN).map_err(|e| match e {
        FrameError::Closed => RecvError::Closed,
        FrameError::Io(e) => RecvError::Io(e),
        FrameError::Corrupt(reason) => RecvError::Envelope(reason),
    })?;
    Frame::from_bytes(&payload).map_err(RecvError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn sample_stats() -> BatchStats {
        BatchStats {
            requests: 390,
            executed: 230,
            hits: 160,
            disk_hits: 0,
            memo_replayed: 7,
            memo_recorded: 21,
            memo_live: 3,
            memo_tables: 21,
            memo_steps: 6000,
            store: Some(StoreLine {
                root: "/srv/store/v1".to_string(),
                schema: 1,
                entries: 230,
                bytes: 41000,
                artifacts: 5,
                artifact_bytes: 9000,
            }),
            ..BatchStats::default()
        }
    }

    fn every_frame() -> Vec<Frame> {
        vec![
            Frame::Hello {
                proto: PROTO_VERSION,
                schema: 1,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            },
            Frame::HelloAck {
                proto: PROTO_VERSION,
                schema: 1,
            },
            Frame::SubmitBatch {
                batch_id: 42,
                jobs: vec![vec![0, 4, 1], vec![], vec![2, 2, 0xFF]],
            },
            Frame::JobResult {
                job_idx: 7,
                output: vec![0, 1, 2, 3],
            },
            Frame::BatchDone {
                batch_id: 42,
                stats: sample_stats(),
            },
            Frame::BatchDone {
                batch_id: 0,
                stats: BatchStats::default(),
            },
            Frame::Error {
                code: ErrorCode::SchemaMismatch,
                message: "daemon speaks schema v2".to_string(),
            },
            Frame::BatchDone {
                batch_id: 3,
                stats: BatchStats {
                    remote_hits: 12,
                    remote_round_trips: 1,
                    remote_bytes: 2200,
                    ..sample_stats()
                },
            },
            Frame::FetchResults {
                ttl: 3,
                keys: vec![vec![0x01, 0x02], vec![], vec![0xFE]],
            },
            Frame::FetchArtifacts {
                ttl: 0,
                keys: vec![vec![0x42; 9]],
            },
            Frame::FetchHit {
                idx: 2,
                entry: vec![0x43, 0x46, 0x52, 0x53, 0x01],
            },
            Frame::FetchDone { hits: 2, misses: 1 },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for frame in every_frame() {
            let bytes = frame.to_bytes();
            assert_eq!(Frame::from_bytes(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn frames_roundtrip_through_the_stream_envelope() {
        let mut buf = Vec::new();
        for frame in every_frame() {
            send(&mut buf, &frame).unwrap();
        }
        let mut r = io::Cursor::new(buf);
        for frame in every_frame() {
            assert_eq!(recv(&mut r).unwrap(), frame);
        }
        assert!(matches!(recv(&mut r), Err(RecvError::Closed)));
    }

    /// Golden bytes: pins frame tags, field orders, and integer
    /// encodings of protocol v1. If this fails, the wire format changed
    /// — bump [`PROTO_VERSION`] and update the expectation.
    #[test]
    fn golden_bytes_pin_protocol_v1() {
        assert_eq!(PROTO_VERSION, 1);
        let hello = Frame::Hello {
            proto: 1,
            schema: 1,
            fingerprint: 0x0123_4567_89AB_CDEF,
        };
        assert_eq!(hex(&hello.to_bytes()), "000101ef9bafcdf8acd19101");

        let ack = Frame::HelloAck {
            proto: 1,
            schema: 1,
        };
        assert_eq!(hex(&ack.to_bytes()), "010101");

        let submit = Frame::SubmitBatch {
            batch_id: 300,
            jobs: vec![vec![0xAA, 0xBB], vec![0xCC]],
        };
        assert_eq!(hex(&submit.to_bytes()), "02ac020202aabb01cc");

        let result = Frame::JobResult {
            job_idx: 5,
            output: vec![0x11, 0x22, 0x33],
        };
        assert_eq!(hex(&result.to_bytes()), "030503112233");

        let done = Frame::BatchDone {
            batch_id: 1,
            stats: BatchStats {
                requests: 2,
                executed: 1,
                hits: 1,
                disk_hits: 0,
                memo_replayed: 0,
                memo_recorded: 128,
                memo_live: 0,
                memo_tables: 128,
                memo_steps: 1000,
                store: None,
                ..BatchStats::default()
            },
        };
        assert_eq!(hex(&done.to_bytes()), "040102010100008001008001e80700");

        let err = Frame::Error {
            code: ErrorCode::MalformedJob,
            message: "bad".to_string(),
        };
        assert_eq!(hex(&err.to_bytes()), "050403626164");
    }

    /// Golden bytes for the remote-warm-tier fetch frames (tags 6–9) and
    /// the remote-counter tail of [`BatchStats`]. The tail is
    /// default-invisible: a remote-quiet stats block encodes exactly the
    /// v1 bytes (pinned above), so these pins are additive and the v1
    /// goldens never move.
    #[test]
    fn golden_bytes_pin_fetch_frames() {
        let fetch = Frame::FetchResults {
            ttl: 3,
            keys: vec![vec![0xAA, 0xBB], vec![0xCC]],
        };
        assert_eq!(hex(&fetch.to_bytes()), "06030202aabb01cc");

        let fetch_art = Frame::FetchArtifacts {
            ttl: 0,
            keys: vec![vec![0xDD]],
        };
        assert_eq!(hex(&fetch_art.to_bytes()), "07000101dd");

        let hit = Frame::FetchHit {
            idx: 5,
            entry: vec![0x11, 0x22, 0x33],
        };
        assert_eq!(hex(&hit.to_bytes()), "080503112233");

        let done = Frame::FetchDone { hits: 2, misses: 1 };
        assert_eq!(hex(&done.to_bytes()), "090201");

        let stats = BatchStats {
            requests: 2,
            disk_hits: 2,
            remote_hits: 2,
            remote_round_trips: 1,
            remote_bytes: 300,
            ..BatchStats::default()
        };
        assert_eq!(
            hex(&stats.to_bytes()),
            "0200000200000000000002 01 ac02".replace(' ', "")
        );
    }

    /// A remote-quiet [`BatchStats`] must encode byte-identically to v1
    /// — the default-invisible half of the tail-extension contract — and
    /// a truncated (v1-written) stats block must decode with zeroed
    /// remote counters.
    #[test]
    fn remote_counter_tail_is_default_invisible() {
        let quiet = sample_stats();
        let bytes = quiet.to_bytes();
        let extended = BatchStats {
            remote_hits: 7,
            remote_round_trips: 2,
            remote_bytes: 900,
            ..sample_stats()
        };
        assert_eq!(
            &extended.to_bytes()[..bytes.len()],
            &bytes[..],
            "the tail must extend, not reshape, the v1 encoding"
        );
        let decoded = BatchStats::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, quiet);
        assert_eq!(decoded.remote_hits, 0);
        assert_eq!(
            BatchStats::from_bytes(&extended.to_bytes()).unwrap(),
            extended
        );
    }

    /// Every truncation of every frame decodes to a typed error, never a
    /// panic — the decoder half of the corruption contract (the envelope
    /// checksum catches bit flips before payloads are ever parsed, see
    /// the wire tests; this covers payloads that lost their tail).
    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        for frame in every_frame() {
            let bytes = frame.to_bytes();
            for keep in 0..bytes.len() {
                // Some prefixes of SubmitBatch/JobResult are themselves
                // complete shorter frames (length-prefixed payload cut
                // at a boundary would leave trailing bytes — caught by
                // from_bytes). Either way: Ok or typed Err, no panic.
                let _ = Frame::from_bytes(&bytes[..keep]);
            }
            assert!(
                Frame::from_bytes(&[]).is_err(),
                "empty payload must not decode"
            );
        }
    }

    /// Single-bit flips in a framed stream either fail the envelope
    /// checksum or (if they hit the length prefix) fail as I/O or the
    /// length cap — a flipped frame never yields a clean decode of
    /// different content without the checksum noticing.
    #[test]
    fn bit_flipped_stream_frames_are_typed_errors() {
        let frame = Frame::BatchDone {
            batch_id: 9,
            stats: sample_stats(),
        };
        let mut buf = Vec::new();
        send(&mut buf, &frame).unwrap();
        for byte in 0..buf.len() {
            let mut garbled = buf.clone();
            garbled[byte] ^= 0x10;
            let mut r = io::Cursor::new(&garbled);
            match recv(&mut r) {
                Ok(decoded) => panic!("flip at byte {byte} decoded as {decoded:?}"),
                Err(RecvError::Closed) => panic!("flip at byte {byte} read as clean close"),
                Err(RecvError::Io(_) | RecvError::Envelope(_) | RecvError::Malformed(_)) => {}
            }
        }
    }

    #[test]
    fn unknown_tags_error_with_offsets() {
        assert_eq!(Frame::from_bytes(&[10]).unwrap_err().offset, 0);
        assert_eq!(
            Frame::from_bytes(&[10]).unwrap_err().reason,
            "unknown frame tag",
            "a v1 daemon refuses fetch-era tags typed, never panics"
        );
        assert_eq!(
            Frame::from_bytes(&[5, 99, 0]).unwrap_err().reason,
            "unknown error-code tag"
        );
        assert_eq!(
            BatchStats::from_bytes(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 7])
                .unwrap_err()
                .reason,
            "invalid store-line presence byte"
        );
    }

    #[test]
    fn garbled_job_count_is_rejected_without_allocating() {
        let mut bytes = vec![2u8];
        wire::put_varint(&mut bytes, 1); // batch_id
        wire::put_varint(&mut bytes, u64::MAX / 2); // insane job count
        assert_eq!(
            Frame::from_bytes(&bytes).unwrap_err().reason,
            "job count exceeds buffer"
        );
    }

    #[test]
    fn garbled_fetch_key_count_is_rejected_without_allocating() {
        for tag in [6u8, 7] {
            let mut bytes = vec![tag];
            wire::put_varint(&mut bytes, 3); // ttl
            wire::put_varint(&mut bytes, u64::MAX / 2); // insane key count
            assert_eq!(
                Frame::from_bytes(&bytes).unwrap_err().reason,
                "key count exceeds buffer"
            );
        }
    }
}
