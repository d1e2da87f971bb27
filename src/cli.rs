//! Command-line plumbing for the `confluence` binary: one flag table, one
//! argv parse into a typed [`Args`], and the batch path every engine
//! subcommand runs (build the engine, dispatch the jobs, render, report).
//!
//! The store directory comes from `--store-dir DIR` alone; `--no-store`
//! wins over it. The store is always opened at the current
//! [`SCHEMA_VERSION`], so entries written by older schemas are invisible
//! rather than wrong. With a store attached, runs also use its
//! **warm-artifact tier** — persisted path-memo tables that let executors
//! replay from record zero even in a cold process — unless
//! `--no-warm-artifacts` (or `CONFLUENCE_NO_WARM_ARTIFACTS`) turns it
//! off. Artifacts never change results, only wall-clock time.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

use confluence_sim::experiments::{unique_jobs, ExperimentConfig};
use confluence_sim::report::Report;
use confluence_sim::{EngineStats, ExecMode, Job, PeerSet, SimEngine, SCHEMA_VERSION};
use confluence_store::ResultStore;

/// The subcommands a flag belongs to, as a bit set.
pub type Surface = u8;
/// Every subcommand that runs jobs through the engine.
pub const ENGINE: Surface = 1;
/// The registry subcommands (`sweeps`, `search`).
pub const STUDIES: Surface = 1 << 1;
/// `search` alone.
pub const SEARCH: Surface = 1 << 2;
/// The daemon (`serve`).
pub const SERVE: Surface = 1 << 3;
/// The pure-arithmetic area table.
pub const AREA: Surface = 1 << 4;

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// `(metavariable, description)` for a value flag; `None` for a switch.
    value: Option<(&'static str, &'static str)>,
    /// Whether the flag may appear more than once.
    repeat: bool,
    scope: Surface,
}

const fn switch(name: &'static str, scope: Surface) -> Flag {
    Flag {
        name,
        value: None,
        repeat: false,
        scope,
    }
}

const fn valued(
    name: &'static str,
    meta: &'static str,
    what: &'static str,
    scope: Surface,
) -> Flag {
    Flag {
        name,
        value: Some((meta, what)),
        repeat: false,
        scope,
    }
}

impl Flag {
    const fn repeatable(self) -> Flag {
        Flag {
            repeat: true,
            ..self
        }
    }
}

/// Every flag of every subcommand, in usage order.
const FLAGS: &[Flag] = &[
    valued("--socket", "PATH", "a socket path", SERVE),
    switch("--list", STUDIES),
    valued("--study", "NAME", "a study name", STUDIES).repeatable(),
    valued("--seed", "N", "an integer value", SEARCH),
    switch("--quick", ENGINE | SERVE),
    switch("--csv", ENGINE | AREA),
    switch("--markdown", ENGINE | AREA),
    switch("--compare-serial", ENGINE),
    valued("--threads", "N", "an integer value", ENGINE | SERVE),
    valued("--store-dir", "DIR", "a path", ENGINE | SERVE),
    switch("--no-store", ENGINE | SERVE),
    valued("--store-cap-bytes", "N", "a byte count", ENGINE | SERVE),
    valued("--peer", "SOCK", "a socket path", ENGINE | SERVE).repeatable(),
    valued(
        "--peer-timeout-ms",
        "N",
        "a millisecond count",
        ENGINE | SERVE,
    ),
    switch("--no-warm-artifacts", ENGINE | SERVE),
    switch("--no-fastpath", ENGINE | SERVE),
    valued("--connect", "SOCK", "a socket path", ENGINE),
];

/// One parsed command line. Every field is already validated: a value
/// that reaches here parsed, and no flag outside the subcommand's
/// surface was given.
#[derive(Debug, Default)]
pub struct Args {
    /// `--quick`: reduced simulation sizes.
    pub quick: bool,
    /// `--csv`: CSV output instead of aligned tables (wins over
    /// `--markdown`).
    pub csv: bool,
    /// `--markdown`: GitHub-flavoured markdown tables.
    pub markdown: bool,
    /// `--compare-serial`: re-run on a fresh single-threaded engine and
    /// assert byte-identical output.
    pub compare_serial: bool,
    /// `--threads N`: explicit worker-pool width.
    pub threads: Option<usize>,
    /// `--store-dir DIR`, unless `--no-store` was also given.
    pub store_dir: Option<PathBuf>,
    /// `--no-store`: run with the in-memory cache only.
    pub no_store: bool,
    /// `--store-cap-bytes N`: post-batch store GC cap.
    pub store_cap: Option<u64>,
    /// Every `--peer SOCK`, in order.
    pub peers: Vec<PathBuf>,
    /// `--peer-timeout-ms N`, else the peer tier's default.
    pub peer_timeout: Duration,
    /// `--no-warm-artifacts`.
    pub no_warm_artifacts: bool,
    /// `--no-fastpath`.
    pub no_fastpath: bool,
    /// `--connect SOCK`: submit batches to a running daemon.
    pub connect: Option<PathBuf>,
    /// `--list`: print the study registry and exit.
    pub list: bool,
    /// Every `--study NAME`, in order.
    pub studies: Vec<String>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--socket PATH`: where the daemon listens.
    pub socket: Option<PathBuf>,
}

/// Parses `argv` (the words after the subcommand) against the flags in
/// `surface`, in one pass. Flags take their value as `--flag V` or
/// `--flag=V`; a space-form value never starts with `--`. On failure
/// returns every problem, in argument order: unrecognized flags, switches
/// given a value, stray positionals, missing or malformed values, a
/// repeated non-repeatable flag, and a missing required flag.
pub fn parse(surface: Surface, argv: &[String]) -> Result<Args, Vec<String>> {
    let mut args = Args {
        peer_timeout: confluence_sim::DEFAULT_PEER_TIMEOUT,
        ..Args::default()
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut errors = Vec::new();
    let mut words = argv.iter().peekable();
    while let Some(word) = words.next() {
        let (name, inline) = match word.split_once('=') {
            Some((name, v)) if word.starts_with("--") => (name, Some(v)),
            _ => (word.as_str(), None),
        };
        // Unknown words, stray positionals, and switches spelled with a
        // value all fail the same lookup.
        let Some(flag) = FLAGS.iter().find(|f| {
            f.name == name && f.scope & surface != 0 && (inline.is_none() || f.value.is_some())
        }) else {
            errors.push(format!("unrecognized argument '{word}'"));
            continue;
        };
        let value = match inline {
            Some(v) => Some(v.to_string()),
            None if flag.value.is_some() => words.next_if(|v| !v.starts_with("--")).cloned(),
            None => None,
        };
        if seen.contains(&flag.name) && !flag.repeat {
            errors.push(format!("{} given more than once", flag.name));
            continue;
        }
        seen.push(flag.name);
        if let Err(e) = args.set(flag, value.filter(|v| !v.is_empty())) {
            errors.push(e);
        }
    }
    if args.no_store {
        args.store_dir = None;
    }
    // Fetched entries are promoted into the local store before they serve
    // — that write-through is what makes a lying peer recoverable — so
    // peers need a store. Under --connect the daemon does the fetching.
    if !args.peers.is_empty() && args.store_dir.is_none() && args.connect.is_none() {
        errors.push(
            "--peer requires a persistent store to promote fetched entries into; \
             pass --store-dir DIR"
                .to_string(),
        );
    }
    if surface & SERVE != 0 && args.socket.is_none() {
        errors.push("--socket PATH is required".to_string());
    }
    if errors.is_empty() {
        Ok(args)
    } else {
        Err(errors)
    }
}

impl Args {
    /// Stores one flag occurrence. `value` is `None` for a switch, and for
    /// a value flag whose value is missing or empty.
    fn set(&mut self, flag: &Flag, value: Option<String>) -> Result<(), String> {
        let value = match (flag.value, value) {
            (None, _) => String::new(),
            (Some(_), Some(v)) => v,
            (Some((_, what)), None) => return Err(format!("{} requires {what}", flag.name)),
        };
        match flag.name {
            "--socket" => self.socket = Some(value.into()),
            "--list" => self.list = true,
            "--study" => self.studies.push(value),
            "--seed" => self.seed = Some(parse_number(flag, &value)?),
            "--quick" => self.quick = true,
            "--csv" => self.csv = true,
            "--markdown" => self.markdown = true,
            "--compare-serial" => self.compare_serial = true,
            "--threads" => self.threads = Some(parse_number(flag, &value)?),
            "--store-dir" => self.store_dir = Some(value.into()),
            "--no-store" => self.no_store = true,
            "--store-cap-bytes" => self.store_cap = Some(parse_number(flag, &value)?),
            "--peer" => self.peers.push(value.into()),
            "--peer-timeout-ms" => {
                self.peer_timeout = Duration::from_millis(parse_number(flag, &value)?)
            }
            "--no-warm-artifacts" => self.no_warm_artifacts = true,
            "--no-fastpath" => self.no_fastpath = true,
            "--connect" => self.connect = Some(value.into()),
            other => unreachable!("flag {other} has no field"),
        }
        Ok(())
    }

    /// The experiment configuration `--quick` selects.
    pub fn config(&self) -> ExperimentConfig {
        if self.quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::full()
        }
    }

    /// Renders a report in the selected output format.
    pub fn render(&self, r: &Report) -> String {
        if self.csv {
            r.to_csv()
        } else if self.markdown {
            r.to_markdown()
        } else {
            r.to_table()
        }
    }
}

fn parse_number<T: FromStr>(flag: &Flag, v: &str) -> Result<T, String> {
    let what = flag.value.map_or("a value", |(_, what)| what);
    v.parse()
        .map_err(|_| format!("{} requires {what}, got '{v}'", flag.name))
}

/// The usage line of subcommand `name`, generated from the flag table.
pub fn usage(name: &str, surface: Surface) -> String {
    let mut line = format!("confluence {name}");
    for flag in FLAGS.iter().filter(|f| f.scope & surface != 0) {
        line += &match flag.value {
            Some((meta, _)) => format!(" [{} {meta}]", flag.name),
            None => format!(" [{}]", flag.name),
        };
        if flag.repeat {
            line += "...";
        }
    }
    line
}

/// Builds the engine `args` ask for: workloads at the selected scale,
/// execution mode, pool width, and — unless `--connect` hands execution
/// to a daemon — the persistent store and the peer tier. Exits with
/// status 2 on a malformed `CONFLUENCE_MEMO_CAP` (checked before any
/// workload is generated) or a store that cannot be opened: silently
/// dropping persistence the caller asked for would waste every
/// simulation in the run.
pub fn build_engine(args: &Args) -> SimEngine {
    if let Err(e) = confluence_trace::MemoCaps::try_from_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    eprintln!("generating workloads...");
    let exec_mode = if args.no_fastpath {
        ExecMode::Reference
    } else {
        ExecMode::from_env()
    };
    let mut engine = args.config().engine().with_exec_mode(exec_mode);
    if let Some(n) = args.threads {
        engine = engine.with_threads(n);
    }
    // In connect mode persistence belongs to the daemon: jobs never
    // execute locally, so a local store would only record nothing and
    // confuse the accounting. The same goes for peers — read-through
    // happens on whichever engine executes, which is the daemon's.
    if args.connect.is_some() {
        if args.store_dir.is_some() {
            eprintln!(
                "note: --connect routes jobs to the daemon's store; ignoring the local store"
            );
        }
        if !args.peers.is_empty() {
            eprintln!(
                "note: --connect routes jobs to the daemon; pass --peer to the daemon instead"
            );
        }
        return engine;
    }
    if args.no_warm_artifacts {
        engine = engine.with_warm_artifacts(false);
    }
    if let Some(dir) = &args.store_dir {
        match ResultStore::open(dir, SCHEMA_VERSION) {
            Ok(store) => engine = engine.with_store(store),
            Err(e) => {
                eprintln!("error: cannot open result store at {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    if !args.peers.is_empty() {
        engine = engine.with_peers(PeerSet::new(args.peers.clone(), args.peer_timeout));
    }
    engine
}

/// Accounting from one [`dispatch_batch`] pass, consumed by
/// [`finish_batch`] (purity baseline) and [`compare_serial`] (timed
/// reference).
pub struct BatchRun {
    /// Engine accounting right after the batch returned.
    pub stats: EngineStats,
    /// Wall-clock time of the batch.
    pub elapsed: Duration,
    /// The daemon's per-batch accounting, when the batch ran over
    /// `--connect` instead of in process. [`finish_batch`] renders the
    /// cache summary from this instead of the (execution-free) local
    /// engine counters.
    pub daemon: Option<confluence_serve::BatchStats>,
}

/// Runs one batch: in process on the engine's pool, asserting the
/// engine's headline contract — every unique simulation ran exactly once
/// or came from the persistent store — or, under `--connect`, on the
/// daemon, seeding every result into the local engine's cache so the
/// formatters are pure local reads and stdout is byte-identical to an
/// in-process run. Exits with status 1 on any daemon failure — there is
/// no silent local fallback, because a half-remote run would produce
/// correct output while quietly not testing what was asked.
pub fn dispatch_batch(engine: &SimEngine, jobs: &[Job], args: &Args) -> BatchRun {
    let unique = unique_jobs(jobs);
    let start = Instant::now();
    let Some(sock) = &args.connect else {
        eprintln!(
            "running {unique} unique simulations ({} requested) on {} thread(s)...",
            jobs.len(),
            engine.threads()
        );
        engine.run(jobs);
        let elapsed = start.elapsed();
        let stats = engine.stats();
        assert_eq!(
            stats.executed + stats.disk_hits,
            unique as u64,
            "each unique simulation must be executed once or served from the store"
        );
        eprintln!(
            "engine: executed {} simulations in {elapsed:.2?} ({} requests, {} memory hits, \
             {} disk hits)",
            stats.executed, stats.requests, stats.hits, stats.disk_hits
        );
        return BatchRun {
            stats,
            elapsed,
            daemon: None,
        };
    };
    eprintln!(
        "submitting {unique} unique simulations ({} requested) to the daemon at {}...",
        jobs.len(),
        sock.display()
    );
    let stats = confluence_sim::daemon::submit_jobs(sock, engine, jobs).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let elapsed = start.elapsed();
    eprintln!(
        "daemon: executed {} simulations in {elapsed:.2?} ({} requests, {} memory hits, \
         {} disk hits)",
        stats.executed, stats.requests, stats.hits, stats.disk_hits
    );
    BatchRun {
        stats: engine.stats(),
        elapsed,
        daemon: Some(stats),
    }
}

/// The rendering half: print every report in the selected format, assert
/// that formatting was pure cache reads (no re-simulation), finish the
/// store, and print the cache summary. Returns the rendered reports so
/// `--compare-serial` can diff them against a reference run.
pub fn finish_batch(
    engine: &SimEngine,
    args: &Args,
    run: &BatchRun,
    reports: &[Report],
) -> Vec<String> {
    let rendered: Vec<String> = reports.iter().map(|r| args.render(r)).collect();
    for out in &rendered {
        println!("{out}");
    }
    let final_stats = engine.stats();
    assert_eq!(
        (final_stats.executed, final_stats.disk_hits),
        (run.stats.executed, run.stats.disk_hits),
        "formatting must be pure cache hits"
    );
    finish_store(engine, args.store_cap);
    match &run.daemon {
        Some(stats) => eprintln!("{}", daemon_cache_summary(stats)),
        None => eprintln!("{}", cache_summary(engine)),
    }
    rendered
}

/// The store tail of every run: write newly recorded path-memo tables
/// back to the warm-artifact tier, then apply the `--store-cap-bytes`
/// GC (the order matters — fresh artifacts must be on disk before the
/// cap decides what to shed). Runs after the batch, never between jobs,
/// so a capped store still serves every intra-run hit. A no-op without
/// a store.
fn finish_store(engine: &SimEngine, cap: Option<u64>) {
    let written = engine.persist_warm_artifacts();
    if written > 0 {
        eprintln!("warm artifacts: wrote {written} memo table(s) to the store");
    }
    let (Some(store), Some(cap)) = (engine.store(), cap) else {
        return;
    };
    let gc = store.evict_to_cap(cap);
    if gc.evicted_entries > 0 {
        eprintln!(
            "store gc: evicted {} entries ({} bytes) to fit the {} byte cap",
            gc.evicted_entries, gc.evicted_bytes, cap
        );
    }
}

/// The `--compare-serial` tail: re-run the same jobs on a fresh
/// single-threaded engine (sharing the `Arc`'d programs, never the
/// cache), assert its rendering is **byte-identical** to the parallel
/// run's, and report the speedup — the validation hook for both
/// job-grain parallelism and the core-grain two-phase tick.
///
/// Skipped with an explanation when a store is attached: warm, the timed
/// run measured disk reads; cold, it paid store writes the reference
/// would not — either way the wall-clocks would not compare simulation
/// against simulation.
pub fn compare_serial(
    engine: &SimEngine,
    args: &Args,
    jobs: &[Job],
    run: &BatchRun,
    parallel_rendering: &[String],
    render: impl Fn(&SimEngine) -> Vec<Report>,
) {
    if engine.store().is_some() {
        eprintln!(
            "skipping serial comparison: a result store was attached to the timed \
             run ({} jobs served from disk), so wall-clocks are not comparable \
             (re-run with --no-store to compare)",
            run.stats.disk_hits
        );
        return;
    }
    eprintln!("re-running the batch serially for comparison...");
    let reference = SimEngine::new(engine.workloads().to_vec())
        .with_threads(1)
        .with_exec_mode(engine.exec_mode());
    let start = Instant::now();
    reference.run(jobs);
    let serial_elapsed = start.elapsed();
    assert_eq!(
        reference.stats().executed,
        unique_jobs(jobs) as u64,
        "the serial reference must actually simulate every unique job"
    );
    let serial_rendering: Vec<String> = render(&reference).iter().map(|r| args.render(r)).collect();
    assert_eq!(
        serial_rendering, parallel_rendering,
        "serial and parallel runs must render identical reports"
    );
    eprintln!(
        "serial reference output is byte-identical to the parallel run ({} reports)",
        serial_rendering.len()
    );
    eprintln!(
        "serial: {:.2?}; parallel: {:.2?}; speedup {:.2}x on {} threads",
        serial_elapsed,
        run.elapsed,
        serial_elapsed.as_secs_f64() / run.elapsed.as_secs_f64(),
        engine.threads()
    );
}

/// One-line cache accounting for a finished run, printed to stderr so
/// report output on stdout stays byte-comparable. The trailing memo
/// section is the warm-path audit trail: a fully artifact-warm run shows
/// replay hits with `0 recorded` (CI asserts exactly that).
pub fn cache_summary(engine: &SimEngine) -> String {
    let stats = engine.stats();
    let store = match engine.store() {
        Some(s) => {
            let usage = s.usage();
            store_segment(
                &s.root().display().to_string(),
                s.schema(),
                usage.entries as u64,
                usage.bytes,
                usage.artifacts as u64,
                usage.artifact_bytes,
            )
        }
        None => "store disabled".to_string(),
    };
    let memo = engine.memo_stats();
    summary_line(
        "cache",
        &stats,
        &store,
        memo.replayed,
        memo.recorded,
        memo.live,
        memo.tables as u64,
        memo.steps as u64,
    )
}

/// The same one-line accounting, rendered from a daemon's `BatchDone`
/// stats instead of a local engine — so a `--connect` run's stderr
/// carries the identical audit trail (CI greps the `0 recorded` memo
/// tail on warm daemon runs exactly as it does in process). The
/// `daemon cache:` prefix marks whose counters these are.
fn daemon_cache_summary(stats: &confluence_serve::BatchStats) -> String {
    let store = match &stats.store {
        Some(l) => store_segment(
            &l.root,
            l.schema,
            l.entries,
            l.bytes,
            l.artifacts,
            l.artifact_bytes,
        ),
        None => "store disabled".to_string(),
    };
    let engine_stats = EngineStats {
        requests: stats.requests,
        executed: stats.executed,
        hits: stats.hits,
        disk_hits: stats.disk_hits,
        remote_hits: stats.remote_hits,
        remote_round_trips: stats.remote_round_trips,
        remote_bytes: stats.remote_bytes,
    };
    summary_line(
        "daemon cache",
        &engine_stats,
        &store,
        stats.memo_replayed,
        stats.memo_recorded,
        stats.memo_live,
        stats.memo_tables,
        stats.memo_steps,
    )
}

/// The store segment of a cache summary, shared by the local and daemon
/// renderings so the two cannot drift apart.
fn store_segment(
    root: &str,
    schema: u32,
    entries: u64,
    bytes: u64,
    artifacts: u64,
    artifact_bytes: u64,
) -> String {
    format!(
        "store {root} (schema v{schema}, {entries} entries, {bytes} bytes, \
         {artifacts} artifacts, {artifact_bytes} artifact bytes)"
    )
}

#[allow(clippy::too_many_arguments)]
fn summary_line(
    label: &str,
    stats: &EngineStats,
    store: &str,
    replayed: u64,
    recorded: u64,
    live: u64,
    tables: u64,
    steps: u64,
) -> String {
    // The remote tail is always rendered — `0 fetched` on peerless runs —
    // so scripts can grep one stable shape everywhere (local, daemon,
    // and search summaries alike).
    format!(
        "{label}: {} requests = {} executed + {} memory hits + {} disk hits; {store}; \
         memo: {replayed} replay hits, {recorded} recorded, {live} live, \
         {tables} tables ({steps} steps); \
         remote: {} fetched, {} bytes, {} round trip(s)",
        stats.requests,
        stats.executed,
        stats.hits,
        stats.disk_hits,
        stats.remote_hits,
        stats.remote_bytes,
        stats.remote_round_trips,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_sim::{BtbSpec, CoverageJob, CoverageOptions};
    use confluence_trace::{Program, Workload, WorkloadSpec};

    fn parse_line(surface: Surface, list: &[&str]) -> Result<Args, Vec<String>> {
        let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse(surface, &argv)
    }

    fn ok(list: &[&str]) -> Args {
        parse_line(ENGINE, list).expect("well-formed line")
    }

    fn errors(list: &[&str]) -> Vec<String> {
        parse_line(ENGINE, list).expect_err("malformed line")
    }

    fn tiny_engine() -> SimEngine {
        let program = std::sync::Arc::new(Program::generate(&WorkloadSpec::tiny()).unwrap());
        SimEngine::new(vec![(Workload::WebFrontend, program)])
    }

    fn tiny_coverage_job() -> Job {
        Job::Coverage(CoverageJob {
            workload: Workload::WebFrontend,
            btb: BtbSpec::Perfect,
            opts: CoverageOptions {
                warmup_instrs: 5_000,
                measure_instrs: 5_000,
                ..Default::default()
            },
        })
    }

    #[test]
    fn cache_summary_reports_store_entry_count_and_bytes() {
        let dir =
            std::env::temp_dir().join(format!("confluence-cli-summary-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir, SCHEMA_VERSION).expect("temp dir writable");
        let engine = tiny_engine().with_store(store);
        assert!(cache_summary(&engine).contains("0 entries, 0 bytes"));

        engine.run(&[tiny_coverage_job()]);
        let bytes = engine.store().unwrap().size_bytes();
        assert!(bytes > 0, "execution must spill to the store");
        let summary = cache_summary(&engine);
        assert!(
            summary.contains(&format!("1 entries, {bytes} bytes")),
            "summary must carry the store usage: {summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_summary_carries_the_memo_audit_trail() {
        let engine = tiny_engine();
        let summary = cache_summary(&engine);
        assert!(
            summary.contains("memo: 0 replay hits, 0 recorded, 0 live, 0 tables (0 steps)"),
            "untranslated engine reports an empty memo section: {summary}"
        );
        engine.run(&[tiny_coverage_job()]);
        let memo = engine.memo_stats();
        assert!(memo.recorded > 0, "a cold run records paths");
        assert!(
            cache_summary(&engine).contains(&format!("{} recorded", memo.recorded)),
            "summary must carry the memo counters"
        );
    }

    #[test]
    fn flags_parse_into_typed_fields() {
        let args = ok(&["--quick", "--csv", "--threads", "3"]);
        assert!(args.quick && args.csv && !args.markdown);
        assert_eq!(args.threads, Some(3));
        assert!(args.config().quick);
        // Every value flag accepts the `=` spelling.
        assert_eq!(ok(&["--threads=5"]).threads, Some(5));
        assert_eq!(ok(&["--store-cap-bytes", "4096"]).store_cap, Some(4096));
        assert_eq!(ok(&["--store-cap-bytes=123456"]).store_cap, Some(123456));
        assert_eq!(
            ok(&["--peer-timeout-ms", "50"]).peer_timeout,
            Duration::from_millis(50)
        );
        assert!(ok(&["--no-warm-artifacts"]).no_warm_artifacts);
        assert!(ok(&["--no-fastpath", "--compare-serial"]).compare_serial);

        let defaults = ok(&[]);
        assert!(!defaults.quick && !defaults.csv && !defaults.markdown);
        assert!(!defaults.config().quick);
        assert_eq!(defaults.threads, None);
        assert_eq!(defaults.store_dir, None);
        assert_eq!(defaults.store_cap, None);
        assert!(!defaults.no_warm_artifacts);
        assert_eq!(defaults.peer_timeout, confluence_sim::DEFAULT_PEER_TIMEOUT);
    }

    #[test]
    fn store_dir_resolves_from_flags_alone() {
        let dir = |list: &[&str]| ok(list).store_dir;
        assert_eq!(
            dir(&["--store-dir", "/tmp/x"]),
            Some(PathBuf::from("/tmp/x"))
        );
        assert_eq!(dir(&["--store-dir=/tmp/y"]), Some(PathBuf::from("/tmp/y")));
        // --no-store wins wherever it appears.
        assert_eq!(dir(&["--store-dir", "/tmp/x", "--no-store"]), None);
        assert_eq!(dir(&["--no-store", "--store-dir=/tmp/x"]), None);
    }

    #[test]
    fn unknown_words_are_all_reported_in_order() {
        // A typo'd switch is flagged; so is a bare positional word.
        assert_eq!(errors(&["--qiuck"]), ["unrecognized argument '--qiuck'"]);
        assert_eq!(
            errors(&["--quick", "extra"]),
            ["unrecognized argument 'extra'"]
        );
        // A known switch spelled with a value is an error, not a value flag.
        assert_eq!(
            errors(&["--quick=1"]),
            ["unrecognized argument '--quick=1'"]
        );
        assert_eq!(
            errors(&["--stduy", "history", "--quick", "--csvv"]),
            [
                "unrecognized argument '--stduy'",
                "unrecognized argument 'history'",
                "unrecognized argument '--csvv'"
            ]
        );
    }

    #[test]
    fn missing_and_malformed_values_name_the_flag() {
        for line in [
            &["--threads"] as &[&str],
            &["--threads", "--quick"],
            &["--threads="],
        ] {
            assert_eq!(errors(line), ["--threads requires an integer value"]);
        }
        assert_eq!(
            errors(&["--threads", "many"]),
            ["--threads requires an integer value, got 'many'"]
        );
        assert_eq!(
            errors(&["--store-cap-bytes=lots"]),
            ["--store-cap-bytes requires a byte count, got 'lots'"]
        );
        // Checked even when no --peer makes the timeout matter.
        assert_eq!(
            errors(&["--peer-timeout-ms", "soon"]),
            ["--peer-timeout-ms requires a millisecond count, got 'soon'"]
        );
        assert_eq!(errors(&["--peer"]), ["--peer requires a socket path"]);
    }

    #[test]
    fn only_peer_and_study_may_repeat() {
        for line in [
            &["--threads", "2", "--threads", "4"] as &[&str],
            &["--threads", "2", "--threads=4"],
            &["--threads=2", "--threads", "4"],
        ] {
            assert_eq!(errors(line), ["--threads given more than once"]);
        }
        let args = ok(&["--store-dir", "s", "--peer", "a", "--peer=b"]);
        assert_eq!(args.peers, [PathBuf::from("a"), PathBuf::from("b")]);
        let args = parse_line(ENGINE | STUDIES, &["--study", "x", "--study=y"]).unwrap();
        assert_eq!(args.studies, ["x", "y"]);
    }

    #[test]
    fn peers_need_a_store_unless_a_daemon_runs_the_jobs() {
        let gate = "--peer requires a persistent store";
        assert!(errors(&["--peer", "a"])[0].starts_with(gate));
        assert!(errors(&["--peer", "a", "--store-dir", "s", "--no-store"])[0].starts_with(gate));
        assert!(parse_line(ENGINE, &["--peer", "a", "--connect", "d"]).is_ok());
        let serve = parse_line(SERVE, &["--socket", "s", "--peer", "a"]).unwrap_err();
        assert!(serve[0].starts_with(gate));
    }

    #[test]
    fn each_surface_accepts_exactly_its_flags() {
        assert!(parse_line(ENGINE, &["--list"]).is_err());
        assert!(parse_line(ENGINE | STUDIES, &["--seed", "7"]).is_err());
        let args = parse_line(ENGINE | STUDIES | SEARCH, &["--list", "--seed=7"]).unwrap();
        assert!(args.list);
        assert_eq!(args.seed, Some(7));
        assert!(parse_line(AREA, &["--csv", "--markdown"]).is_ok());
        assert!(parse_line(AREA, &["--quick"]).is_err());
        let serve_err = |list: &[&str]| parse_line(SERVE, &[&["--socket", "s"], list].concat());
        assert!(serve_err(&["--connect", "d"]).is_err());
        assert!(serve_err(&["--csv"]).is_err());
        let args = parse_line(SERVE, &["--socket", "s", "--quick", "--threads", "2"]).unwrap();
        assert_eq!(args.socket, Some(PathBuf::from("s")));
        assert_eq!(
            parse_line(SERVE, &["--quick"]).unwrap_err(),
            ["--socket PATH is required"]
        );
    }

    #[test]
    fn usage_lists_the_surface() {
        assert_eq!(
            usage("area-table", AREA),
            "confluence area-table [--csv] [--markdown]"
        );
        let line = usage("search", ENGINE | STUDIES | SEARCH);
        assert!(line.contains("[--study NAME]... [--seed N]"), "{line}");
        assert!(
            line.contains("[--peer SOCK]... [--peer-timeout-ms N]"),
            "{line}"
        );
        assert!(!line.contains("--socket"), "{line}");
    }
}
