//! The cold workloads, `suite-cold` and `coverage-full`: one op is a whole
//! batch on a fresh engine over fresh (uncompiled, memo-empty) programs,
//! rendered to CSV.
//!
//! The untraced op goes through `SimEngine::run`, as the experiment
//! binaries do. The traced op replays the same batch with the engine's
//! scheduling policy (most expensive first, idle workers lent to timing
//! runs as shards) from the benchmark's own worker loop, so spans can sit
//! around each call into a layer; it seeds every result into an engine
//! and renders through the same formatters, so its CSV must match.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use confluence_sim::codec::StoreKey;
use confluence_sim::experiments::{self, ExperimentConfig};
use confluence_sim::report::Report;
use confluence_sim::{
    branch_density_mode, run_coverage_mode, simulate_cmp_with_shards_mode, BtbSpec, EngineStats,
    ExecMode, Job, JobOutput, SimEngine, TimingResult, SCHEMA_VERSION,
};
use confluence_store::{ResultStore, StoreUsage};
use confluence_trace::{MemoStats, Program, Workload};

use crate::metrics::{design_name, LayerSheet};
use crate::probe::{usage, BtbCounts, CountingBtb};
use crate::spans::Tracer;

/// Programs as generated, never compiled or executed: each op clones
/// them, so every op starts with no translation and no path memo.
pub type Programs = Vec<(Workload, Arc<Program>)>;

/// Uncompiled copies of `pristine` for one op.
pub fn fresh(pristine: &Programs) -> Programs {
    pristine
        .iter()
        .map(|(w, p)| {
            assert!(
                p.compiled_if_translated().is_none(),
                "pristine programs must stay untranslated"
            );
            (*w, Arc::new(Program::clone(p)))
        })
        .collect()
}

/// Which cold batch an op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdKind {
    /// The whole quick suite into an empty store (`suite-cold`).
    Suite,
    /// Every coverage and density job at paper scale (`coverage-full`).
    Coverage,
}

impl ColdKind {
    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            ColdKind::Suite => "suite-cold",
            ColdKind::Coverage => "coverage-full",
        }
    }

    /// The experiment configuration of this batch.
    pub fn config(self) -> ExperimentConfig {
        match self {
            ColdKind::Suite => ExperimentConfig::quick(),
            ColdKind::Coverage => ExperimentConfig::full(),
        }
    }

    /// Whether the op writes a result store.
    pub fn uses_store(self) -> bool {
        self == ColdKind::Suite
    }

    /// The batch's jobs, duplicates included, as the binaries declare it.
    pub fn jobs(self, engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
        match self {
            ColdKind::Suite => experiments::all_jobs(engine, cfg),
            ColdKind::Coverage => [
                experiments::fig1_jobs,
                experiments::table2_jobs,
                experiments::fig8_jobs,
                experiments::fig9_jobs,
                experiments::fig10_jobs,
                experiments::l1i_coverage_jobs,
            ]
            .iter()
            .flat_map(|f| f(engine, cfg))
            .collect(),
        }
    }

    /// The batch's reports, in presentation order.
    pub fn reports(self, engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Report> {
        match self {
            ColdKind::Suite => experiments::suite_reports(engine, cfg),
            ColdKind::Coverage => [
                experiments::fig1,
                experiments::table2,
                experiments::fig8,
                experiments::fig9,
                experiments::fig10,
                experiments::l1i_coverage,
            ]
            .iter()
            .map(|f| f(engine, cfg))
            .collect(),
        }
    }
}

/// Reports rendered exactly as `all_experiments --csv` prints them.
pub fn render(reports: &[Report]) -> String {
    reports.iter().map(|r| r.to_csv() + "\n").collect()
}

/// `jobs` without duplicates, first occurrence kept.
pub fn unique(jobs: &[Job]) -> Vec<Job> {
    let mut seen = HashSet::new();
    jobs.iter().filter(|j| seen.insert(*j)).cloned().collect()
}

/// Simulated instructions behind a job's result, from its key: the
/// coverage or density window, or cores x windows for a timing run.
pub fn job_instrs(job: &Job) -> u64 {
    match job {
        Job::Coverage(c) => c.opts.warmup_instrs + c.opts.measure_instrs,
        Job::Density(d) => d.instrs,
        Job::Timing(t) => t.cfg.cores as u64 * (t.cfg.warmup_instrs + t.cfg.measure_instrs),
    }
}

/// The engine an op runs on: `workers` threads, a store at `store_dir`
/// when given.
pub fn engine(programs: Programs, workers: usize, store_dir: Option<&Path>) -> SimEngine {
    let engine = SimEngine::new(programs).with_threads(workers);
    match store_dir {
        Some(dir) => engine.with_store(
            ResultStore::open(dir, SCHEMA_VERSION).expect("benchmark store dir is writable"),
        ),
        None => engine,
    }
}

/// What one untraced cold op measured.
pub struct ColdOp {
    /// The rendered reports.
    pub csv: String,
    /// Wall time of the op.
    pub wall_s: f64,
    /// Process CPU time spent during the op.
    pub cpu_s: f64,
    /// `SimEngine::run` alone.
    pub run_s: f64,
    /// Warm-artifact persistence alone.
    pub persist_s: f64,
    /// Report rendering alone.
    pub render_s: f64,
    /// Engine accounting after the op.
    pub stats: EngineStats,
    /// Path-memo accounting after the op.
    pub memo: MemoStats,
    /// Store occupancy after the op.
    pub store: Option<StoreUsage>,
    /// The batch's unique jobs.
    pub jobs: Vec<Job>,
}

/// Runs one untraced cold op at `seed`. `store_dir` must name an empty
/// directory for the suite and is ignored for the coverage batch.
pub fn cold_op(
    kind: ColdKind,
    pristine: &Programs,
    workers: usize,
    store_dir: &Path,
    seed: u64,
) -> ColdOp {
    let cfg = kind.config();
    let programs = fresh(pristine);
    let before = usage();
    let start = Instant::now();
    let engine = engine(programs, workers, kind.uses_store().then_some(store_dir));
    let declared = kind.jobs(&engine, &cfg);
    let jobs = crate::seed::jobs(&declared, seed);
    engine.run(&jobs);
    let ran = Instant::now();
    if kind.uses_store() {
        engine.persist_warm_artifacts();
    }
    let persisted = Instant::now();
    crate::seed::alias(&engine, &unique(&declared), seed);
    let csv = render(&kind.reports(&engine, &cfg));
    let end = Instant::now();
    let cpu_s = usage().cpu_s - before.cpu_s;
    ColdOp {
        csv,
        wall_s: (end - start).as_secs_f64(),
        cpu_s,
        run_s: (ran - start).as_secs_f64(),
        persist_s: (persisted - ran).as_secs_f64(),
        render_s: (end - persisted).as_secs_f64(),
        stats: engine.stats(),
        memo: engine.memo_stats(),
        store: engine.store().map(ResultStore::usage),
        jobs: unique(&jobs),
    }
}

/// Coverage-harness class of a job (`None` for timing jobs).
pub fn coverage_class(job: &Job) -> Option<&'static str> {
    match job {
        Job::Density(_) => Some("density"),
        Job::Timing(_) => None,
        Job::Coverage(c) => Some(match (c.btb, c.opts.use_shift) {
            (BtbSpec::Baseline1k, false) => "baseline",
            (BtbSpec::Baseline1k, true) => "shift",
            (BtbSpec::AirBtb { .. }, false) => "airbtb",
            (BtbSpec::AirBtb { .. }, true) => "airbtb_shift",
            (BtbSpec::Phantom { .. }, _) => "phantom",
            _ => "conventional",
        }),
    }
}

/// BTB class the counting wrapper files a coverage job's BTB under.
pub fn btb_class(spec: BtbSpec) -> &'static str {
    match spec {
        BtbSpec::AirBtb { .. } => "airbtb",
        BtbSpec::Phantom { .. } => "phantom",
        _ => "conventional",
    }
}

/// One job of the traced op.
struct JobRecord {
    job: Job,
    /// The simulation call alone (coverage / cmp / density run).
    run_s: f64,
    btb: Option<BtbCounts>,
    output: JobOutput,
}

/// What the traced op measured.
pub struct TracedOp {
    /// The rendered reports.
    pub csv: String,
    /// Wall time of the whole traced op.
    pub wall_s: f64,
    /// Per-layer figures filled in from the spans and the job outputs.
    pub sheet: LayerSheet,
    /// Sum of every job's simulation call: the batch's serial time.
    pub busy_s: f64,
    /// Executions the formatters triggered after seeding (must be 0).
    pub executed_after_seed: u64,
    /// The engine the op seeded, kept alive for the probes that follow.
    pub engine: SimEngine,
}

/// Runs one traced cold op at `seed` under span root `op`.
#[allow(clippy::too_many_arguments)]
pub fn traced_op(
    kind: ColdKind,
    pristine: &Programs,
    seed: u64,
    workers: usize,
    store_dir: &Path,
    tracer: &Tracer,
    op: u64,
    timer_cost: Duration,
) -> TracedOp {
    let cfg = kind.config();
    let programs = fresh(pristine);
    let start = Instant::now();
    let root = tracer.span(format!("op.{}", kind.name()), None, op);
    let engine = engine(programs, workers, kind.uses_store().then_some(store_dir));
    let mode = engine.exec_mode();
    let declared = unique(&kind.jobs(&engine, &cfg));
    let mut jobs = crate::seed::jobs(&declared, seed);
    // The engine's order: most expensive first, declaration order within
    // equal cost (a stable sort).
    jobs.sort_by_key(|j| std::cmp::Reverse(j.cost_hint()));

    let records: Mutex<Vec<JobRecord>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let batch = tracer.span("engine.batch", Some(root.id()), op);
    let batch_id = batch.id();
    let next = AtomicUsize::new(0);
    // The engine's lending policy: a timing job claims every pool slot
    // not serving a job and not already lent, at the moment it starts.
    let in_flight = AtomicUsize::new(0);
    let lent = AtomicUsize::new(0);
    let lane_ends: Vec<Instant> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let lane = tracer.span("engine.worker", Some(batch_id), op);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        in_flight.fetch_add(1, Ordering::Relaxed);
                        let extra = match job {
                            Job::Timing(_) => {
                                let busy = in_flight.load(Ordering::Relaxed).max(1);
                                let mut extra = 0;
                                let _ =
                                    lent.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                                        extra = workers.saturating_sub(busy + l);
                                        (extra > 0).then_some(l + extra)
                                    });
                                extra
                            }
                            _ => 0,
                        };
                        let rec = run_job(
                            job,
                            &engine,
                            mode,
                            1 + extra,
                            tracer,
                            lane.id(),
                            op,
                            timer_cost,
                        );
                        lent.fetch_sub(extra, Ordering::Relaxed);
                        in_flight.fetch_sub(1, Ordering::Relaxed);
                        records.lock().expect("records lock poisoned").push(rec);
                    }
                    drop(lane);
                    Instant::now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let batch_end = Instant::now();
    for end in lane_ends {
        tracer.record("engine.idle", Some(batch_id), op, end, batch_end);
    }
    drop(batch);
    if kind.uses_store() {
        tracer.time("store.persist_artifacts", Some(root.id()), op, || {
            engine.persist_warm_artifacts()
        });
    }
    let before = engine.stats().executed;
    let csv = tracer.time("report.render", Some(root.id()), op, || {
        crate::seed::alias(&engine, &declared, seed);
        render(&kind.reports(&engine, &cfg))
    });
    let executed_after_seed = engine.stats().executed - before;
    drop(root);
    let wall_s = start.elapsed().as_secs_f64();

    let mut sheet = LayerSheet::new();
    let records = records.into_inner().expect("records lock poisoned");
    let busy_s = fill_job_layers(&mut sheet, &records);
    TracedOp {
        csv,
        wall_s,
        sheet,
        busy_s,
        executed_after_seed,
        engine,
    }
}

/// Executes one job the way the engine's `execute` does, with a span
/// around each layer call, then stores and seeds its result.
#[allow(clippy::too_many_arguments)]
fn run_job(
    job: &Job,
    engine: &SimEngine,
    mode: ExecMode,
    shards: usize,
    tracer: &Tracer,
    parent: u64,
    op: u64,
    timer_cost: Duration,
) -> JobRecord {
    let span = tracer.span(
        format!(
            "job.{}",
            match job {
                Job::Coverage(_) => "coverage",
                Job::Timing(_) => "timing",
                Job::Density(_) => "density",
            }
        ),
        Some(parent),
        op,
    );
    let program = engine.program(job.workload());
    let run_start;
    let (output, btb) = match job {
        Job::Coverage(c) => {
            let mut btb = tracer.time("btb.build", Some(span.id()), op, || {
                CountingBtb::new(c.btb.build(program), timer_cost)
            });
            run_start = Instant::now();
            let r = tracer.time("coverage.run", Some(span.id()), op, || {
                run_coverage_mode(program, &mut btb, &c.opts, mode)
            });
            (JobOutput::Coverage(r), Some(btb.counts()))
        }
        Job::Timing(t) => {
            run_start = Instant::now();
            let r = tracer.time("cmp.run", Some(span.id()), op, || {
                simulate_cmp_with_shards_mode(program, t.design, &t.cfg, shards, mode)
            });
            (JobOutput::Timing(Arc::new(r)), None)
        }
        Job::Density(d) => {
            run_start = Instant::now();
            let (s, dy) = tracer.time("density.run", Some(span.id()), op, || {
                branch_density_mode(program, d.instrs, d.seed, mode)
            });
            (JobOutput::Density(s, dy), None)
        }
    };
    let run_s = run_start.elapsed().as_secs_f64();
    if let Some(store) = engine.store() {
        let key = StoreKey {
            spec: program.spec(),
            job,
        };
        tracer.time("store.save", Some(span.id()), op, || {
            store
                .save(&key, &output)
                .expect("benchmark store accepts writes")
        });
    }
    engine.seed(job.clone(), output.clone());
    JobRecord {
        job: job.clone(),
        run_s,
        btb,
        output,
    }
}

/// Per-class job times, BTB counts and simulated-event sums. Returns the
/// summed job time.
fn fill_job_layers(sheet: &mut LayerSheet, records: &[JobRecord]) -> f64 {
    let mut busy = 0.0;
    let mut longest: f64 = 0.0;
    let mut cycles = 0u64;
    let mut cmp_s = 0.0;
    for r in records {
        busy += r.run_s;
        longest = longest.max(r.run_s);
        if let Some(class) = coverage_class(&r.job) {
            sheet.add(&format!("coverage.job_s.{class}"), r.run_s);
        }
        if let (Job::Coverage(c), Some(b)) = (&r.job, &r.btb) {
            let class = btb_class(c.btb);
            sheet.add(&format!("btb.{class}.lookups"), b.lookups as f64);
            sheet.add(&format!("btb.{class}.updates"), b.updates as f64);
            sheet.add(&format!("btb.{class}.fills"), b.fills as f64);
            sheet.add(&format!("btb.{class}.evicts"), b.evicts as f64);
            sheet.add(&format!("btb.{class}.self_s"), b.self_s);
        }
        match (&r.job, &r.output) {
            (Job::Coverage(_), JobOutput::Coverage(c)) => {
                sheet.add("coverage.l1i_accesses", c.l1i_accesses as f64);
                sheet.add("coverage.l1i_misses", c.l1i_misses as f64);
                sheet.add("coverage.prefetch_fills", c.prefetch_fills as f64);
                sheet.add("coverage.btb_misses", c.btb_misses as f64);
            }
            (Job::Timing(t), JobOutput::Timing(res)) => {
                sheet.add(&format!("timing.job_s.{}", design_name(t.design)), r.run_s);
                sheet.add(&format!("timing.job_s.cores{}", t.cfg.cores), r.run_s);
                add_core_stats(sheet, res);
                cycles += res.total_cycles;
                cmp_s += r.run_s;
            }
            _ => {}
        }
    }
    sheet.set("timing.total_cycles", cycles as f64);
    if cmp_s > 0.0 {
        sheet.set("timing.kcycles_per_s", cycles as f64 / cmp_s / 1e3);
    }
    sheet.set("engine.critical_path_s", longest);
    busy
}

fn add_core_stats(sheet: &mut LayerSheet, res: &TimingResult) {
    for s in &res.per_core {
        sheet.add("timing.btb_misses", s.btb_misses as f64);
        sheet.add("timing.l1i_misses", s.l1i_misses as f64);
        sheet.add("timing.misfetches", s.misfetches as f64);
        sheet.add("timing.mispredicts", s.mispredicts as f64);
        sheet.add("timing.l2_bubble_cycles", s.l2_bubble_cycles as f64);
    }
}

/// Streams every coverage job's window alone (no BTB, L1-I or SHIFT),
/// serially in batch order over fresh programs. Returns seconds and
/// records streamed.
pub fn stream_probe(
    jobs: &[Job],
    pristine: &Programs,
    mode: ExecMode,
    tracer: &Tracer,
    op: u64,
) -> (f64, u64) {
    let programs = fresh(pristine);
    let program = |w: Workload| {
        &programs
            .iter()
            .find(|(pw, _)| *pw == w)
            .expect("probe covers every workload")
            .1
    };
    let root = tracer.span("probe.stream", None, op);
    let mut secs = 0.0;
    let mut records = 0u64;
    for job in jobs {
        let Job::Coverage(c) = job else { continue };
        let n = c.opts.warmup_instrs + c.opts.measure_instrs;
        let p = program(c.workload);
        let t = Instant::now();
        tracer.time("trace.stream", Some(root.id()), op, || {
            let mut sink = 0u64;
            p.stream(c.opts.seed, mode)
                .for_each_record(n, |r| sink = sink.wrapping_add(r.pc.raw()));
            std::hint::black_box(sink);
        });
        secs += t.elapsed().as_secs_f64();
        records += n;
    }
    (secs, records)
}

/// The timing layer's shard probe: the quick 16-core Confluence job at 1
/// and at 2 shard threads on already-translated programs. Returns both
/// wall times and whether the two results are identical.
pub fn shard_probe(
    engine: &SimEngine,
    job_seed: u64,
    tracer: &Tracer,
    op: u64,
) -> (f64, f64, bool) {
    let cfg = ExperimentConfig::quick();
    let mut timing = cfg.timing_with_cores(16);
    timing.seed = job_seed;
    let program = engine.program(Workload::OltpDb2);
    let mode = engine.exec_mode();
    let root = tracer.span("probe.shards", None, op);
    let run = |shards: usize| {
        let t = Instant::now();
        let r = tracer.time(
            &format!("cmp.run.shards{shards}"),
            Some(root.id()),
            op,
            || {
                simulate_cmp_with_shards_mode(
                    program,
                    confluence_sim::DesignPoint::Confluence,
                    &timing,
                    shards,
                    mode,
                )
            },
        );
        (t.elapsed().as_secs_f64(), r)
    };
    // Warm the memo first so neither timed run pays recording.
    let _ = run(1);
    let (one, a) = run(1);
    let (two, b) = run(2);
    (one, two, a == b)
}

/// Median per-entry time of reading + verifying every result entry of
/// `store`, and of adopting each into `scratch` (re-verify + atomic
/// write), in microseconds. Returns `(load_us, adopt_us, all_ok)`.
pub fn store_probe(
    store: &ResultStore,
    scratch: &ResultStore,
    engine: &SimEngine,
    jobs: &[Job],
    tracer: &Tracer,
    op: u64,
) -> (f64, f64, bool) {
    use confluence_store::{Encode, Tier};
    let root = tracer.span("probe.store", None, op);
    let mut load = Vec::with_capacity(jobs.len());
    let mut adopt = Vec::with_capacity(jobs.len());
    let mut ok = true;
    for job in jobs {
        let key = StoreKey {
            spec: engine.program(job.workload()).spec(),
            job,
        }
        .to_bytes();
        let t = Instant::now();
        let raw = tracer.time("store.load_raw", Some(root.id()), op, || {
            store.load_raw(&key, Tier::Result)
        });
        load.push(t.elapsed().as_secs_f64() * 1e6);
        let Some(raw) = raw else {
            ok = false;
            continue;
        };
        let t = Instant::now();
        ok &= tracer.time("store.adopt_raw", Some(root.id()), op, || {
            scratch.adopt_raw(&key, &raw, Tier::Result)
        });
        adopt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    (med(&load), med(&adopt), ok)
}
