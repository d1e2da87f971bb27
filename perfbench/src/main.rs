//! The repository benchmark: end-to-end and per-layer metrics of the
//! Confluence reproduction on three workloads. See `README.md` beside
//! this crate for the workloads, the metrics and how to read the trace.
//!
//! Usage: `perfbench --workload <suite-cold|coverage-full|warm-fleet>
//! --seed N --seconds S --trace <0|1>`
//!
//! The last line of stdout is the result object; the line before it is
//! the run's provenance. Progress and a human-readable summary go to
//! stderr.

mod cold;
mod fleet;
mod json;
mod metrics;
mod probe;
mod seed;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use confluence_sim::sweeps;
use confluence_sim::Job;
use confluence_store::{ResultStore, StoreUsage};
use confluence_trace::CompiledProgram;

use cold::{ColdKind, Programs};
use json::Metric;
use metrics::LayerSheet;
use spans::Tracer;

const USAGE: &str = "perfbench --workload <suite-cold|coverage-full|warm-fleet> \
                     --seed N --seconds S --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Scratch space of all runs, relative to the checkout root. Each run
/// works in its own subdirectory and removes it; trace files stay.
const OUT_DIR: &str = ".perfbench";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkloadName {
    SuiteCold,
    CoverageFull,
    WarmFleet,
}

impl WorkloadName {
    fn parse(s: &str) -> Option<WorkloadName> {
        match s {
            "suite-cold" => Some(WorkloadName::SuiteCold),
            "coverage-full" => Some(WorkloadName::CoverageFull),
            "warm-fleet" => Some(WorkloadName::WarmFleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            WorkloadName::SuiteCold => "suite-cold",
            WorkloadName::CoverageFull => "coverage-full",
            WorkloadName::WarmFleet => "warm-fleet",
        }
    }
}

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = seed::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(WorkloadName::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes an integer".to_string())?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Ops attempted and failed; a failed check fails its op and is logged,
/// never skipped.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// One op with a single check.
    fn check(&mut self, what: &str, ok: bool, problem: &str) {
        let problems = if ok {
            vec![]
        } else {
            vec![problem.to_string()]
        };
        self.op(what, &problems);
    }

    fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("CHECK FAILED ({what}): {p}");
            }
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The named host and build every number is tied to.
fn provenance(args: &Args, workers: usize) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("workers", workers.to_string()),
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu),
        ("host", host),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ("git_commit", git_commit()),
    ]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// HEAD of the checkout the benchmark runs from, read from `.git` without
/// spawning git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance_line(prov: &[(&str, String)]) -> String {
    let body: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {}", json::string(k), json::string(v)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// What the set-ups measured.
struct Setup {
    pristine: Programs,
    total_s: Vec<f64>,
    generate_s: Vec<f64>,
    compile_s: Vec<f64>,
}

/// Generates and translates the five programs `SETUP_REPS` times. The
/// translation is timed on the side, so the returned programs stay
/// untranslated for the ops to clone.
fn setup(quick: bool, tracer: Option<&Tracer>) -> Setup {
    let mut out = Setup {
        pristine: Vec::new(),
        total_s: Vec::new(),
        generate_s: Vec::new(),
        compile_s: Vec::new(),
    };
    for rep in 0..SETUP_REPS {
        let op = rep as u64;
        let root = tracer.map(|t| t.span("setup", None, op));
        let at = tracer.zip(root.as_ref()).map(|(t, r)| (t, r.id(), op));
        let start = Instant::now();
        let mut gen = 0.0;
        let mut compile = 0.0;
        let mut programs = Vec::new();
        for w in confluence_trace::Workload::ALL {
            // As `ExperimentConfig::workload_program` scales it.
            let mut spec = w.spec();
            if quick {
                spec.target_code_kb /= 4;
            }
            let t = Instant::now();
            let g = || confluence_trace::Program::generate(&spec).expect("preset specs stay valid");
            let program = spans::time(at, "trace.generate", g);
            gen += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let c = || std::hint::black_box(CompiledProgram::compile(&program)).block_count();
            spans::time(at, "trace.compile", c);
            compile += t.elapsed().as_secs_f64();
            programs.push((w, std::sync::Arc::new(program)));
        }
        out.total_s.push(start.elapsed().as_secs_f64());
        out.generate_s.push(gen);
        out.compile_s.push(compile);
        out.pristine = programs;
    }
    out
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).expect("at least one sample")
}

fn instrs(jobs: &[Job]) -> u64 {
    jobs.iter().map(cold::job_instrs).sum()
}

/// Checks the sweep reports in a rendered suite against the committed
/// goldens (`tests/goldens/<study>.csv`, single-workload OLTP DB2 rows).
fn golden_problems(csv: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/goldens");
    let mut problems = Vec::new();
    for spec in sweeps::registry() {
        let path = dir.join(format!("{}.csv", spec.name));
        let golden = match std::fs::read_to_string(&path) {
            Ok(g) => g,
            Err(e) => {
                problems.push(format!("golden {}: {e}", path.display()));
                continue;
            }
        };
        let caption = golden.lines().next().unwrap_or_default();
        let Some(block) = csv
            .split("\n\n")
            .find(|b| b.lines().next() == Some(caption))
        else {
            problems.push(format!("report {} missing from the render", spec.name));
            continue;
        };
        let mut lines = block.lines();
        let mut pinned: String = lines.by_ref().take(2).map(|l| format!("{l}\n")).collect();
        for l in lines.filter(|l| l.starts_with("OLTP DB2,")) {
            pinned.push_str(l);
            pinned.push('\n');
        }
        if pinned != golden {
            problems.push(format!("sweep {} differs from its golden", spec.name));
        }
    }
    problems
}

/// Share of the traced op's wall time that per-layer self times account
/// for. Spans inside the parallel batch count 1/workers each; the op root,
/// the batch and the worker lanes are structure, not layers.
fn accounted_share(spans: &[spans::Span], op: u64, workers: usize) -> f64 {
    let mine: Vec<spans::Span> = spans.iter().filter(|s| s.op == op).cloned().collect();
    let Some(root) = mine
        .iter()
        .find(|s| s.parent.is_none() && s.name.starts_with("op."))
    else {
        return 0.0;
    };
    let selfs = spans::self_times(&mine);
    let by_id: std::collections::HashMap<u64, &spans::Span> =
        mine.iter().map(|s| (s.id, s)).collect();
    let in_batch = |s: &spans::Span| {
        let mut cur = s.parent;
        while let Some(p) = cur.and_then(|p| by_id.get(&p)) {
            if p.name == "engine.batch" {
                return true;
            }
            cur = p.parent;
        }
        false
    };
    let structural = ["engine.batch", "engine.worker"];
    let mut covered = 0.0;
    for (s, own) in mine.iter().zip(&selfs) {
        if s.id == root.id || structural.contains(&s.name.as_str()) {
            continue;
        }
        let weight = if in_batch(s) {
            1.0 / workers as f64
        } else {
            1.0
        };
        covered += weight * *own as f64;
    }
    covered / root.dur().max(1) as f64
}

/// Untraced cold ops until `seconds` have been measured (at least one).
fn cold_ops(
    kind: ColdKind,
    args: &Args,
    pristine: &Programs,
    workers: usize,
    work: &Path,
    tally: &mut Tally,
    max_ops: Option<usize>,
) -> (Vec<cold::ColdOp>, String) {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut ops: Vec<cold::ColdOp> = Vec::new();
    let mut reference: Option<String> = None;
    loop {
        let dir = work.join(format!("store-{}", ops.len()));
        let op = cold::cold_op(kind, pristine, workers, &dir, args.seed);
        let mut problems = Vec::new();
        match &reference {
            None => {
                if args.seed == seed::DEFAULT_SEED && kind == ColdKind::Suite {
                    problems.extend(golden_problems(&op.csv));
                }
                reference = Some(op.csv.clone());
            }
            Some(r) if *r != op.csv => {
                problems.push("CSV differs from the first cold render".into())
            }
            Some(_) => {}
        }
        let n = op.jobs.len() as u64;
        if op.stats.executed != n {
            problems.push(format!("executed {} of {n} unique jobs", op.stats.executed));
        }
        if let Some(u) = op.store {
            if u.entries as u64 != n {
                problems.push(format!("store holds {} of {n} entries", u.entries));
            }
        }
        tally.op(kind.name(), &problems);
        eprintln!(
            "  op {}: {:.3} s wall, {:.3} s cpu (run {:.3} s, persist {:.3} s, render {:.3} s)",
            ops.len(),
            op.wall_s,
            op.cpu_s,
            op.run_s,
            op.persist_s,
            op.render_s
        );
        ops.push(op);
        let last = ops.len() == max_ops.unwrap_or(usize::MAX);
        // Each op's store stays until the run ends; the traced run's
        // store probe reads the first.
        if last || Instant::now() >= deadline {
            break;
        }
    }
    (ops, reference.expect("at least one op ran"))
}

fn end_to_end(setup_s: f64, batch_s: f64, cpu_s: f64, minstr: f64) -> Vec<Metric> {
    let values = [
        setup_s,
        batch_s,
        cpu_s,
        minstr / batch_s,
        probe::usage().peak_rss_mb,
    ];
    metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| Metric::new(*n, v, u))
        .collect()
}

fn set_store(sheet: &mut LayerSheet, usage: Option<StoreUsage>) {
    if let Some(u) = usage {
        sheet.set("store.entries", u.entries as f64);
        sheet.set("store.bytes", u.bytes as f64);
        sheet.set("store.artifact_bytes", u.artifact_bytes as f64);
    }
}

fn set_engine(sheet: &mut LayerSheet, s: &confluence_sim::EngineStats) {
    sheet.set("engine.requests", s.requests as f64);
    sheet.set("engine.executed", s.executed as f64);
    sheet.set("engine.hits", s.hits as f64);
    sheet.set("engine.disk_hits", s.disk_hits as f64);
}

/// A cold workload. Untraced: end-to-end metrics. Traced: one untraced
/// op, one traced op and the layer probes.
fn run_cold(
    kind: ColdKind,
    args: &Args,
    workers: usize,
    work: &Path,
    tally: &mut Tally,
    tracer: &Tracer,
) -> Vec<Metric> {
    let quick = kind.config().quick;
    eprintln!("set-up: generating and translating programs ({SETUP_REPS}x)...");
    let su = setup(quick, args.trace.then_some(tracer));
    eprintln!("  set-up: {:?} s", su.total_s);
    let setup_s = median(&su.total_s);
    if !args.trace {
        let (ops, _) = cold_ops(kind, args, &su.pristine, workers, work, tally, None);
        let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
        let cpus: Vec<f64> = ops.iter().map(|o| o.cpu_s).collect();
        let minstr = instrs(&ops[0].jobs) as f64 / 1e6;
        return end_to_end(setup_s, median(&walls), median(&cpus), minstr);
    }

    let (ops, reference) = cold_ops(kind, args, &su.pristine, workers, work, tally, Some(1));
    let untraced = &ops[0];
    const TRACED_OP: u64 = 1000;
    eprintln!("traced op...");
    let timer_cost = probe::timer_cost();
    let traced_dir = work.join("store-traced");
    let traced = cold::traced_op(
        kind,
        &su.pristine,
        args.seed,
        workers,
        &traced_dir,
        tracer,
        TRACED_OP,
        timer_cost,
    );
    let mut problems = Vec::new();
    if traced.csv != reference {
        problems.push("traced CSV differs from the cold render".to_string());
    }
    if traced.executed_after_seed != 0 {
        problems.push(format!(
            "formatters simulated {} jobs after seeding",
            traced.executed_after_seed
        ));
    }
    tally.op("traced op", &problems);
    eprintln!("  traced op: {:.3} s wall", traced.wall_s);
    let mut sheet = traced.sheet;

    sheet.set("trace.generate_s", median(&su.generate_s));
    sheet.set("trace.compile_s", median(&su.compile_s));
    sheet.set("trace.memo_replay_hits", untraced.memo.replayed as f64);
    sheet.set("trace.memo_recorded", untraced.memo.recorded as f64);
    sheet.set("trace.memo_live", untraced.memo.live as f64);
    set_engine(&mut sheet, &untraced.stats);
    sheet.set(
        "engine.parallel_efficiency",
        traced.busy_s / (workers as f64 * untraced.wall_s),
    );
    sheet.set("report.render_ms", untraced.render_s * 1e3);

    let (stream_s, records) = cold::stream_probe(
        &untraced.jobs,
        &su.pristine,
        traced.engine.exec_mode(),
        tracer,
        2000,
    );
    sheet.set("trace.stream_s", stream_s);
    if stream_s > 0.0 {
        sheet.set("trace.stream_mrec_per_s", records as f64 / 1e6 / stream_s);
    }
    let coverage_run: f64 = metrics::COVERAGE_CLASSES
        .iter()
        .filter(|c| **c != "density")
        .map(|c| sheet.get(&format!("coverage.job_s.{c}")))
        .sum();
    let btb_s: f64 = metrics::BTB_CLASSES
        .iter()
        .map(|c| sheet.get(&format!("btb.{c}.self_s")))
        .sum();
    sheet.set("coverage.residual_s", coverage_run - stream_s - btb_s);

    if kind == ColdKind::Suite {
        set_store(&mut sheet, untraced.store);
        sheet.set("store.persist_artifacts_s", untraced.persist_s);
        let store = ResultStore::open(work.join("store-0"), confluence_sim::SCHEMA_VERSION)
            .expect("op store reopens");
        let scratch = ResultStore::open(work.join("store-adopt"), confluence_sim::SCHEMA_VERSION)
            .expect("scratch store opens");
        let (load_us, adopt_us, ok) = cold::store_probe(
            &store,
            &scratch,
            &traced.engine,
            &untraced.jobs,
            tracer,
            3000,
        );
        sheet.set("store.load_verify_us", load_us);
        sheet.set("store.adopt_us", adopt_us);
        tally.check("store probe", ok, "an entry failed to load or adopt");

        let job_seed = seed::perturb(
            confluence_sim::TimingConfig::default().seed,
            args.seed,
            0x5AAD,
        );
        let (one, two, equal) = cold::shard_probe(&traced.engine, job_seed, tracer, 4000);
        sheet.set("timing.shard_speedup", one / two);
        tally.check("shard probe", equal, "1- and 2-shard results differ");
    }
    sheet.set(
        "trace.overhead_share",
        traced.wall_s / untraced.wall_s - 1.0,
    );
    sheet.set(
        "trace.accounted_share",
        accounted_share(&tracer.spans(), TRACED_OP, workers),
    );
    sheet.metrics()
}

/// The `warm-fleet` workload.
fn run_fleet(
    args: &Args,
    workers: usize,
    work: &Path,
    tally: &mut Tally,
    tracer: &Tracer,
) -> Vec<Metric> {
    eprintln!("set-up: generating and translating programs ({SETUP_REPS}x)...");
    let su = setup(true, args.trace.then_some(tracer));
    eprintln!("  set-up: {:?} s", su.total_s);
    eprintln!("set-up: warming the store with the quick suite...");
    let warm_start = Instant::now();
    let store_dir = work.join("warm-store");
    let warmup = cold::cold_op(
        ColdKind::Suite,
        &su.pristine,
        workers,
        &store_dir,
        args.seed,
    );
    let mut problems = Vec::new();
    if args.seed == seed::DEFAULT_SEED {
        problems.extend(golden_problems(&warmup.csv));
    }
    if warmup.stats.executed != warmup.jobs.len() as u64 {
        problems.push(format!(
            "warm-up executed {} of {}",
            warmup.stats.executed,
            warmup.jobs.len()
        ));
    }
    tally.op("store warm-up", &problems);
    let mut fleet = fleet::Fleet::start(
        &su.pristine,
        &store_dir,
        work,
        warmup.csv.clone(),
        workers,
        args.seed,
    );
    let setup_s = median(&su.total_s) + warm_start.elapsed().as_secs_f64();
    eprintln!("  warm-up: {:.3} s", warm_start.elapsed().as_secs_f64());

    let untraced_secs = if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    };
    let mut samples: [Vec<f64>; 3] = Default::default();
    let mut rounds = Vec::new();
    let mut round_cpu = Vec::new();
    let mut renders = Vec::new();
    let mut last_stats = None;
    let deadline = Instant::now() + Duration::from_secs(untraced_secs);
    // Enough rounds for ten samples of each op beyond its p90, even when
    // the run length alone would give fewer.
    while rounds.len() < stats::samples_for_p90(10) || Instant::now() < deadline {
        let (a, stats, render_s) = fleet.warm_render(workers, None);
        let b = fleet.daemon_batch(None);
        let c = fleet.peer_fetch(workers, None);
        for (i, op) in [&a, &b, &c].into_iter().enumerate() {
            tally.op(metrics::FLEET_OPS[i], &op.why);
            samples[i].push(op.secs * 1e3);
        }
        // `batch_s` and `cpu_s` cover the read path only: `peer_fetch`
        // is dominated by file creation, whose cost swings twofold on a
        // shared disk with other tenants' load, so it is reported per
        // layer (`fleet.peer_fetch_ms`) and checked, but not gated.
        rounds.push(a.secs + b.secs);
        round_cpu.push(a.cpu_s + b.cpu_s);
        renders.push(render_s);
        last_stats = Some(stats);
    }
    let mut summary = String::new();
    for (i, name) in metrics::FLEET_OPS.iter().enumerate() {
        let (p90, beyond) = stats::p90(&samples[i]).expect("at least one round");
        let [q1, q2, q3] = stats::quartiles(&samples[i]).unwrap_or([f64::NAN; 3]);
        summary.push_str(&format!(
            "  {name}: median {q2:.3} ms (quartiles {q1:.3}..{q3:.3}), p90 {p90:.3} ms \
             ({} samples, {beyond} beyond p90)\n",
            samples[i].len()
        ));
    }
    eprint!("{summary}");
    let minstr = 2.0 * instrs(fleet.unique()) as f64 / 1e6;
    if !args.trace {
        return end_to_end(setup_s, median(&rounds), median(&round_cpu), minstr);
    }

    let mut sheet = LayerSheet::new();
    for (i, name) in metrics::FLEET_OPS.iter().enumerate() {
        let (p90, _) = stats::p90(&samples[i]).expect("at least one round");
        sheet.set(&format!("fleet.{name}_ms"), median(&samples[i]));
        sheet.set(&format!("fleet.{name}_ms_p90"), p90);
        sheet.set(&format!("fleet.{name}_samples"), samples[i].len() as f64);
    }
    sheet.set("trace.generate_s", median(&su.generate_s));
    sheet.set("trace.compile_s", median(&su.compile_s));
    set_store(&mut sheet, warmup.store);
    sheet.set("store.persist_artifacts_s", warmup.persist_s);
    set_engine(&mut sheet, &last_stats.expect("at least one round"));
    sheet.set("report.render_ms", median(&renders) * 1e3);

    // Traced rounds for the other half of the run.
    let deadline = Instant::now() + Duration::from_secs(args.seconds - untraced_secs);
    let mut traced_rounds = Vec::new();
    const FIRST_OP: u64 = 1000;
    let mut op = FIRST_OP;
    while traced_rounds.is_empty() || Instant::now() < deadline {
        op += 1;
        let root = tracer.span("op.fleet", None, op);
        let span = tracer.span("fleet.warm_render", Some(root.id()), op);
        let (a, _, _) = fleet.warm_render(workers, Some((tracer, span.id(), op)));
        drop(span);
        let span = tracer.span("fleet.daemon_batch", Some(root.id()), op);
        let b = fleet.daemon_batch(Some((tracer, span.id(), op)));
        drop(span);
        drop(root);
        let peer_op = op + 100_000;
        let root = tracer.span("op.fleet.peer_fetch", None, peer_op);
        let c = fleet.peer_fetch(workers, Some((tracer, root.id(), peer_op)));
        drop(root);
        for (i, o) in [&a, &b, &c].into_iter().enumerate() {
            tally.op(metrics::FLEET_OPS[i], &o.why);
        }
        traced_rounds.push(a.secs + b.secs);
    }
    let spans = tracer.spans();
    let accounted: Vec<f64> = (FIRST_OP + 1..=op)
        .map(|o| accounted_share(&spans, o, workers))
        .collect();
    sheet.set(
        "trace.overhead_share",
        median(&traced_rounds) / median(&rounds) - 1.0,
    );
    sheet.set("trace.accounted_share", median(&accounted));

    let store = fleet.store();
    let scratch = ResultStore::open(work.join("store-adopt"), confluence_sim::SCHEMA_VERSION)
        .expect("scratch store opens");
    let probe_engine = fleet.client_engine();
    let (load_us, adopt_us, ok) = cold::store_probe(
        &store,
        &scratch,
        &probe_engine,
        fleet.unique(),
        tracer,
        3000,
    );
    sheet.set("store.load_verify_us", load_us);
    sheet.set("store.adopt_us", adopt_us);
    tally.check("store probe", ok, "an entry failed to load or adopt");
    match fleet.serve_probe(tracer, 5000) {
        Ok((submit_ms, rtt_us, bytes)) => {
            sheet.set("serve.submit_ms", submit_ms);
            sheet.set("serve.empty_rtt_us", rtt_us);
            sheet.set("serve.reply_bytes", bytes as f64);
            tally.op("serve probe", &[]);
        }
        Err(e) => tally.op("serve probe", &[e]),
    }
    let (ms, hits, bytes, trips) = fleet.peers_probe(tracer, 6000);
    sheet.set("peers.fetch_ms", ms);
    sheet.set("peers.hits", hits as f64);
    sheet.set("peers.bytes", bytes as f64);
    sheet.set("peers.round_trips", trips as f64);
    let n = fleet.unique().len() as u64;
    let mut problems = Vec::new();
    if hits != n || trips != 1 {
        problems.push(format!(
            "peer fetch: {hits} of {n} hits in {trips} round trips"
        ));
    }
    tally.op("peers probe", &problems);
    if !fleet.stop() {
        tally.op("daemon stop", &["warm daemon failed".into()]);
    }
    sheet.metrics()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: {USAGE}");
            std::process::exit(2);
        }
    };
    let workers = nproc().min(2);
    let prov = provenance(&args, workers);
    for (k, v) in &prov {
        eprintln!("{k}: {v}");
    }
    let work = WorkDir(PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).expect("scratch directory is creatable");

    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let metrics = match args.workload {
        WorkloadName::SuiteCold => run_cold(
            ColdKind::Suite,
            &args,
            workers,
            &work.0,
            &mut tally,
            &tracer,
        ),
        WorkloadName::CoverageFull => run_cold(
            ColdKind::Coverage,
            &args,
            workers,
            &work.0,
            &mut tally,
            &tracer,
        ),
        WorkloadName::WarmFleet => run_fleet(&args, workers, &work.0, &mut tally, &tracer),
    };

    if args.trace {
        let path = PathBuf::from(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let doc = spans::chrome_trace(&tracer.spans(), &prov);
        match std::fs::write(&path, doc) {
            Ok(()) => eprintln!("trace: {}", path.display()),
            Err(e) => tally.op("trace file", &[format!("{}: {e}", path.display())]),
        }
    }
    eprintln!(
        "error_rate: {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for m in &metrics {
        eprintln!("  {} = {} {}", m.name, m.value, m.unit);
    }
    drop(work);
    println!("{}", provenance_line(&prov));
    match json::result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "warm-fleet",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, WorkloadName::WarmFleet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "suite-cold", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "suite-cold", "--bogus"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "suite-cold", "--seconds", "0"]).is_err());
    }

    #[test]
    fn accounted_share_weights_parallel_lanes() {
        let s = |id, parent, name: &str, start, end| spans::Span {
            id,
            parent,
            op: 1,
            name: name.to_string(),
            start,
            end,
            tid: 1,
        };
        // op [0,100): batch [0,80) with two lanes, render [80,100).
        let v = vec![
            s(1, None, "op.suite", 0, 100),
            s(2, Some(1), "engine.batch", 0, 80),
            s(3, Some(2), "engine.worker", 0, 80),
            s(4, Some(3), "job.coverage", 0, 80),
            s(5, Some(2), "engine.worker", 0, 60),
            s(6, Some(5), "job.coverage", 0, 60),
            s(7, Some(2), "engine.idle", 60, 80),
            s(8, Some(1), "report.render", 80, 100),
        ];
        let share = accounted_share(&v, 1, 2);
        assert!((share - 1.0).abs() < 1e-9, "{share}");
    }
}
