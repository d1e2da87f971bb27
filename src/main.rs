//! `confluence`: regenerates the Confluence (MICRO 2015) figures and
//! tables, runs the sensitivity sweeps and design-space searches, and
//! serves the experiment engine as a daemon — one binary, one subcommand
//! per job.
//!
//! ```text
//! confluence <subcommand> [flags]
//! ```
//!
//! Every engine subcommand runs the same path: build the engine, batch
//! the subcommand's jobs through it (each unique simulation runs once, or
//! comes from the store, a peer, or the daemon named by `--connect`),
//! then render its reports from the warm cache to stdout. Stderr carries
//! the cache accounting, so stdout stays byte-comparable across runs,
//! stores, thread counts and transports.

mod cli;

use std::sync::Arc;

use cli::{Args, Surface, AREA, ENGINE, SEARCH, SERVE, STUDIES};
use confluence_search::{driver, objective};
use confluence_sim::experiments::{self, ExperimentConfig, FIG2_DESIGNS, FIG6_DESIGNS};
use confluence_sim::report::Report;
use confluence_sim::{sweeps, Job, SimEngine};

type JobsFn = fn(&SimEngine, &ExperimentConfig) -> Vec<Job>;
type ReportsFn = fn(&SimEngine, &ExperimentConfig) -> Vec<Report>;

/// What a subcommand does once its command line has parsed.
enum Run {
    /// Batch the jobs, then render the reports from the warm cache.
    Batch(JobsFn, ReportsFn),
    /// A subcommand with its own main.
    Main(fn(&Args)),
}

struct Subcommand {
    name: &'static str,
    surface: Surface,
    run: Run,
}

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "all",
        surface: ENGINE,
        run: Run::Batch(experiments::all_jobs, experiments::suite_reports),
    },
    Subcommand {
        name: "fig1",
        surface: ENGINE,
        run: Run::Batch(experiments::fig1_jobs, |e, c| vec![experiments::fig1(e, c)]),
    },
    Subcommand {
        name: "fig2",
        surface: ENGINE,
        run: Run::Batch(
            |e, c| experiments::fig_perf_area_jobs(e, &FIG2_DESIGNS, c),
            |e, c| vec![experiments::fig2(e, c)],
        ),
    },
    Subcommand {
        name: "fig6",
        surface: ENGINE,
        run: Run::Batch(
            |e, c| experiments::fig_perf_area_jobs(e, &FIG6_DESIGNS, c),
            |e, c| vec![experiments::fig6(e, c)],
        ),
    },
    Subcommand {
        name: "fig7",
        surface: ENGINE,
        run: Run::Batch(experiments::fig7_jobs, |e, c| vec![experiments::fig7(e, c)]),
    },
    Subcommand {
        name: "fig8",
        surface: ENGINE,
        run: Run::Batch(experiments::fig8_jobs, |e, c| vec![experiments::fig8(e, c)]),
    },
    Subcommand {
        name: "fig9",
        surface: ENGINE,
        run: Run::Batch(experiments::fig9_jobs, |e, c| vec![experiments::fig9(e, c)]),
    },
    Subcommand {
        name: "fig10",
        surface: ENGINE,
        run: Run::Batch(experiments::fig10_jobs, |e, c| {
            vec![experiments::fig10(e, c)]
        }),
    },
    Subcommand {
        name: "table2",
        surface: ENGINE,
        run: Run::Batch(experiments::table2_jobs, |e, c| {
            vec![experiments::table2(e, c)]
        }),
    },
    Subcommand {
        name: "l1i-coverage",
        surface: ENGINE,
        run: Run::Batch(experiments::l1i_coverage_jobs, |e, c| {
            vec![experiments::l1i_coverage(e, c)]
        }),
    },
    Subcommand {
        name: "area-table",
        surface: AREA,
        run: Run::Main(|args| println!("{}", args.render(&experiments::area_table()))),
    },
    // The three timing figures in one batch, so the Baseline and every
    // design point they share is simulated once. Pure CMP timing work —
    // the job class shard lending exists for — so `--compare-serial` here
    // measures the two-phase tick's intra-job speedup specifically.
    Subcommand {
        name: "timing-figs",
        surface: ENGINE,
        run: Run::Batch(
            |e, c| {
                let mut jobs = experiments::fig_perf_area_jobs(e, &FIG2_DESIGNS, c);
                jobs.extend(experiments::fig_perf_area_jobs(e, &FIG6_DESIGNS, c));
                jobs.extend(experiments::fig7_jobs(e, c));
                jobs
            },
            |e, c| {
                vec![
                    experiments::fig2(e, c),
                    experiments::fig6(e, c),
                    experiments::fig7(e, c),
                ]
            },
        ),
    },
    Subcommand {
        name: "sweeps",
        surface: ENGINE | STUDIES,
        run: Run::Main(sweep),
    },
    Subcommand {
        name: "search",
        surface: ENGINE | STUDIES | SEARCH,
        run: Run::Main(search),
    },
    Subcommand {
        name: "serve",
        surface: SERVE,
        run: Run::Main(serve),
    },
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = argv
        .first()
        .and_then(|name| SUBCOMMANDS.iter().find(|s| s.name == name))
    else {
        match argv.first() {
            Some(name) => eprintln!("error: unknown subcommand '{name}'"),
            None => eprintln!("error: missing subcommand"),
        }
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
        eprintln!("usage: confluence <subcommand> [flags]");
        eprintln!("subcommands: {}", names.join(" "));
        std::process::exit(2);
    };
    let args = cli::parse(sub.surface, &argv[1..]).unwrap_or_else(|errors| {
        for e in errors {
            eprintln!("error: {e}");
        }
        eprintln!("usage: {}", cli::usage(sub.name, sub.surface));
        std::process::exit(2);
    });
    match sub.run {
        Run::Batch(jobs, reports) => batch(&args, jobs, reports),
        Run::Main(main) => main(&args),
    }
}

/// The one path every engine subcommand runs: build the engine, dispatch
/// the jobs (in process or to the `--connect` daemon), render the reports
/// from the warm cache, and — when asked — check the rendering against a
/// serial reference run.
fn batch(
    args: &Args,
    jobs: impl Fn(&SimEngine, &ExperimentConfig) -> Vec<Job>,
    reports: impl Fn(&SimEngine, &ExperimentConfig) -> Vec<Report>,
) {
    let cfg = args.config();
    let engine = cli::build_engine(args);
    let jobs = jobs(&engine, &cfg);
    let run = cli::dispatch_batch(&engine, &jobs, args);
    let rendered = cli::finish_batch(&engine, args, &run, &reports(&engine, &cfg));
    if args.compare_serial {
        cli::compare_serial(&engine, args, &jobs, &run, &rendered, |reference| {
            reports(reference, &cfg)
        });
    }
}

/// Resolves `--study` names against a registry; none selects it all.
/// Exits with status 2 on an unknown name.
fn studies<T>(args: &Args, find: fn(&str) -> Option<T>, registry: fn() -> Vec<T>) -> Vec<T> {
    if args.studies.is_empty() {
        return registry();
    }
    args.studies
        .iter()
        .map(|name| {
            find(name).unwrap_or_else(|| {
                eprintln!("error: unknown study '{name}' (try --list)");
                std::process::exit(2);
            })
        })
        .collect()
}

/// `sweeps`: the registered sensitivity studies (`sweeps::registry()`).
/// Their points reuse the figure suite's configurations wherever they
/// coincide, so a store populated by `all` serves most of a sweep.
fn sweep(args: &Args) {
    if args.list {
        for s in sweeps::registry() {
            let (name, axis) = (s.name, s.axis.parameter());
            println!("{name:16} {axis:28} {} points", s.axis.len());
        }
        return;
    }
    let studies = studies(args, sweeps::find, sweeps::registry);
    batch(
        args,
        |e, c| studies.iter().flat_map(|s| s.jobs(e, c)).collect(),
        |e, c| studies.iter().map(|s| s.report(e, c)).collect(),
    );
}

/// `search`: seeded design-space searches over the memoizing engine.
/// Candidate batches become content-keyed jobs, so a warm store or
/// daemon serves a re-run without executing a single simulation —
/// stderr reports exactly how many ran.
fn search(args: &Args) {
    if args.list {
        for s in objective::registry() {
            println!("{:18} {:18} {}", s.name, s.strategy_name(), s.caption);
        }
        return;
    }
    let studies = studies(args, objective::find, objective::registry);
    let seed = args.seed.unwrap_or(42);
    let cfg = args.config();
    let engine = cli::build_engine(args);
    let mut submitted: Vec<Job> = Vec::new();
    let mut daemon_executed = 0;
    let start = std::time::Instant::now();
    let (reports, iterations) = run_studies(&engine, &cfg, &studies, seed, |jobs| {
        submitted.extend_from_slice(jobs);
        let Some(sock) = &args.connect else {
            return engine.run(jobs);
        };
        match confluence_sim::daemon::submit_jobs(sock, &engine, jobs) {
            Ok(stats) => daemon_executed += stats.executed,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    });
    let run = cli::BatchRun {
        stats: engine.stats(),
        elapsed: start.elapsed(),
        daemon: None,
    };
    match &args.connect {
        Some(_) => eprintln!(
            "search: daemon executed {daemon_executed} simulations across \
             {iterations} search iterations"
        ),
        None => eprintln!(
            "search: executed {} simulations across {iterations} search iterations",
            run.stats.executed
        ),
    }
    let rendered = cli::finish_batch(&engine, args, &run, &reports);
    if args.compare_serial {
        cli::compare_serial(&engine, args, &submitted, &run, &rendered, |reference| {
            run_studies(reference, &cfg, &studies, seed, |jobs| reference.run(jobs)).0
        });
    }
}

/// Runs every study's search on `engine`, handing each batch of fresh
/// probes to `run_jobs`. Returns each study's trajectory, frontier and
/// answer reports, and the total iteration count.
fn run_studies(
    engine: &SimEngine,
    cfg: &ExperimentConfig,
    studies: &[objective::Study],
    seed: u64,
    mut run_jobs: impl FnMut(&[Job]),
) -> (Vec<Report>, usize) {
    let mut reports = Vec::new();
    let mut iterations = 0;
    for study in studies {
        let strategy = study.strategy_name();
        eprintln!("searching {} ({strategy}, seed {seed})...", study.name);
        let outcome = driver::run_search(engine, cfg, study, seed, &mut run_jobs);
        reports.extend([outcome.trajectory, outcome.frontier, outcome.answer]);
        iterations += outcome.iterations;
    }
    (reports, iterations)
}

/// `serve`: one warm engine (and optionally one persistent store) serving
/// job batches to many concurrent `--connect` clients over a Unix-domain
/// socket for as long as the process lives. The scale flags fix the
/// workload configuration for the daemon's lifetime; clients built over a
/// different one are refused at handshake. A ready line is printed to
/// stderr once the socket is listening.
fn serve(args: &Args) {
    let socket = args
        .socket
        .as_ref()
        .expect("parse requires --socket for serve");
    let engine = cli::build_engine(args);
    let store = match engine.store() {
        Some(s) => format!("store {}", s.root().display()),
        None => "store disabled".to_string(),
    };
    let peers = match engine.peers() {
        Some(p) => format!(
            ", {} peer(s) [{}]",
            p.sockets().len(),
            p.sockets()
                .iter()
                .map(|s| s.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        None => String::new(),
    };
    let host = Arc::new(confluence_sim::daemon::EngineHost::new(
        engine,
        args.store_cap,
    ));
    let server = match confluence_serve::Server::bind(socket, Arc::clone(&host)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", socket.display());
            std::process::exit(1);
        }
    };
    eprintln!(
        "confluence-serve: listening on {} ({} mode, schema v{}, config {:016x}, \
         {} thread(s), {store}{peers})",
        socket.display(),
        if args.quick { "quick" } else { "full" },
        confluence_sim::SCHEMA_VERSION,
        host.fingerprint(),
        host.engine().threads(),
    );
    if let Err(e) = server.run() {
        eprintln!("error: daemon accept loop failed: {e}");
        std::process::exit(1);
    }
}
