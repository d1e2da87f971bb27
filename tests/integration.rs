//! Cross-crate integration tests: the full pipeline from workload
//! generation through functional coverage, cycle-level CMP simulation, and
//! the parallel memoizing experiment engine.

use confluence::sim::{
    experiments, run_coverage, simulate_cmp, CoverageOptions, DesignPoint, SimEngine, TimingConfig,
};
use confluence::trace::{Program, Workload, WorkloadSpec};
use confluence_area::AreaModel;
use confluence_btb::ConventionalBtb;
use confluence_core::AirBtb;
use confluence_uarch::MemParams;

fn test_program() -> Program {
    Program::generate(&WorkloadSpec::base().with_code_kb(1024)).expect("valid spec")
}

fn quick_timing() -> TimingConfig {
    TimingConfig {
        cores: 2,
        warmup_instrs: 80_000,
        measure_instrs: 80_000,
        mem: MemParams {
            cores: 4,
            ..MemParams::default()
        },
        ..TimingConfig::default()
    }
}

#[test]
fn end_to_end_airbtb_beats_baseline_coverage() {
    let program = test_program();
    let opts = CoverageOptions::quick();
    let mut baseline = ConventionalBtb::baseline_1k().unwrap();
    let rb = run_coverage(&program, &mut baseline, &opts);
    let mut air = AirBtb::paper_config();
    let ra = run_coverage(&program, &mut air, &opts.with_shift());
    let cov = ra.btb_miss_coverage_vs(&rb);
    assert!(cov > 0.6, "AirBTB coverage {cov}");
}

#[test]
fn end_to_end_design_point_ordering() {
    let program = test_program();
    let cfg = quick_timing();
    let base = simulate_cmp(&program, DesignPoint::Baseline, &cfg);
    let conf = simulate_cmp(&program, DesignPoint::Confluence, &cfg);
    let ideal = simulate_cmp(&program, DesignPoint::Ideal, &cfg);
    assert!(
        conf.ipc() > base.ipc(),
        "Confluence {} must beat baseline {}",
        conf.ipc(),
        base.ipc()
    );
    assert!(
        ideal.ipc() > base.ipc() * 1.05,
        "Ideal {} must clearly beat baseline {}",
        ideal.ipc(),
        base.ipc()
    );
}

#[test]
fn end_to_end_simulation_is_reproducible() {
    let program = test_program();
    let cfg = quick_timing();
    let a = simulate_cmp(&program, DesignPoint::Confluence, &cfg);
    let b = simulate_cmp(&program, DesignPoint::Confluence, &cfg);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert!((a.ipc() - b.ipc()).abs() < 1e-12);
}

#[test]
fn confluence_area_story_holds() {
    // The headline claim: Confluence ~1% area overhead, two-level ~8%.
    let model = AreaModel::paper();
    let base = DesignPoint::Baseline.storage_profile();
    let conf = model.relative_area(&DesignPoint::Confluence.storage_profile(), &base);
    let two = model.relative_area(&DesignPoint::TwoLevelShift.storage_profile(), &base);
    assert!((1.003..1.02).contains(&conf), "Confluence rel. area {conf}");
    assert!(two > 1.06, "2Level+SHIFT rel. area {two}");
    assert!(conf < two);
}

#[test]
fn all_workload_presets_generate_and_execute() {
    for w in Workload::ALL {
        let spec = w.spec().with_code_kb(256);
        let program = Program::generate(&spec).unwrap();
        let mut ex = program.executor(1);
        let mut prev = None;
        for _ in 0..20_000 {
            let r = ex.next_record().unwrap();
            if let Some(p) = prev {
                let p: confluence::types::TraceRecord = p;
                assert_eq!(r.pc, p.next_pc(), "{w}: trace discontinuity");
            }
            prev = Some(r);
        }
    }
}

/// Two engines over the *same* `Arc`-shared programs — one parallel, one
/// serial — must render byte-identical CSV for a multi-figure run: jobs
/// are pure functions of their keys, so the worker pool cannot perturb
/// results.
#[test]
fn engine_parallel_run_is_deterministic() {
    let cfg = experiments::ExperimentConfig::quick();
    let workloads: Vec<_> = cfg.workloads().into_iter().take(2).collect();
    let parallel = SimEngine::new(workloads.clone()).with_threads(4);
    let serial = SimEngine::new(workloads).with_threads(1);

    let render = |engine: &SimEngine| {
        let mut csv = experiments::fig9(engine, &cfg).to_csv();
        csv.push_str(&experiments::l1i_coverage(engine, &cfg).to_csv());
        csv
    };
    assert_eq!(
        render(&parallel),
        render(&serial),
        "parallel CSV must equal serial CSV"
    );
    // The parallel engine must not have simulated more than the serial one.
    assert_eq!(parallel.stats().executed, serial.stats().executed);
}

/// Across the full multi-figure batch, each unique simulation runs exactly
/// once: the engine's executed count equals the number of distinct job
/// keys, with every duplicate request served from the cache.
#[test]
fn engine_runs_each_unique_simulation_once() {
    let cfg = experiments::ExperimentConfig::quick();
    let workloads: Vec<_> = cfg.workloads().into_iter().take(2).collect();
    let engine = SimEngine::new(workloads);
    let jobs: Vec<_> = experiments::fig8_jobs(&engine, &cfg)
        .into_iter()
        .chain(experiments::fig9_jobs(&engine, &cfg))
        .chain(experiments::fig10_jobs(&engine, &cfg))
        .chain(experiments::l1i_coverage_jobs(&engine, &cfg))
        .collect();
    let unique = experiments::unique_jobs(&jobs) as u64;
    engine.run(&jobs);
    let stats = engine.stats();
    assert!(unique < jobs.len() as u64, "figures must share jobs");
    assert_eq!(
        stats.executed, unique,
        "each unique job must execute exactly once"
    );
    // Formatting the figures afterwards is pure cache hits.
    experiments::fig8(&engine, &cfg);
    experiments::fig9(&engine, &cfg);
    experiments::fig10(&engine, &cfg);
    experiments::l1i_coverage(&engine, &cfg);
    assert_eq!(
        engine.stats().executed,
        unique,
        "formatters must not re-simulate"
    );
}

#[test]
fn shift_history_shared_across_cores_helps() {
    // A consumer core using a history trained by another core must see
    // L1-I coverage (the cross-core sharing premise of SHIFT/Confluence).
    use confluence_prefetch::{ShiftEngine, ShiftHistory};
    use confluence_uarch::L1ICache;

    let program = test_program();
    let mut history = ShiftHistory::new_32k();
    // Core 0 trains the history.
    let mut last = None;
    for r in program.executor(1).take(600_000) {
        let b = r.pc.block();
        if last != Some(b) {
            last = Some(b);
            history.record(b);
        }
    }
    // Core 1 (different seed, same program) consumes it.
    let mut l1i = L1ICache::new_32k();
    let mut engine = ShiftEngine::new();
    let mut out = Vec::new();
    let (mut misses, mut accesses) = (0u64, 0u64);
    let mut last = None;
    for r in program.executor(2).take(600_000) {
        let b = r.pc.block();
        if last == Some(b) {
            continue;
        }
        last = Some(b);
        accesses += 1;
        let hit = l1i.access(b);
        if !hit {
            misses += 1;
            l1i.fill(b);
        }
        out.clear();
        engine.on_access(&history, b, !hit, &mut out);
        for &p in &out {
            if !l1i.contains(p) {
                l1i.fill(p);
            }
        }
    }
    let miss_rate = misses as f64 / accesses as f64;
    assert!(
        miss_rate < 0.08,
        "consumer core miss rate {miss_rate} too high for a shared history"
    );
    assert!(
        engine.confirmed() > 1000,
        "stream confirmations {}",
        engine.confirmed()
    );
}

/// A disposable store directory under the system temp dir.
struct StoreDir(std::path::PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        let path = std::env::temp_dir().join(format!(
            "confluence-integration-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        StoreDir(path)
    }

    fn open(&self) -> confluence::store::ResultStore {
        confluence::store::ResultStore::open(&self.0, confluence::sim::SCHEMA_VERSION)
            .expect("temp dir writable")
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `confluence all` warm-run guarantee, at the library level: a
/// second full-suite run against the same store directory simulates
/// nothing (`executed == 0`, every unique job a disk hit) and renders
/// byte-identical reports in every output format.
#[test]
fn warm_store_suite_executes_nothing_and_is_byte_identical() {
    let dir = StoreDir::new("warm-suite");
    let cfg = experiments::ExperimentConfig::quick();
    // Two workloads keep test time sane (mirrors the experiments tests).
    let workloads: Vec<_> = cfg.workloads().into_iter().take(2).collect();

    let render = |engine: &SimEngine| -> Vec<String> {
        experiments::suite_reports(engine, &cfg)
            .iter()
            .flat_map(|r| [r.to_csv(), r.to_table(), r.to_markdown()])
            .collect()
    };

    let cold = SimEngine::new(workloads.clone()).with_store(dir.open());
    let jobs = experiments::all_jobs(&cold, &cfg);
    let unique = experiments::unique_jobs(&jobs) as u64;
    cold.run(&jobs);
    let cold_reports = render(&cold);
    let cold_stats = cold.stats();
    assert_eq!(cold_stats.executed, unique, "cold run simulates everything");
    assert_eq!(cold_stats.disk_hits, 0);

    let warm = SimEngine::new(workloads).with_store(dir.open());
    warm.run(&jobs);
    let warm_reports = render(&warm);
    let warm_stats = warm.stats();
    assert_eq!(
        warm_stats.executed, 0,
        "warm run must not simulate anything"
    );
    assert_eq!(
        warm_stats.disk_hits, unique,
        "every unique job comes from disk"
    );
    assert_eq!(
        warm_reports, cold_reports,
        "warm reports must be byte-identical to cold ones"
    );
}
