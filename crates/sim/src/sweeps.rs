//! Declarative sensitivity-sweep studies over the experiment engine.
//!
//! The paper's headline claims rest on *sensitivity* behavior — how the
//! unified instruction supply holds up as SHIFT history capacity, AirBTB
//! bundle geometry, and core count vary — but the figure runners only
//! reproduce the published points. A [`SweepSpec`] names a **study**: a
//! [`SweepAxis`] (which parameter is swept, and its point list) expanded
//! by a job builder into ordinary content-keyed [`Job`]s. Because points
//! reuse the suite's native configurations wherever they coincide (the
//! 32K-entry SHIFT history point *is* the L1-I table's run, the
//! 512-bundle geometry points *are* Figure 10's, and in quick mode the
//! 4-core scaling point *is* Figures 2/6/7's Baseline), the engine
//! cache and the persistent store dedupe overlapping points across
//! studies and figures.
//!
//! Studies follow the same two-pure-halves shape as the figures in
//! [`crate::experiments`]: [`SweepSpec::jobs`] declares, and
//! [`SweepSpec::report`] formats from the warm cache. `confluence sweeps`
//! lists and runs studies from [`registry`]; `confluence all` batches
//! every study alongside the figures.
//!
//! Adding a study: push a `SweepSpec` in [`registry`] (new axis variants
//! get a `points`/`build`/`cell` arm each). The golden harness in
//! `tests/sweeps.rs` pins each registered study's quick-mode report —
//! regenerate with `CONFLUENCE_REGOLD=1 cargo test`.
//!
//! The per-point job constructors ([`history_job`], [`scaling_job`],
//! [`capacity_job`], ...) are public: the `confluence-search` subsystem
//! maps its search-space points through the same constructors, so a
//! search probe and the matching sweep point share one content key (and
//! therefore one cached simulation).

use confluence_core::AirBtbMode;
use confluence_trace::Workload;

use crate::coverage::CoverageOptions;
use crate::designs::DesignPoint;
use crate::engine::SimEngine;
use crate::experiments::ExperimentConfig;
use crate::job::{BtbSpec, CoverageJob, Job, TimingJob};
use crate::report::{f, pct, Report};

/// The designs compared at every core count by the core-scaling study:
/// the paper's lower bound, its contribution, and its upper bound.
pub const SCALING_DESIGNS: [DesignPoint; 3] = [
    DesignPoint::Baseline,
    DesignPoint::Confluence,
    DesignPoint::Ideal,
];

/// The swept parameter of a study, with its point list.
///
/// Each variant knows how to expand one `(workload, point)` pair into a
/// [`Job`] and how to read the study's metric back out of the cache; the
/// variants deliberately reuse the figure suite's configurations at
/// coinciding points so the cache collapses the overlap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepAxis {
    /// SHIFT history capacity in entries, on the baseline BTB + SHIFT
    /// coverage run. Metric: L1-I miss coverage vs the no-prefetch
    /// baseline.
    HistoryEntries(Vec<usize>),
    /// AirBTB bundle geometry `(bundles, entries_per_bundle,
    /// overflow_entries)` in Full mode with SHIFT attached. Metric: BTB
    /// miss coverage vs the 1K conventional baseline.
    BundleGeometry(Vec<(usize, usize, usize)>),
    /// CMP core count, timing-simulated for every [`SCALING_DESIGNS`]
    /// design. Metric: per-core IPC.
    Cores(Vec<usize>),
    /// Conventional-BTB capacity in entries (Figure 1's geometry at
    /// arbitrary sizes). Metric: BTB MPKI.
    BtbCapacity(Vec<usize>),
    /// L1-I capacity in kilobytes, on the baseline (no-prefetch) coverage
    /// run. Metric: L1-I demand MPKI.
    L1iSizeKb(Vec<usize>),
    /// SHIFT stream lookahead depth in blocks, on the baseline BTB +
    /// SHIFT coverage run. Metric: L1-I miss coverage vs the no-prefetch
    /// baseline.
    ShiftLookahead(Vec<usize>),
}

impl SweepAxis {
    /// Human-readable labels of the axis points, in sweep order (one
    /// report column per label).
    pub fn point_labels(&self) -> Vec<String> {
        match self {
            SweepAxis::HistoryEntries(points) => {
                points.iter().map(|&n| format!("{}", Kilo(n))).collect()
            }
            SweepAxis::BundleGeometry(points) => points
                .iter()
                .map(|&(b, e, ob)| format!("{b}x{e}+{ob}"))
                .collect(),
            SweepAxis::Cores(points) => points.iter().map(|&c| format!("{c}c")).collect(),
            SweepAxis::BtbCapacity(points) => {
                points.iter().map(|&n| format!("{}", Kilo(n))).collect()
            }
            SweepAxis::L1iSizeKb(points) => points.iter().map(|&kb| format!("{kb}KB")).collect(),
            SweepAxis::ShiftLookahead(points) => points.iter().map(|&d| format!("d{d}")).collect(),
        }
    }

    /// Number of points along the axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::HistoryEntries(p) => p.len(),
            SweepAxis::BundleGeometry(p) => p.len(),
            SweepAxis::Cores(p) => p.len(),
            SweepAxis::BtbCapacity(p) => p.len(),
            SweepAxis::L1iSizeKb(p) => p.len(),
            SweepAxis::ShiftLookahead(p) => p.len(),
        }
    }

    /// True when the axis has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-word description of the swept parameter (for `--list`).
    pub fn parameter(&self) -> &'static str {
        match self {
            SweepAxis::HistoryEntries(_) => "shift-history-entries",
            SweepAxis::BundleGeometry(_) => "airbtb-bundle-geometry",
            SweepAxis::Cores(_) => "cmp-core-count",
            SweepAxis::BtbCapacity(_) => "conventional-btb-entries",
            SweepAxis::L1iSizeKb(_) => "l1i-capacity-kb",
            SweepAxis::ShiftLookahead(_) => "shift-lookahead-blocks",
        }
    }
}

/// `1024 -> "1K"`, `512 -> "512"`, `131072 -> "128K"`.
struct Kilo(usize);

impl std::fmt::Display for Kilo {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(fm, "{}K", self.0 / 1024)
        } else {
            write!(fm, "{}", self.0)
        }
    }
}

/// A named sensitivity study: an axis × the suite's workloads × a job
/// builder, riding the shared engine cache.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Registry name (`sweeps --study <name>`).
    pub name: &'static str,
    /// Report caption.
    pub caption: &'static str,
    /// The swept parameter and its points.
    pub axis: SweepAxis,
}

/// The baseline coverage run sweeps normalize against — the exact job
/// Figures 8/9/10 and the L1-I table share.
pub fn baseline_job(workload: Workload, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Baseline1k,
        opts: cfg.coverage(),
    }
}

/// Baseline BTB + SHIFT with an explicit history capacity. At the default
/// capacity this is byte-for-byte the L1-I table's `+SHIFT` job.
pub fn history_job(workload: Workload, entries: usize, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Baseline1k,
        opts: CoverageOptions {
            history_entries: entries,
            ..cfg.coverage().with_shift()
        },
    }
}

/// Full-mode AirBTB + SHIFT at an explicit bundle geometry. At 512
/// bundles this aliases Figure 10's `(entries, overflow)` grid points.
pub fn geometry_job(
    workload: Workload,
    (bundles, bundle_entries, overflow_entries): (usize, usize, usize),
    cfg: &ExperimentConfig,
) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::AirBtb {
            mode: AirBtbMode::Full,
            bundles,
            bundle_entries,
            overflow_entries,
        },
        opts: cfg.coverage().with_shift(),
    }
}

/// A timing run of `design` at an explicit core count (the LLC mesh
/// scales uniformly with the cores — see
/// [`ExperimentConfig::timing_with_cores`]). In quick mode the 4-core
/// point is the exact job Figures 2/6/7 run, so it is always a cache
/// hit; in full mode no point coincides, because the suite's native
/// config pairs 8 cores with a 16-slice LLC while the sweep keeps
/// LLC-per-core consistent along the axis.
pub fn scaling_job(
    workload: Workload,
    design: DesignPoint,
    cores: usize,
    cfg: &ExperimentConfig,
) -> TimingJob {
    TimingJob {
        workload,
        design,
        cfg: cfg.timing_with_cores(cores),
    }
}

/// The baseline (no-prefetch) coverage run at an explicit L1-I capacity.
/// At the paper's 32 KB this *is* the shared coverage baseline — the tail
/// extension of the persisted key encodes to nothing at the default.
pub fn l1i_size_job(workload: Workload, kb: usize, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Baseline1k,
        opts: CoverageOptions {
            l1i_kb: kb,
            ..cfg.coverage()
        },
    }
}

/// Baseline BTB + SHIFT at an explicit stream lookahead depth. At the
/// default depth (24) this is byte-for-byte the L1-I table's `+SHIFT`
/// job.
pub fn lookahead_job(workload: Workload, depth: usize, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Baseline1k,
        opts: CoverageOptions {
            shift_lookahead: depth,
            ..cfg.coverage().with_shift()
        },
    }
}

/// Figure 1's conventional-BTB geometry at an arbitrary capacity. At
/// whole kilo-entry points this aliases Figure 1's sweep.
pub fn capacity_job(workload: Workload, entries: usize, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Conventional {
            entries,
            ways: 4,
            victim_entries: 64,
        },
        opts: cfg.coverage(),
    }
}

impl SweepSpec {
    /// Expands the study into content-keyed jobs for the given workloads
    /// (no engine required — usable by codec tests and planners).
    pub fn jobs_for(&self, workloads: &[Workload], cfg: &ExperimentConfig) -> Vec<Job> {
        let mut jobs = Vec::new();
        for &w in workloads {
            match &self.axis {
                SweepAxis::HistoryEntries(points) => {
                    jobs.push(baseline_job(w, cfg).into());
                    for &n in points {
                        jobs.push(history_job(w, n, cfg).into());
                    }
                }
                SweepAxis::BundleGeometry(points) => {
                    jobs.push(baseline_job(w, cfg).into());
                    for &g in points {
                        jobs.push(geometry_job(w, g, cfg).into());
                    }
                }
                SweepAxis::Cores(points) => {
                    for &c in points {
                        for d in SCALING_DESIGNS {
                            jobs.push(scaling_job(w, d, c, cfg).into());
                        }
                    }
                }
                SweepAxis::BtbCapacity(points) => {
                    for &n in points {
                        jobs.push(capacity_job(w, n, cfg).into());
                    }
                }
                SweepAxis::L1iSizeKb(points) => {
                    for &kb in points {
                        jobs.push(l1i_size_job(w, kb, cfg).into());
                    }
                }
                SweepAxis::ShiftLookahead(points) => {
                    jobs.push(baseline_job(w, cfg).into());
                    for &d in points {
                        jobs.push(lookahead_job(w, d, cfg).into());
                    }
                }
            }
        }
        jobs
    }

    /// The study's jobs over the engine's workloads.
    pub fn jobs(&self, engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
        let workloads: Vec<Workload> = engine.workloads().iter().map(|(w, _)| *w).collect();
        self.jobs_for(&workloads, cfg)
    }

    /// Formats the study from the engine cache (missing points are
    /// computed on demand, like any figure formatter).
    pub fn report(&self, engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
        engine.run(&self.jobs(engine, cfg));
        let labels = self.axis.point_labels();
        match &self.axis {
            SweepAxis::HistoryEntries(points) => {
                let mut report = self.table(&["workload"], &labels);
                for (w, _) in engine.workloads() {
                    let base = engine.coverage(&baseline_job(*w, cfg));
                    let mut cells = vec![w.name().to_string()];
                    for &n in points {
                        let r = engine.coverage(&history_job(*w, n, cfg));
                        cells.push(pct(r.l1i_miss_coverage_vs(&base)));
                    }
                    report.row(cells);
                }
                report
            }
            SweepAxis::BundleGeometry(points) => {
                let mut report = self.table(&["workload"], &labels);
                for (w, _) in engine.workloads() {
                    let base = engine.coverage(&baseline_job(*w, cfg));
                    let mut cells = vec![w.name().to_string()];
                    for &g in points {
                        let r = engine.coverage(&geometry_job(*w, g, cfg));
                        cells.push(pct(r.btb_miss_coverage_vs(&base)));
                    }
                    report.row(cells);
                }
                report
            }
            SweepAxis::Cores(points) => {
                let mut report = self.table(&["workload", "design"], &labels);
                for (w, _) in engine.workloads() {
                    for d in SCALING_DESIGNS {
                        let mut cells = vec![w.name().to_string(), d.name().to_string()];
                        for &c in points {
                            let r = engine.timing(&scaling_job(*w, d, c, cfg));
                            cells.push(f(r.ipc(), 3));
                        }
                        report.row(cells);
                    }
                }
                report
            }
            SweepAxis::BtbCapacity(points) => {
                let mut report = self.table(&["workload"], &labels);
                for (w, _) in engine.workloads() {
                    let mut cells = vec![w.name().to_string()];
                    for &n in points {
                        let r = engine.coverage(&capacity_job(*w, n, cfg));
                        cells.push(f(r.btb_mpki(), 2));
                    }
                    report.row(cells);
                }
                report
            }
            SweepAxis::L1iSizeKb(points) => {
                let mut report = self.table(&["workload"], &labels);
                for (w, _) in engine.workloads() {
                    let mut cells = vec![w.name().to_string()];
                    for &kb in points {
                        let r = engine.coverage(&l1i_size_job(*w, kb, cfg));
                        cells.push(f(r.l1i_mpki(), 2));
                    }
                    report.row(cells);
                }
                report
            }
            SweepAxis::ShiftLookahead(points) => {
                let mut report = self.table(&["workload"], &labels);
                for (w, _) in engine.workloads() {
                    let base = engine.coverage(&baseline_job(*w, cfg));
                    let mut cells = vec![w.name().to_string()];
                    for &d in points {
                        let r = engine.coverage(&lookahead_job(*w, d, cfg));
                        cells.push(pct(r.l1i_miss_coverage_vs(&base)));
                    }
                    report.row(cells);
                }
                report
            }
        }
    }

    fn table(&self, row_headers: &[&str], labels: &[String]) -> Report {
        let headers: Vec<&str> = row_headers
            .iter()
            .copied()
            .chain(labels.iter().map(String::as_str))
            .collect();
        Report::new(self.caption, &headers)
    }
}

/// Every registered study, in presentation order.
pub fn registry() -> Vec<SweepSpec> {
    vec![
        SweepSpec {
            name: "shift-history",
            caption: "Sweep: SHIFT history capacity vs L1-I miss coverage \
                      (baseline BTB + SHIFT; paper runs 32K entries at ~90%)",
            axis: SweepAxis::HistoryEntries(vec![2 * 1024, 8 * 1024, 32 * 1024, 128 * 1024]),
        },
        SweepSpec {
            name: "bundle-geometry",
            caption: "Sweep: AirBTB bundle geometry (entries/bundle x overflow) vs \
                      BTB miss coverage (Full mode + SHIFT; paper point is 512x3+32). \
                      Full-mode bundles mirror the 512-block L1-I, so the grid sweeps \
                      the binding parameters: branch entries per bundle and overflow \
                      capacity (Figure 10's four points plus a 2-entry column)",
            axis: SweepAxis::BundleGeometry(vec![
                (512, 2, 0),
                (512, 2, 32),
                (512, 3, 0),
                (512, 3, 32),
                (512, 4, 0),
                (512, 4, 32),
            ]),
        },
        SweepSpec {
            name: "core-scaling",
            caption: "Sweep: CMP core count vs per-core IPC \
                      (Baseline / Confluence / Ideal frontends share one LLC)",
            axis: SweepAxis::Cores(vec![4, 8, 16]),
        },
        SweepSpec {
            name: "btb-capacity",
            caption: "Sweep: conventional-BTB capacity vs BTB MPKI \
                      (Figure 1's geometry at half-K granularity)",
            axis: SweepAxis::BtbCapacity(vec![512, 1024, 4096, 16 * 1024, 64 * 1024]),
        },
        SweepSpec {
            name: "l1i-size",
            caption: "Sweep: L1-I capacity vs demand MPKI \
                      (baseline BTB, no prefetch; paper Table 1 runs 32 KB — \
                      the capacity wall SHIFT exists to climb over)",
            axis: SweepAxis::L1iSizeKb(vec![16, 32, 64, 128]),
        },
        SweepSpec {
            name: "shift-lookahead",
            caption: "Sweep: SHIFT stream lookahead depth vs L1-I miss coverage \
                      (baseline BTB + SHIFT; the engine's default depth is 24 blocks)",
            axis: SweepAxis::ShiftLookahead(vec![4, 8, 24, 48]),
        },
    ]
}

/// Looks up a registered study by name.
pub fn find(name: &str) -> Option<SweepSpec> {
    registry().into_iter().find(|s| s.name == name)
}

/// Every study's jobs in one batch (what `confluence all` appends to the
/// figure suite).
pub fn all_sweep_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    registry()
        .iter()
        .flat_map(|s| s.jobs(engine, cfg))
        .collect()
}

/// Every study's report, in registry order.
pub fn sweep_reports(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Report> {
    registry().iter().map(|s| s.report(engine, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::unique_jobs;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let studies = registry();
        assert!(studies.len() >= 3, "at least three studies must register");
        let mut names: Vec<&str> = studies.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), studies.len(), "study names must be unique");
        for s in &studies {
            assert!(!s.axis.is_empty(), "{}: axis has no points", s.name);
            assert_eq!(find(s.name).map(|f| f.name), Some(s.name));
        }
        assert!(find("no-such-study").is_none());
    }

    #[test]
    fn studies_overlap_each_other_and_the_figure_suite() {
        let cfg = ExperimentConfig::quick();
        let workloads = [Workload::OltpDb2, Workload::WebFrontend];
        let sweep_jobs: Vec<Job> = registry()
            .iter()
            .flat_map(|s| s.jobs_for(&workloads, &cfg))
            .collect();
        assert!(
            unique_jobs(&sweep_jobs) < sweep_jobs.len(),
            "studies must share points (the coverage baseline at least)"
        );
        // The native-capacity history point is the L1-I table's job, and
        // the native core count is the timing figures' exact config.
        let native_history: Job = history_job(
            Workload::OltpDb2,
            confluence_prefetch::DEFAULT_HISTORY_ENTRIES,
            &cfg,
        )
        .into();
        assert!(sweep_jobs.contains(&native_history));
        let native_timing: Job = TimingJob {
            workload: Workload::OltpDb2,
            design: DesignPoint::Baseline,
            cfg: cfg.timing(),
        }
        .into();
        assert!(
            sweep_jobs.contains(&native_timing),
            "core-scaling must reuse the suite's native timing config"
        );
    }

    #[test]
    fn point_labels_match_axis_arity() {
        for s in registry() {
            let labels = s.axis.point_labels();
            assert_eq!(labels.len(), s.axis.len(), "{}", s.name);
            let mut sorted = labels.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), labels.len(), "{}: duplicate labels", s.name);
        }
    }

    #[test]
    fn kilo_labels_render() {
        assert_eq!(format!("{}", Kilo(512)), "512");
        assert_eq!(format!("{}", Kilo(1024)), "1K");
        assert_eq!(format!("{}", Kilo(128 * 1024)), "128K");
        assert_eq!(format!("{}", Kilo(1536)), "1536");
    }
}
