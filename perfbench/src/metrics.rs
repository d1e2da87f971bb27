//! The metric catalogue: every name the benchmark reports, with its unit,
//! in output order. `BENCHMARK.json` lists the same names (a test below
//! holds the two together).

use std::collections::BTreeMap;

use confluence_sim::DesignPoint;

use crate::json::Metric;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("cpu_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MB"),
];

/// BTB classes the counting wrapper reports.
pub const BTB_CLASSES: [&str; 3] = ["conventional", "airbtb", "phantom"];

/// Coverage-harness job classes.
pub const COVERAGE_CLASSES: [&str; 7] = [
    "baseline",
    "conventional",
    "airbtb",
    "airbtb_shift",
    "phantom",
    "shift",
    "density",
];

/// Core counts the suite's timing jobs run at.
pub const CORE_COUNTS: [usize; 3] = [4, 8, 16];

/// The three warm-fleet operations.
pub const FLEET_OPS: [&str; 3] = ["warm_render", "daemon_batch", "peer_fetch"];

/// Metric-name form of a design point.
pub fn design_name(d: DesignPoint) -> String {
    format!("{d:?}")
}

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for (n, u) in [
        ("trace.generate_s", "s"),
        ("trace.compile_s", "s"),
        ("trace.stream_s", "s"),
        ("trace.stream_mrec_per_s", "Mrec/s"),
        ("trace.memo_replay_hits", "count"),
        ("trace.memo_recorded", "count"),
        ("trace.memo_live", "count"),
    ] {
        add(n.to_string(), u);
    }
    for class in BTB_CLASSES {
        for op in ["lookups", "updates", "fills", "evicts"] {
            add(format!("btb.{class}.{op}"), "count");
        }
        add(format!("btb.{class}.self_s"), "s");
    }
    for n in ["l1i_accesses", "l1i_misses", "prefetch_fills", "btb_misses"] {
        add(format!("coverage.{n}"), "count");
    }
    add("coverage.residual_s".to_string(), "s");
    for class in COVERAGE_CLASSES {
        add(format!("coverage.job_s.{class}"), "s");
    }
    for d in DesignPoint::ALL {
        add(format!("timing.job_s.{}", design_name(d)), "s");
    }
    for c in CORE_COUNTS {
        add(format!("timing.job_s.cores{c}"), "s");
    }
    add("timing.total_cycles".to_string(), "count");
    add("timing.kcycles_per_s".to_string(), "kcycles/s");
    for n in [
        "btb_misses",
        "l1i_misses",
        "misfetches",
        "mispredicts",
        "l2_bubble_cycles",
    ] {
        add(format!("timing.{n}"), "count");
    }
    add("timing.shard_speedup".to_string(), "x");
    for (n, u) in [
        ("engine.requests", "count"),
        ("engine.executed", "count"),
        ("engine.hits", "count"),
        ("engine.disk_hits", "count"),
        ("engine.parallel_efficiency", "ratio"),
        ("engine.critical_path_s", "s"),
        ("store.entries", "count"),
        ("store.bytes", "B"),
        ("store.artifact_bytes", "B"),
        ("store.persist_artifacts_s", "s"),
        ("store.load_verify_us", "us"),
        ("store.adopt_us", "us"),
        ("serve.submit_ms", "ms"),
        ("serve.empty_rtt_us", "us"),
        ("serve.reply_bytes", "B"),
        ("peers.fetch_ms", "ms"),
        ("peers.hits", "count"),
        ("peers.bytes", "B"),
        ("peers.round_trips", "count"),
        ("report.render_ms", "ms"),
    ] {
        add(n.to_string(), u);
    }
    for op in FLEET_OPS {
        add(format!("fleet.{op}_ms"), "ms");
        add(format!("fleet.{op}_ms_p90"), "ms");
        add(format!("fleet.{op}_samples"), "count");
    }
    add("trace.overhead_share".to_string(), "ratio");
    add("trace.accounted_share".to_string(), "ratio");
    v
}

/// Per-layer values of one traced run. Layers a workload does not
/// exercise keep the value 0.
pub struct LayerSheet {
    values: BTreeMap<String, f64>,
}

impl Default for LayerSheet {
    fn default() -> Self {
        LayerSheet::new()
    }
}

impl LayerSheet {
    /// A sheet with every per-layer metric at 0.
    pub fn new() -> LayerSheet {
        LayerSheet {
            values: per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets `name`, which must be a catalogued per-layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"));
        *slot = value;
    }

    /// Adds `value` to `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        let v = self.get(name);
        self.set(name, v + value);
    }

    /// Current value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"))
    }

    /// The sheet as metrics, in catalogue order.
    pub fn metrics(&self) -> Vec<Metric> {
        per_layer()
            .into_iter()
            .map(|(n, u)| Metric::new(n.clone(), self.get(&n), u))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_metric_name;

    /// Metric entries of one `BENCHMARK.json` list, as `(name, unit)`.
    fn listed(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("list present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &entry[at + f.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        assert!(per_layer().len() <= 128);
        for (i, n) in all.iter().enumerate() {
            assert!(valid_metric_name(n), "{n}");
            assert!(!all[..i].contains(n), "duplicate {n}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
    }

    #[test]
    fn sheet_starts_at_zero_and_rejects_unknown_names() {
        let mut s = LayerSheet::new();
        assert_eq!(s.get("store.entries"), 0.0);
        s.add("store.entries", 2.0);
        s.add("store.entries", 3.0);
        assert_eq!(s.get("store.entries"), 5.0);
        assert_eq!(s.metrics().len(), per_layer().len());
        let r = std::panic::catch_unwind(move || s.set("no.such", 1.0));
        assert!(r.is_err());
    }
}
