//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names; a test checks they agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("vcycles_per_op", "count"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
    ("code_nodes", "count"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bytecode.parse_us", "us"),
    ("bytecode.verify_us", "us"),
    ("vm.new_us", "us"),
    ("interp.call_us", "us"),
    ("interp.share", "frac"),
    ("interp.steps_per_op", "count"),
    ("interp.ns_per_vcycle", "ns"),
    ("compiler.compile_us", "us"),
    ("compiler.build_us", "us"),
    ("compiler.canon_us", "us"),
    ("compiler.schedule_us", "us"),
    ("compiler.lower_us", "us"),
    ("compiler.compiles_per_op", "count"),
    ("compiler.bailouts_per_op", "count"),
    ("core.ea_us", "us"),
    ("core.virtualized_per_compile", "count"),
    ("core.materialized_per_compile", "count"),
    ("core.allocs_removed_pct", "%"),
    ("core.vcycles_saved_pct", "%"),
    ("core.wall_saved_pct", "%"),
    ("linear.call_us", "us"),
    ("linear.share", "frac"),
    ("linear.ns_per_vcycle", "ns"),
    ("runtime.alloc_ns", "ns"),
    ("runtime.heap_cells", "count"),
    ("runtime.tlab_grant_us", "us"),
    ("runtime.tlab_chunks_per_op", "count"),
    ("vm.deopts_per_op", "count"),
    ("vm.remat_per_op", "count"),
    ("vm.spawn_us", "us"),
    ("vm.retire_us", "us"),
    ("vm.store_read_fast", "count"),
    ("vm.store_read_refresh", "count"),
    ("vm.store_read_stale", "count"),
    ("vm.store_read_blocked", "count"),
    ("vm.store_publishes_per_op", "count"),
    ("vm.store_hit_frac", "frac"),
    ("offpath.graph_exec_fallback", "count"),
    ("offpath.summary_misses", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.harness_us", "us"),
    ("fail_frac", "frac"),
    ("monitor_ops_per_op", "count"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed (count mismatches, blocked store reads, span
    /// accounting); any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Lines printed before the result line (tables).
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: every metric of the catalogue for this mode, in
    /// catalogue order.
    ///
    /// # Panics
    ///
    /// Panics if a workload left a metric unset or set one outside the
    /// catalogue: a bug in this program.
    pub fn json(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let extra: Vec<_> = self
            .values
            .keys()
            .filter(|k| !catalogue.iter().any(|(n, _)| n == *k))
            .collect();
        assert!(extra.is_empty(), "metrics outside the catalogue: {extra:?}");
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (k, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is {value}");
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_lists_the_catalogue() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.failed = 1;
        assert!(r.json(false).starts_with("{\"correct\": false"));
    }
}
