//! The benchmark's metric names and units, and the result line.
//!
//! Every run reports every metric of its mode — the end-to-end list with
//! `--trace 0`, the per-layer list with `--trace 1` — so each workload is
//! measured on the same axes. `BENCHMARK.json` lists the same names.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("debug_p50_ms", "ms"),
    ("debug_p90_ms", "ms"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p99_ms", "ms"),
    ("cmd_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Protocol command classes whose handler time is reported per class.
pub const COMMAND_CLASSES: &[&str] = &[
    "run_query",
    "plot",
    "zoom",
    "brush_outputs",
    "metric_choices",
    "set_metric",
    "debug",
    "click_predicate",
    "undo",
    "state",
    "stream_append",
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`. The
/// `server.handle_us.<class>` family is appended from [`COMMAND_CLASSES`]
/// by [`per_layer`].
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("server.parse_us", "us"),
    ("server.encode_us", "us"),
    ("server.reply_bytes", "bytes"),
    ("server.transport_us", "us"),
    ("server.append_wait_ms", "ms"),
    ("core.preprocess_ms", "ms"),
    ("core.dataset_enum_ms", "ms"),
    ("core.predicate_enum_ms", "ms"),
    ("core.rank_ms", "ms"),
    ("core.pipeline_ms", "ms"),
    ("core.stage_coverage", "ratio"),
    ("core.f_rows", "count"),
    ("core.candidates", "count"),
    ("core.predicates", "count"),
    ("core.useful_predicate_frac", "ratio"),
    ("learn.feature_space_ms", "ms"),
    ("learn.extract_ms", "ms"),
    ("learn.tree_train_ms", "ms"),
    ("engine.parse_us", "us"),
    ("engine.execute_ms", "ms"),
    ("engine.cache_build_ms", "ms"),
    ("engine.absorb_us", "us"),
    ("provenance.lineage_ms", "ms"),
    ("storage.push_rows_us", "us"),
    ("storage.encode_ms", "ms"),
    ("storage.save_ms", "ms"),
    ("storage.bytes_per_appended_row", "bytes"),
    ("registry.memo_hit_rate", "ratio"),
    ("registry.agg_hit_rate", "ratio"),
    ("registry.append_absorbs", "count"),
    ("storage.condition_bitmap_hit_rate", "ratio"),
    ("pool.rejected", "count"),
    ("bench.gen_lag_p99_ms", "ms"),
];

/// Every per-layer metric, as `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER_FIXED.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    all.extend(COMMAND_CLASSES.iter().map(|c| (handle_metric(c), "us")));
    all
}

/// The name of the per-class handler-time metric for `class`.
pub fn handle_metric(class: &str) -> String {
    format!("server.handle_us.{class}")
}

/// Every end-to-end metric, as `(name, unit)`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
}

/// The measured values of one run, checked against a metric list.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The result line: exactly the metrics of `list`, each measured and
    /// finite, or an error naming what is missing.
    pub fn render(
        &self,
        list: &[(String, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut fields = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let value =
                self.values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#));
        }
        if let Some(extra) = self.values.keys().find(|k| !list.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in this mode's list"));
        }
        Ok(format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_server::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, section: &str) -> Vec<(String, String)> {
        json.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"))
            .iter()
            .map(|m| {
                let field =
                    |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&name), "bad metric name {name}");
            assert!(seen.insert(name.clone()), "metric {name} is listed twice");
        }
    }

    #[test]
    fn every_metric_appears_in_benchmark_json_with_its_unit() {
        let json = benchmark_json();
        for (section, ours) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let theirs = listed(&json, section);
            let ours: Vec<(String, String)> =
                ours.into_iter().map(|(n, u)| (n, u.to_string())).collect();
            assert_eq!(ours, theirs, "{section} differs between metrics.rs and BENCHMARK.json");
        }
    }

    #[test]
    fn benchmark_json_lists_the_steady_workloads() {
        let json = benchmark_json();
        let names: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads array")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap_or_default().to_string())
            .collect();
        // ingest_live runs by hand only: its figures drift with the host
        // (see README.md).
        assert_eq!(names, ["explain_cold", "session_chatter"]);
        for name in &names {
            assert!(crate::gen::Workload::from_name(name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn render_refuses_missing_and_extra_metrics() {
        let list = vec![("a_ms".to_string(), "ms")];
        let mut report = Report::default();
        assert!(report.render(&list, true, 1, 0).is_err());
        report.set("a_ms", 1.25);
        let line = report.render(&list, true, 3, 0).unwrap();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(3));
        report.set("b_ms", 2.0);
        assert!(report.render(&list, true, 1, 0).is_err());
    }
}
