//! Metric names and units, the result line the driver reads, and the
//! statistics of `--repeat`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::http::Json;
use crate::measure::quartiles;

/// What a user of the system sees; gated by the bounds in `BENCHMARK.json`.
/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Single layers, and the end-to-end numbers this box cannot hold steady
/// enough to gate. Printed by a traced run (`--trace 1`); 0 where a
/// workload bypasses the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
    ("write_latency_p50_us", "us"),
    ("write_latency_p99_us", "us"),
    ("writer_lateness_p99_us", "us"),
    ("gremlin.parse_us", "us"),
    ("core.plan_us", "us"),
    ("reldb.direct_sql_us", "us"),
    ("core.exec_self_us", "us"),
    ("core.overlay_overhead_ratio", "ratio"),
    ("core.sql_statements_per_op", "count"),
    ("core.rows_returned_per_op", "count"),
    ("core.template_hit_ratio", "ratio"),
    ("core.tables_pruned_share", "ratio"),
    ("adjcache.hit_ratio", "ratio"),
    ("adjcache.evictions", "count"),
    ("adjcache.invalidations", "count"),
    ("adjcache.bytes", "bytes"),
    ("server.encode_us", "us"),
    ("server.wire_self_us", "us"),
    ("server.shed", "count"),
    ("server.keepalive_reuses", "count"),
    ("server.query_timeouts", "count"),
    ("reldb.commit_us", "us"),
    ("reldb.wal_bytes_per_commit", "bytes"),
    ("reldb.wal_fsyncs", "count"),
    ("reldb.checkpoints", "count"),
    ("reldb.vacuum_runs", "count"),
    ("trace.run_mean_us", "us"),
    ("trace.overhead_us", "us"),
];

/// One workload's result.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// In the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every measured digit kept.
pub fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (name, unit) in names {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1;
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if metrics.is_empty() { "" } else { ", " },
            number(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// Metric values out of a result line.
pub fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let json = Json::parse(line.as_bytes())?;
    let correct = matches!(json.get("correct")?, Json::Bool(true));
    let Json::Obj(fields) = json.get("metrics")? else {
        return None;
    };
    let mut out = BTreeMap::new();
    for (name, m) in fields {
        out.insert(name.clone(), m.get("value")?.as_f64()?);
    }
    Some((correct, out))
}

/// Regression bounds of the end-to-end metrics, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Option<BTreeMap<String, f64>> {
    let json = Json::parse(benchmark_json.as_bytes())?;
    let mut out = BTreeMap::new();
    for m in json.get("end_to_end")?.as_array()? {
        out.insert(
            m.get("name")?.as_str()?.to_string(),
            m.get("bound")?.as_f64()?,
        );
    }
    Some(out)
}

/// Median, quartiles and relative spread of one (metric, workload) pair
/// over repeated sets. The spread is the interquartile distance over the
/// median — with fewer than four sets, the full range over the median.
pub struct Spread {
    pub quartiles: [f64; 3],
    pub relative: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    let q = quartiles(values);
    let distance = if values.len() >= 4 {
        q[2] - q[0]
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    Spread {
        quartiles: q,
        relative: if q[1] == 0.0 {
            0.0
        } else {
            distance / q[1].abs()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names(section: &str) -> Vec<(String, String)> {
        let json = Json::parse(BENCHMARK_JSON.as_bytes()).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().into(),
                    m.get("unit").unwrap().as_str().unwrap().into(),
                )
            })
            .collect()
    }

    /// The output keys are a contract with `BENCHMARK.json` and with every
    /// later run that is compared against this one.
    #[test]
    fn output_keys_match_benchmark_json() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let json = Json::parse(BENCHMARK_JSON.as_bytes()).unwrap();
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let own: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS),
            "the default --seconds is BENCHMARK.json's run_seconds"
        );
        let bounds = bounds(BENCHMARK_JSON).unwrap();
        assert!(bounds.values().all(|b| *b > 0.0 && *b <= 0.25));
        assert_eq!(bounds.len(), END_TO_END.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (*n, 1.5 + i as f64))
                .collect(),
        };
        let line = result_line(&outcome, END_TO_END);
        let Some(Json::Obj(fields)) = Json::parse(line.as_bytes()) else {
            panic!("{line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let (correct, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"], 1.5);
        assert!(
            line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{line}"
        );
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.quartiles, [2.75, 5.5, 8.25]);
        assert_eq!(s.relative, 1.0);
        assert_eq!(spread(&[10.0, 11.0]).relative, 1.0 / 10.5);
    }
}
