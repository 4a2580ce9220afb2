//! The one schema every result goes through: a workload's result line, the
//! report file `run --out` writes, and what `compare` reads back.

use crate::json::Json;
use crate::stats::Summary;
use crate::workload::Outcome;

pub const SCHEMA: &str = "vxbench/1";

/// An end-to-end metric: what a user of the system pays. All are
/// lower-is-better; `bound` is the share of the earlier median by which the
/// later one may be worse before it counts as a regression. BENCHMARK.json
/// carries the same numbers.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "run_s", unit: "s", bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", bound: 0.20 },
];

/// One workload's results: the timed invocation's end-to-end metrics, the
/// traced invocation's per-layer metrics, and the attempts of both.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub context: Vec<(String, f64)>,
    pub end_to_end: Vec<(String, Summary)>,
    pub per_layer: Vec<(String, Summary)>,
}

impl WorkloadReport {
    pub fn new(workload: &str) -> WorkloadReport {
        WorkloadReport {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            context: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    /// One invocation's report: a traced one fills `per_layer`, a timed one
    /// `end_to_end`.
    pub fn of(workload: &str, outcome: Outcome, traced: bool) -> WorkloadReport {
        let mut report = WorkloadReport {
            attempted: outcome.attempted,
            failed: outcome.failed,
            context: outcome.context.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..WorkloadReport::new(workload)
        };
        if traced {
            report.per_layer = outcome.metrics;
        } else {
            report.end_to_end = outcome.metrics;
        }
        report
    }

    /// Folds in the report another invocation of the same workload printed.
    pub fn merge(&mut self, other: WorkloadReport) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.context = other.context;
        if !other.end_to_end.is_empty() {
            self.end_to_end = other.end_to_end;
        }
        if !other.per_layer.is_empty() {
            self.per_layer = other.per_layer;
        }
    }

    /// An invocation that produced no result at all: one attempt, failed.
    pub fn count_crash(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Runs that returned an error, panicked or failed a check, over runs
    /// attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.end_to_end.iter().chain(&self.per_layer).find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn to_json(&self) -> Json {
        let summaries = |list: &[(String, Summary)]| {
            Json::obj(list.iter().map(|(name, s)| (name.as_str(), s.to_json())))
        };
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            ("context", Json::obj(self.context.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))))),
            ("end_to_end", summaries(&self.end_to_end)),
            ("per_layer", summaries(&self.per_layer)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<WorkloadReport, String> {
        let count = |key: &str| {
            v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("workload lacks '{key}'"))
        };
        let summaries = |key: &str| -> Result<Vec<(String, Summary)>, String> {
            v.get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("workload lacks '{key}'"))?
                .iter()
                .map(|(name, s)| Ok((name.clone(), Summary::from_json(s)?)))
                .collect()
        };
        Ok(WorkloadReport {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("workload lacks 'workload'")?
                .to_string(),
            attempted: count("attempted")? as u64,
            failed: count("failed")? as u64,
            context: v
                .get("context")
                .and_then(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            end_to_end: summaries("end_to_end")?,
            per_layer: summaries("per_layer")?,
        })
    }
}

/// A whole report: host disclosure plus one entry per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub host: Json,
    pub workloads: Vec<WorkloadReport>,
}

impl Report {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("host", self.host.clone()),
            ("workloads", Json::Arr(self.workloads.iter().map(WorkloadReport::to_json).collect())),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Report, String> {
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("schema is {other:?}, expected {SCHEMA:?}")),
        }
        Ok(Report {
            host: v.get("host").cloned().unwrap_or(Json::Null),
            workloads: v
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("report lacks 'workloads'")?
                .iter()
                .map(WorkloadReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The result line the pipeline reads: the last line of standard output.
pub fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(name, s)| {
                let metric =
                    Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(&s.unit))]);
                (name.as_str(), metric)
            })),
        ),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut w = WorkloadReport::of(
            "vc.pagerank.lj",
            Outcome {
                attempted: 9,
                failed: 0,
                metrics: vec![
                    ("run_s".into(), Summary::of(&[1.0, 1.02, 0.99, 1.01, 1.0], "s").unwrap()),
                    ("setup_s".into(), Summary::of(&[0.1, 0.11, 0.12], "s").unwrap()),
                    ("peak_rss_mb".into(), Summary::single(64.25, "MB")),
                ],
                context: vec![("edges", 68994.0)],
            },
            false,
        );
        w.merge(WorkloadReport::of(
            "vc.pagerank.lj",
            Outcome {
                attempted: 5,
                failed: 1,
                metrics: vec![("messages".into(), Summary::single(689_940.0, "count"))],
                context: vec![("edges", 68994.0)],
            },
            true,
        ));
        Report {
            host: Json::obj([("nproc", Json::Num(2.0)), ("rustc", Json::str("rustc 1.95"))]),
            workloads: vec![w],
        }
    }

    #[test]
    fn report_round_trips_through_text() {
        let report = sample_report();
        let text = report.to_json().encode();
        assert_eq!(Report::from_json(&Json::parse(&text).unwrap()).unwrap(), report);
        let w = &report.workloads[0];
        assert_eq!((w.attempted, w.failed), (14, 1));
        assert_eq!(w.failed_share(), 1.0 / 14.0);
        assert_eq!(w.metric("messages").unwrap().median, 689_940.0);
        assert_eq!(w.metric("run_s").unwrap().n, 5);
        assert!(w.metric("nope").is_none());
    }

    #[test]
    fn merging_keeps_each_invocations_metrics_and_adds_attempts() {
        let whole = sample_report().workloads.remove(0);
        let timed = WorkloadReport { attempted: 9, failed: 0, per_layer: vec![], ..whole.clone() };
        let traced =
            WorkloadReport { attempted: 5, failed: 1, end_to_end: vec![], ..whole.clone() };
        let mut merged = WorkloadReport::new("vc.pagerank.lj");
        merged.merge(timed);
        merged.merge(traced);
        assert_eq!(merged, whole);
    }

    #[test]
    fn other_schemas_and_broken_files_are_rejected() {
        assert!(Report::from_json(&Json::parse(r#"{"schema": "vxbench/0"}"#).unwrap()).is_err());
        assert!(Report::from_json(&Json::parse(r#"{"schema": "vxbench/1"}"#).unwrap()).is_err());
        let no_metrics = r#"{"schema": "vxbench/1", "workloads": [{"workload": "w"}]}"#;
        assert!(Report::from_json(&Json::parse(no_metrics).unwrap()).is_err());
    }

    #[test]
    fn crash_counts_as_one_failed_attempt() {
        let mut w = WorkloadReport::new("w");
        assert_eq!(w.failed_share(), 1.0, "nothing attempted is not a pass");
        w.count_crash();
        assert_eq!((w.attempted, w.failed, w.failed_share()), (1, 1, 1.0));
    }

    #[test]
    fn result_line_has_exactly_the_pipeline_keys() {
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![("run_s".into(), Summary::of(&[1.25, 1.5, 1.75], "s").unwrap())],
            context: vec![],
        };
        let v = Json::parse(&result_line(&outcome)).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let run_s = v.get("metrics").and_then(|m| m.get("run_s")).unwrap();
        assert_eq!(run_s.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(run_s.get("unit").and_then(Json::as_str), Some("s"));
    }
}
