//! `vxbench compare <a.json> <b.json>`: holds report `b` against report `a`
//! with the benchmark's own bounds — the A/A tool for a new baseline and the
//! before/after tool for every later change.

use std::fmt;

use crate::report::{Report, WorkloadReport, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// The metric's own run-to-run spread is wider than its bound, so the
    /// two medians cannot be told apart at that resolution.
    Unresolved,
    /// The later report lacks the workload or the metric.
    Missing,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        })
    }
}

/// Verdict on a lower-is-better metric: `b` against `a` under `bound`.
///
/// The spread is each report's own distance between quartiles as a share of
/// its median — the measure the pipeline's steadiness check uses. Where
/// either is wider than the bound the verdict is `Unresolved`, never `Ok`.
pub fn judge(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if b.median > a.median * (1.0 + bound) {
        Verdict::Regressed
    } else if b.median < a.median * (1.0 - bound) {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// One (end-to-end metric × workload) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// The base every ratio is given against: report `a`'s median.
    pub base: f64,
    pub value: Option<f64>,
    pub bound: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

impl Row {
    /// Whether this row alone makes `compare` exit non-zero.
    pub fn fails(&self) -> bool {
        matches!(self.verdict, Verdict::Regressed | Verdict::Missing)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<28} {:<13} ", self.workload, self.metric)?;
        match self.value {
            Some(v) => {
                let ratio = if self.base == 0.0 { 1.0 } else { v / self.base };
                write!(
                    f,
                    "{:>12.6} -> {:>12.6} {:<3} x{:.4} of base {:.6}  spread {:>5.1}%  bound {:>4.1}%  ",
                    self.base,
                    v,
                    self.unit,
                    ratio,
                    self.base,
                    self.spread * 100.0,
                    self.bound * 100.0,
                )?;
            }
            None => write!(f, "{:>12.6} -> {:>12} {:<3} ", self.base, "-", self.unit)?,
        }
        write!(f, "{}", self.verdict)
    }
}

fn workload_rows(a: &WorkloadReport, b: Option<&WorkloadReport>) -> Vec<Row> {
    let mut rows = Vec::new();
    for m in &END_TO_END {
        let Some(base) = a.metric(m.name) else { continue };
        let later = b.and_then(|b| b.metric(m.name));
        rows.push(Row {
            workload: a.workload.clone(),
            metric: m.name.to_string(),
            unit: m.unit.to_string(),
            base: base.median,
            value: later.map(|s| s.median),
            bound: m.bound,
            spread: later.map_or(base.spread(), |s| s.spread().max(base.spread())),
            verdict: later.map_or(Verdict::Missing, |s| judge(base, s, m.bound)),
        });
    }
    // Failures have no bound: any increase is a regression.
    let base = a.failed_share();
    let later = b.map(WorkloadReport::failed_share);
    rows.push(Row {
        workload: a.workload.clone(),
        metric: "failed_share".to_string(),
        unit: "".to_string(),
        base,
        value: later,
        bound: 0.0,
        spread: 0.0,
        verdict: match later {
            None => Verdict::Missing,
            Some(v) if v > base => Verdict::Regressed,
            Some(v) if v < base => Verdict::Improved,
            Some(_) => Verdict::Ok,
        },
    });
    rows
}

/// One row per (end-to-end metric × workload) of report `a`.
pub fn compare(a: &Report, b: &Report) -> Vec<Row> {
    a.workloads
        .iter()
        .flat_map(|wa| workload_rows(wa, b.workloads.iter().find(|wb| wb.workload == wa.workload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn steady(median: f64) -> Summary {
        // Quartiles three percent apart.
        Summary::of(&[0.98, 0.99, 1.0, 1.01, 1.02].map(|x| x * median), "s").unwrap()
    }

    #[test]
    fn inside_bound_is_ok() {
        assert_eq!(judge(&steady(1.0), &steady(1.09), 0.10), Verdict::Ok);
        assert_eq!(judge(&steady(1.0), &steady(0.91), 0.10), Verdict::Ok);
        assert_eq!(judge(&steady(1.0), &steady(1.0), 0.10), Verdict::Ok);
    }

    #[test]
    fn outside_bound_is_regressed_or_improved() {
        assert_eq!(judge(&steady(1.0), &steady(1.11), 0.10), Verdict::Regressed);
        assert_eq!(judge(&steady(1.0), &steady(0.89), 0.10), Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_whatever_the_medians() {
        let noisy = Summary::of(&[0.8, 0.9, 1.0, 1.1, 1.2], "s").unwrap();
        assert!(noisy.spread() > 0.10);
        assert_eq!(judge(&noisy, &steady(1.0), 0.10), Verdict::Unresolved);
        assert_eq!(judge(&steady(1.0), &noisy, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&steady(1.0), &noisy, 0.50), Verdict::Ok);
        let slow_and_noisy = Summary::of(&[1.6, 1.8, 2.0, 2.2, 2.4], "s").unwrap();
        assert_eq!(judge(&steady(1.0), &slow_and_noisy, 0.10), Verdict::Unresolved);
    }

    fn report(run_s: f64, rss: f64, attempted: u64, failed: u64) -> Report {
        Report {
            host: Json::Null,
            workloads: vec![WorkloadReport {
                workload: "vc.sssp.lj".into(),
                attempted,
                failed,
                context: vec![],
                end_to_end: vec![
                    ("run_s".into(), steady(run_s)),
                    ("setup_s".into(), steady(0.2)),
                    ("peak_rss_mb".into(), Summary::single(rss, "MB")),
                ],
                per_layer: vec![],
            }],
        }
    }

    fn verdicts(rows: &[Row]) -> Vec<(&str, Verdict)> {
        rows.iter().map(|r| (r.metric.as_str(), r.verdict)).collect()
    }

    #[test]
    fn one_row_per_metric_and_workload_with_its_base() {
        let rows = compare(&report(1.0, 100.0, 10, 0), &report(1.2, 75.0, 10, 0));
        assert_eq!(
            verdicts(&rows),
            [
                ("run_s", Verdict::Regressed),
                ("setup_s", Verdict::Ok),
                ("peak_rss_mb", Verdict::Improved),
                ("failed_share", Verdict::Ok),
            ]
        );
        assert_eq!((rows[0].base, rows[0].value), (1.0, Some(1.2)));
        assert!(rows[0].fails() && !rows[1].fails() && !rows[2].fails());
        let line = rows[0].to_string();
        assert!(line.contains("x1.2000 of base 1.000000") && line.ends_with("regressed"), "{line}");
    }

    #[test]
    fn any_failed_share_increase_regresses() {
        let rows = compare(&report(1.0, 100.0, 10, 0), &report(1.0, 100.0, 100, 1));
        assert_eq!(rows[3].verdict, Verdict::Regressed);
        let rows = compare(&report(1.0, 100.0, 10, 1), &report(1.0, 100.0, 10, 0));
        assert_eq!(rows[3].verdict, Verdict::Improved);
    }

    #[test]
    fn a_workload_missing_from_the_later_report_fails() {
        let empty = Report { host: Json::Null, workloads: vec![] };
        let rows = compare(&report(1.0, 100.0, 10, 0), &empty);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Missing && r.fails()));
        assert!(rows[0].to_string().ends_with("missing"));
        assert!(compare(&empty, &report(1.0, 100.0, 10, 0)).is_empty());
    }
}
