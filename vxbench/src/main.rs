//! `vxbench` — the repository's one benchmark.
//!
//! Six workloads, three bounded end-to-end metrics (`run_s`, `setup_s`,
//! `peak_rss_mb`) plus `failed_share`, and per-layer accounting recorded from
//! outside the engine. See the README beside this package for the tables.
//!
//! ```text
//! vxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! vxbench run (--all | --workload <name>) [--seed n] [--seconds s]
//!             [--out report.json] [--trace-out spans.jsonl] [--smoke]
//! vxbench compare <a.json> <b.json>
//! vxbench list
//! ```

mod adapter;
mod compare;
mod host;
mod json;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::{Report, WorkloadReport};
use workload::{Params, Spec, WORKLOADS};

const DEFAULT_SEED: u64 = 42;
/// BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

fn main() -> ExitCode {
    // Before any thread exists: ambient engine settings must not leak in.
    host::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Args::parse(&args[1..]).and_then(|a| run(&a)),
        Some("compare") => compare_files(&args[1..]),
        Some("list") => {
            for w in &WORKLOADS {
                println!("{:<28} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => Args::parse(&args).and_then(|a| one(&a)),
        _ => Err(format!("usage:\n{USAGE}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("vxbench: {e}");
        ExitCode::FAILURE
    })
}

const USAGE: &str = "  vxbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
  vxbench run (--all | --workload <name>) [--seed <n>] [--seconds <s>] [--out <report.json>] [--trace-out <spans.jsonl>] [--smoke]
  vxbench compare <a.json> <b.json>
  vxbench list";

/// The flags shared by the single-workload form and `run`.
struct Args {
    all: bool,
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            all: false,
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            out: None,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--all" => parsed.all = true,
                "--smoke" => parsed.smoke = true,
                "--workload" => {
                    let name = value()?;
                    let spec = workload::find(name)
                        .ok_or_else(|| format!("unknown workload '{name}'; see `vxbench list`"))?;
                    parsed.workload = Some(spec);
                }
                "--seed" => {
                    parsed.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
                }
                "--seconds" => {
                    let secs: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(0.0..=600.0).contains(&secs) {
                        return Err("--seconds must be between 0 and 600".into());
                    }
                    parsed.seconds = secs;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag '{other}'\nusage:\n{USAGE}")),
            }
        }
        Ok(parsed)
    }

    fn params(&self, trace: bool) -> Params {
        Params {
            seed: self.seed,
            seconds: self.seconds,
            trace,
            trace_out: if trace { self.trace_out.clone() } else { None },
            smoke: self.smoke,
        }
    }
}

/// One workload in this process: a readable summary on stderr, then on stdout
/// the workload's report and, last, the pipeline's result line.
fn one(args: &Args) -> Result<ExitCode, String> {
    let spec = args.workload.ok_or("--workload is required")?;
    let outcome = workload::measure(spec, &args.params(args.trace))?;
    let line = report::result_line(&outcome);
    let report = WorkloadReport::of(spec.name, outcome, args.trace);
    print_workload(&report);
    println!("{}", report.to_json().encode());
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Every metric of one workload by name and unit, on stderr.
fn print_workload(w: &WorkloadReport) {
    let context: Vec<String> = w.context.iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!("{}  [{}]", w.workload, context.join(" "));
    eprintln!(
        "  attempted {}  failed {}  failed_share {}",
        w.attempted,
        w.failed,
        w.failed_share()
    );
    for (name, s) in w.end_to_end.iter().chain(&w.per_layer) {
        if s.n > 1 {
            eprintln!(
                "  {name:<22} {:>16.6} {:<6} min {:.6} max {:.6} n {}",
                s.median, s.unit, s.min, s.max, s.n
            );
        } else {
            eprintln!("  {name:<22} {:>16.6} {}", s.median, s.unit);
        }
    }
}

/// `run`: each selected workload twice — tracing off for the end-to-end
/// metrics, then the traced run — each in a child process of its own, so
/// peak memory is per workload and allocator state does not carry over.
/// `--smoke` stays in this process.
fn run(args: &Args) -> Result<ExitCode, String> {
    let selected: Vec<&Spec> = match (args.all, args.workload) {
        (true, None) => WORKLOADS.iter().collect(),
        (false, Some(spec)) => vec![spec],
        _ => return Err("run takes either --all or --workload <name>".into()),
    };
    if let Some(path) = &args.trace_out {
        // Children append; start from an empty file.
        std::fs::write(path, "").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let host = host::disclosure();
    eprintln!("host {}", host.encode());
    eprintln!(
        "durable workloads: fsync on (the engine's default), database under {}",
        host::scratch_root().display()
    );

    let mut workloads = Vec::new();
    for spec in selected {
        let mut report = WorkloadReport::new(spec.name);
        for trace in [false, true] {
            let invocation = if args.smoke {
                in_process(spec, args, trace)
            } else {
                in_child(spec, args, trace)
            };
            match invocation {
                Ok(part) => report.merge(part),
                Err(e) => {
                    // Named, counted, and the other workloads still run.
                    eprintln!("vxbench: {}: FAILED: {e}", spec.name);
                    report.count_crash();
                }
            }
        }
        workloads.push(report);
    }

    let failed = workloads.iter().any(|w| w.failed > 0);
    let report = Report { host, workloads };
    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json().encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("report written to {}", path.display());
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn in_process(spec: &Spec, args: &Args, trace: bool) -> Result<WorkloadReport, String> {
    let report =
        WorkloadReport::of(spec.name, workload::measure(spec, &args.params(trace))?, trace);
    print_workload(&report);
    Ok(report)
}

/// Re-executes this program for one workload and reads back the report line
/// it prints.
fn in_child(spec: &Spec, args: &Args, trace: bool) -> Result<WorkloadReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let (true, Some(path)) = (trace, &args.trace_out) {
        cmd.arg("--trace-out").arg(path);
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child ended with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .find_map(|v| WorkloadReport::from_json(&v).ok())
        .ok_or_else(|| "child printed no report".to_string())
}

fn read_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
        .and_then(|v| Report::from_json(&v))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err(format!("usage:\n{USAGE}")) };
    let rows = compare::compare(&read_report(Path::new(a))?, &read_report(Path::new(b))?);
    for row in &rows {
        println!("{row}");
    }
    let failing = rows.iter().filter(|r| r.fails()).count();
    let unresolved = rows.iter().filter(|r| r.verdict == compare::Verdict::Unresolved).count();
    println!("{} rows, {failing} failing, {unresolved} unresolved", rows.len());
    Ok(if failing == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_pipeline_invocation() {
        let a =
            args(&["--workload", "vc.sssp.lj", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.unwrap().name, "vc.sssp.lj");
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke, a.all), (7, 3.0, true, false, false));
        let d = args(&["--all"]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.all),
            (DEFAULT_SEED, DEFAULT_SECONDS, false, true)
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--seconds", "-1"],
            &["--seconds", "1e9"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// BENCHMARK.json is written by hand; hold it to what the code reports
    /// (the per-layer list is held to the traced run by the smoke test).
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let list = |key: &str| v.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

        let end_to_end: Vec<(String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                assert_eq!(field(m, "better"), "lower");
                (field(m, "name"), field(m, "unit"), m.get("bound").and_then(Json::as_f64).unwrap())
            })
            .collect();
        let expected: Vec<(String, String, f64)> =
            END_TO_END.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.bound)).collect();
        assert_eq!(end_to_end, expected);

        assert_eq!(v.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
        assert_eq!(v.get("paths"), Some(&Json::Arr(vec![Json::str("vxbench")])));
    }
}
