//! Operator probes for the `sql` and `storage::table` layers.
//!
//! Each probe is one SQL statement over the workload's own loaded graph,
//! issued through `Database::query`/`execute` only, so it times the public
//! path a statement takes: lexer → parser → planner → optimizer → executor →
//! table scan (and, for the CTAS probe, the table write path). A probe's
//! value is the median of [`PROBE_REPS`] executions; `probe.scan_s` ×
//! supersteps bounds the scan/decode share of a vertex-centric run.

use std::time::Instant;

use vertexica::sql::Database;

use crate::stats::median;
use crate::trace::Tracer;

const PROBE_REPS: usize = 3;
const STATEMENT_REPS: usize = 1000;

/// `(metric name, unit, value)` of every probe, in reporting order.
pub fn run_probes(
    db: &Database,
    edge: &str,
    vertex: &str,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let scratch = format!("{edge}__vxbench_probe");
    let ctas = format!("CREATE TABLE {scratch} AS SELECT src, dst FROM {edge}");
    let drop_scratch = format!("DROP TABLE IF EXISTS {scratch}");
    let queries = [
        ("probe.scan_s", format!("SELECT COUNT(*), SUM(src), SUM(dst) FROM {edge}")),
        ("probe.join_s", format!("SELECT COUNT(*) FROM {edge} e JOIN {vertex} v ON v.id = e.src")),
        ("probe.groupby_s", format!("SELECT dst, COUNT(*) FROM {edge} GROUP BY dst")),
    ];

    let mut out = Vec::new();
    for (name, sql) in &queries {
        let secs = probe(tracer, name, PROBE_REPS, || {
            let rows = db.query(sql).map_err(|e| format!("{name}: {e}"))?;
            std::hint::black_box(rows);
            Ok(())
        })?;
        out.push((*name, "s", secs));
    }

    // The write path: build a table from a scan, then drop it. The drop is
    // inside the probe because CTAS cannot repeat without it.
    let secs = probe(tracer, "probe.ctas_s", PROBE_REPS, || {
        db.execute(&ctas).map_err(|e| format!("probe.ctas_s: {e}"))?;
        db.execute(&drop_scratch).map_err(|e| format!("probe.ctas_s: {e}"))?;
        Ok(())
    });
    // Never leave the scratch table in the workload's database.
    let _ = db.execute(&drop_scratch);
    out.push(("probe.ctas_s", "s", secs?));

    let secs = probe(tracer, "probe.stmt_us", STATEMENT_REPS, || {
        std::hint::black_box(db.query("SELECT 1").map_err(|e| format!("probe.stmt_us: {e}"))?);
        Ok(())
    })?;
    out.push(("probe.stmt_us", "us", secs * 1e6));
    Ok(out)
}

/// Median seconds of `reps` executions of `f`, all inside one span.
fn probe(
    tracer: &mut Tracer,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let (_, samples) = tracer.scoped(name, |_| {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            f()?;
            samples.push(start.elapsed().as_secs_f64());
        }
        Ok::<_, String>(samples)
    });
    median(&samples?).ok_or_else(|| format!("{name}: no samples"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_run_on_a_small_graph_and_clean_up() {
        let db = Database::new();
        db.execute("CREATE TABLE e (src INT, dst INT)").unwrap();
        db.execute("CREATE TABLE v (id INT)").unwrap();
        db.execute("INSERT INTO e VALUES (0, 1), (1, 2), (2, 0), (0, 2)").unwrap();
        db.execute("INSERT INTO v VALUES (0), (1), (2)").unwrap();
        let mut tracer = Tracer::new("probe-test");
        let probes = run_probes(&db, "e", "v", &mut tracer).unwrap();
        let names: Vec<_> = probes.iter().map(|p| p.0).collect();
        assert_eq!(
            names,
            ["probe.scan_s", "probe.join_s", "probe.groupby_s", "probe.ctas_s", "probe.stmt_us"]
        );
        assert!(probes.iter().all(|p| p.2 > 0.0));
        assert!(!db.catalog().contains("e__vxbench_probe"));
        assert!(run_probes(&db, "missing", "v", &mut tracer).is_err());
    }
}
