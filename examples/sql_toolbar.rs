//! The paper's §3.2 SQL toolbar on a generated livejournal-profile graph:
//! PageRank, triangle counting, local clustering, strong overlap and weak
//! ties, each run through SQL, checked against `algorithms::reference` and
//! timed against it.
//!
//! ```text
//! cargo run --release --example sql_toolbar -- <scale> [seed] [algorithm]
//! ```
//!
//! `scale` is the livejournal profile's scale (0.0015 is the benchmark's
//! 8 K-vertex, 103 K-edge graph); `seed` defaults to 42. Naming one
//! algorithm runs only that one, so the printed `VmHWM` (this process's peak
//! resident set, which only grows) is that algorithm's own. Each row prints
//! the SQL and reference wall clock in seconds and their ratio; the run
//! panics if any SQL result disagrees with the reference. PageRank also
//! prints a digest of its ranks' bit patterns, for bitwise comparisons
//! between builds.

use std::sync::Arc;
use std::time::Instant;

use vertexica::common::graph::EdgeList;
use vertexica::sql::Database;
use vertexica::GraphSession;
use vertexica_algorithms::{reference, sqlalgo};

const ALGORITHMS: [&str; 5] = ["pagerank", "triangles", "clustering", "overlap", "weak_ties"];

/// This process's peak resident set in MB (`VmHWM`), where `/proc` has it.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs one algorithm both ways, asserts they agree, and returns the SQL
/// and reference seconds.
fn run(name: &str, session: &GraphSession, graph: &EdgeList) -> (f64, f64) {
    match name {
        "pagerank" => {
            let (sql, sql_s) = timed(|| sqlalgo::pagerank_sql(session, 10, 0.85).unwrap());
            let (want, ref_s) = timed(|| reference::pagerank(graph, 10, 0.85));
            assert_eq!(sql.len(), want.len());
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for &(id, rank) in &sql {
                let expected = want[id as usize];
                assert!((rank - expected).abs() < 1e-9, "vertex {id}: {rank} vs {expected}");
                digest = (digest ^ rank.to_bits()).wrapping_mul(0x100_0000_01b3);
            }
            println!("pagerank rank-bits digest {digest:016x}");
            (sql_s, ref_s)
        }
        "triangles" => {
            let (sql, sql_s) = timed(|| sqlalgo::triangle_count_sql(session).unwrap());
            let (want, ref_s) = timed(|| reference::triangle_count(graph));
            assert_eq!(sql, want, "triangle count");
            (sql_s, ref_s)
        }
        "clustering" => {
            let (sql, sql_s) = timed(|| sqlalgo::local_clustering_sql(session).unwrap());
            let (want, ref_s) = timed(|| reference::local_clustering(graph));
            assert_eq!(sql.len(), want.len());
            for (id, c) in sql {
                let expected = want[id as usize];
                assert!((c - expected).abs() < 1e-9, "vertex {id}: {c} vs {expected}");
            }
            (sql_s, ref_s)
        }
        "overlap" => {
            let (sql, sql_s) = timed(|| sqlalgo::strong_overlap_sql(session, 4).unwrap());
            let (want, ref_s) = timed(|| reference::strong_overlap(graph, 4));
            assert_eq!(sql, want, "strong overlap pairs");
            (sql_s, ref_s)
        }
        "weak_ties" => {
            let (sql, sql_s) = timed(|| sqlalgo::weak_ties_sql(session).unwrap());
            let (want, ref_s) = timed(|| reference::weak_ties(graph));
            assert_eq!(sql.len(), want.len());
            for (id, c) in sql {
                assert_eq!(c, want[id as usize], "vertex {id}");
            }
            (sql_s, ref_s)
        }
        other => panic!("unknown algorithm {other}; expected one of {ALGORITHMS:?}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: sql_toolbar <scale> [seed] [algorithm]";
    let scale: f64 = args.first().and_then(|s| s.parse().ok()).expect(usage);
    let seed: u64 = args.get(1).map_or(42, |s| s.parse().expect(usage));
    let only: Vec<&str> = match args.get(2) {
        Some(name) => vec![name.as_str()],
        None => ALGORITHMS.to_vec(),
    };

    let graph = vertexica_graphgen::dataset("livejournal", scale, seed).expect("livejournal");
    let session = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
    session.load_edges(&graph).unwrap();
    println!(
        "livejournal scale={scale} seed={seed}: {} vertices, {} edges; loaded VmHWM {:.1} MB",
        graph.num_vertices,
        graph.edges.len(),
        vm_hwm_mb().unwrap_or(f64::NAN)
    );
    println!(
        "{:<12} {:>10} {:>12} {:>8} {:>12}",
        "algorithm", "sql_s", "reference_s", "ratio", "VmHWM_mb"
    );
    for name in only {
        let (sql_s, ref_s) = run(name, &session, &graph);
        println!(
            "{name:<12} {sql_s:>10.3} {ref_s:>12.3} {:>8.1} {:>12.1}",
            sql_s / ref_s,
            vm_hwm_mb().unwrap_or(f64::NAN)
        );
    }
}
