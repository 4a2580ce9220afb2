//! Differential tests of the engine against `algorithms::reference` on
//! degenerate graphs. Every graph runs through every configuration that
//! changes how a superstep reads or writes its tables — the default
//! (edges from the sorted projection), 3-way-join input, a durable
//! database, a 256 KiB memory budget (edges streamed as rows) and two
//! shards — and the projection and edge-row paths are held bitwise to each
//! other.

use std::sync::Arc;

use vertexica::session::{edge_schema, vertex_schema};
use vertexica::shard::{run_sharded, ShardedDatabase, ShardedGraphSession};
use vertexica::sql::Database;
use vertexica::storage::partition::int_key_partition;
use vertexica::storage::{RecordBatch, Value};
use vertexica::{run_program, GraphSession, InputMode, RunStats, VertexicaConfig};
use vertexica_algorithms::reference;
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_common::graph::{Edge, EdgeList};
use vertexica_common::VertexProgram;

const ITERATIONS: u64 = 8;
const DAMPING: f64 = 0.85;

/// The configurations every degenerate graph runs through.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cell {
    Default,
    ThreeWayJoin,
    Durable,
    Budget256KiB,
    TwoShards,
}

const CELLS: [Cell; 5] =
    [Cell::Default, Cell::ThreeWayJoin, Cell::Durable, Cell::Budget256KiB, Cell::TwoShards];

/// Appends `graph` to the sessions with every id shifted up by `base`
/// (wrapping into negative BIGINTs past 2⁶³), each row on the session that
/// owns it: a vertex by its id, an edge by its source.
fn load(sessions: &[GraphSession], graph: &EdgeList, base: u64) {
    let id = |v: u64| Value::Int(base.wrapping_add(v) as i64);
    let owner = |v: u64| int_key_partition(base.wrapping_add(v) as i64, sessions.len());
    for (k, session) in sessions.iter().enumerate() {
        let vertices: Vec<Vec<Value>> = (0..graph.num_vertices)
            .filter(|&v| owner(v) == k)
            .map(|v| vec![id(v), Value::Null, Value::Bool(false)])
            .collect();
        let edges: Vec<Vec<Value>> = (graph.edges.iter().filter(|e| owner(e.src) == k))
            .map(|e| vec![id(e.src), id(e.dst), Value::Float(e.weight), Value::Int(0), Value::Null])
            .collect();
        for (table, schema, rows) in [
            (session.vertex_table(), vertex_schema(), vertices),
            (session.edge_table(), edge_schema(), edges),
        ] {
            let batch = RecordBatch::from_rows(schema, &rows).unwrap();
            session.db().append_batches(&table, &[batch]).unwrap();
        }
    }
}

/// A fresh directory for one durable cell.
fn durable_dir() -> std::path::PathBuf {
    use vertexica_common::sync::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "vx_edgeproj_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs `program` in `cell` and returns the vertex values in id order (ids
/// shifted back down by `base`) with the run's stats.
fn run<P: VertexProgram<Value = f64> + 'static>(
    cell: Cell,
    graph: &EdgeList,
    base: u64,
    program: P,
) -> (Vec<f64>, RunStats) {
    let config = VertexicaConfig::default().with_workers(2).with_partitions(4);
    let dir = durable_dir();
    let (values, stats) = match cell {
        Cell::TwoShards => {
            let ss = ShardedGraphSession::create(ShardedDatabase::new(2), "g").unwrap();
            load(ss.shard_sessions(), graph, base);
            let stats = run_sharded(&ss, Arc::new(program), &config).unwrap();
            (ss.vertex_values::<f64>().unwrap(), stats)
        }
        _ => {
            let durable = matches!(cell, Cell::Durable | Cell::Budget256KiB);
            let db = if durable { Database::open(&dir).unwrap() } else { Database::new() };
            let g = GraphSession::create(Arc::new(db), "g").unwrap();
            load(std::slice::from_ref(&g), graph, base);
            let config = match cell {
                Cell::ThreeWayJoin => config.with_input_mode(InputMode::ThreeWayJoin),
                Cell::Durable => config.with_durable(true),
                Cell::Budget256KiB => config.with_durable(true).with_memory_budget(Some(256 << 10)),
                _ => config,
            };
            let stats = run_program(&g, Arc::new(program), &config).unwrap();
            (g.vertex_values::<f64>().unwrap(), stats)
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(values.len() as u64, graph.num_vertices, "{cell:?}");
    let values = values
        .into_iter()
        .enumerate()
        .map(|(i, (id, v))| {
            assert_eq!(id, base.wrapping_add(i as u64), "{cell:?}");
            v
        })
        .collect();
    (values, stats)
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (v, (g, w)) in got.iter().zip(want).enumerate() {
        let same = if w.is_finite() { (g - w).abs() <= 1e-9 } else { g == w };
        assert!(same, "{what}: vertex {v}: got {g}, reference {w}");
    }
}

/// Whether `graph` repeats an edge exactly — which the 3-way join collapses
/// into one by construction.
fn has_exact_duplicate_edges(graph: &EdgeList) -> bool {
    let mut keys: Vec<(u64, u64, u64)> =
        graph.edges.iter().map(|e| (e.src, e.dst, e.weight.to_bits())).collect();
    keys.sort_unstable();
    keys.windows(2).any(|w| w[0] == w[1])
}

/// PageRank and SSSP in every cell against the reference; the projection
/// (default) and edge-row (budgeted) runs also bit for bit.
fn check(what: &str, graph: &EdgeList, base: u64) {
    let pagerank = reference::pagerank(graph, ITERATIONS as usize, DAMPING);
    let sssp = reference::sssp(graph, 0);
    let to_bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut projected = None;
    for cell in CELLS {
        if cell == Cell::ThreeWayJoin && has_exact_duplicate_edges(graph) {
            continue;
        }
        let what = format!("{what} [{cell:?}]");
        let (ranks, stats) = run(cell, graph, base, PageRank::new(ITERATIONS, DAMPING));
        assert_close(&ranks, &pagerank, &what);
        let (dist, _) = run(cell, graph, base, Sssp::new(base));
        assert_close(&dist, &sssp, &what);
        match cell {
            Cell::Default => {
                assert!(stats.projection_bytes > 0, "{what}: an unbudgeted union run reads it");
                projected = Some((to_bits(&ranks), to_bits(&dist)));
            }
            Cell::Budget256KiB => {
                assert_eq!((stats.projection_bytes, stats.projection_build_secs), (0, 0.0));
                assert_eq!(
                    projected.as_ref(),
                    Some(&(to_bits(&ranks), to_bits(&dist))),
                    "{what}: projection and edge-row paths diverged"
                );
            }
            _ => {}
        }
    }
}

fn weighted(n: u64, edges: &[(u64, u64, f64)]) -> EdgeList {
    EdgeList::new(n, edges.iter().map(|&(s, d, w)| Edge::weighted(s, d, w)).collect())
}

#[test]
fn empty_edge_table() {
    check("no edges", &EdgeList::new(5, vec![]), 0);
}

#[test]
fn single_vertex() {
    check("one vertex", &EdgeList::new(1, vec![]), 0);
    check("one vertex, self-loop", &weighted(1, &[(0, 0, 2.0)]), 0);
}

#[test]
fn isolated_vertices_and_unreachable_targets() {
    // 3 and 4 are isolated, 5 → 6 is a component vertex 0 never reaches.
    let graph = weighted(7, &[(0, 1, 1.0), (1, 2, 2.5), (2, 0, 1.0), (5, 6, 1.0)]);
    check("isolated + unreachable", &graph, 0);
    let (dist, _) = run(Cell::Default, &graph, 0, Sssp::new(0));
    assert_eq!(&dist[3..], [f64::INFINITY; 4]);
}

#[test]
fn self_loops() {
    let graph = weighted(4, &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 0.5), (1, 2, 1.0), (3, 3, 1.0)]);
    check("self-loops", &graph, 0);
}

#[test]
fn parallel_edges_with_different_weights() {
    let graph = weighted(
        4,
        &[
            (0, 1, 5.0),
            (0, 1, 0.5),
            (0, 1, 2.0),
            (0, 1, 0.5),
            (1, 2, 1.0),
            (1, 2, 3.0),
            (2, 3, 0.25),
        ],
    );
    check("parallel edges", &graph, 0);
    let (dist, _) = run(Cell::Default, &graph, 0, Sssp::new(0));
    assert_eq!(dist, vec![0.0, 0.5, 1.5, 1.75]);
}

const EXTREME_IDS: &[(u64, u64, f64)] =
    &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 5, 4.0), (5, 4, 1.0)];

#[test]
fn ids_near_i64_max() {
    check("ids near i64::MAX", &weighted(6, EXTREME_IDS), i64::MAX as u64 - 5);
}

/// Vertex ids from 2⁶³ up: negative as BIGINT, starting at `i64::MIN`.
#[test]
fn ids_from_2_pow_63_are_negative_bigints() {
    check("ids from 2^63", &weighted(6, EXTREME_IDS), 1 << 63);
}

/// `with_memory_budget(None)` leaves the pool's budget alone, so a run that
/// follows a budgeted one on the same session is still on an evicting pool
/// and must keep streaming edge rows; clearing the pool's budget is what
/// brings the projection back.
#[test]
fn an_unbudgeted_config_on_a_still_budgeted_pool_streams_edge_rows() {
    let graph = weighted(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
    let g = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
    g.load_edges(&graph).unwrap();
    let pool = g.db().catalog().buffer_pool().clone();
    pool.set_budget(None);
    let unbudgeted = VertexicaConfig::default().with_durable(false).with_memory_budget(None);
    let budgeted = unbudgeted.clone().with_memory_budget(Some(1 << 30));
    let run = |config: &VertexicaConfig| {
        let stats = run_program(&g, Arc::new(PageRank::new(ITERATIONS, DAMPING)), config).unwrap();
        let ranks: Vec<f64> =
            g.vertex_values::<f64>().unwrap().into_iter().map(|(_, v)| v).collect();
        assert_close(&ranks, &reference::pagerank(&graph, ITERATIONS as usize, DAMPING), "ring");
        stats.projection_bytes
    };
    assert!(run(&unbudgeted) > 0);
    assert_eq!(run(&budgeted), 0);
    assert_eq!(pool.budget(), Some(1 << 30), "the run's budget stays on the pool");
    assert_eq!(run(&unbudgeted), 0, "the pool is still evicting: no copy outside it");
    pool.set_budget(None);
    assert!(run(&unbudgeted) > 0);
}
