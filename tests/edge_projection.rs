//! Differential tests of the engine against `algorithms::reference` on
//! degenerate graphs. Every graph runs through every configuration that
//! changes how a superstep reads or writes its tables — the default, a
//! durable database, a 256 KiB memory budget (projection pieces evicted and
//! reloaded) and two shards — and every run reads its edges from the sorted
//! projection. The budgeted run is held bitwise to the default one.

use std::sync::Arc;

use vertexica::session::{edge_schema, vertex_schema};
use vertexica::shard::{run_sharded, ShardedDatabase, ShardedGraphSession};
use vertexica::sql::Database;
use vertexica::storage::partition;
use vertexica::storage::{RecordBatch, Value};
use vertexica::{run_program, GraphSession, RunStats, VertexicaConfig};
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
    Durable,
    Budget256KiB,
    TwoShards,
}

const CELLS: [Cell; 4] = [Cell::Default, Cell::Durable, Cell::Budget256KiB, Cell::TwoShards];

/// Appends `graph` to the sessions with every id shifted up by `base`
/// (wrapping into negative BIGINTs past 2⁶³), each row on the session that
/// owns it: a vertex by its id, an edge by its source.
fn load(sessions: &[GraphSession], graph: &EdgeList, base: u64) {
    let id = |v: u64| Value::Int(base.wrapping_add(v) as i64);
    let owner = |v: u64| partition::owner(base.wrapping_add(v) as i64, sessions.len(), 1).0;
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

/// PageRank and SSSP in every cell against the reference; the default and
/// budgeted runs also bit for bit.
fn check(what: &str, graph: &EdgeList, base: u64) {
    let pagerank = reference::pagerank(graph, ITERATIONS as usize, DAMPING);
    let sssp = reference::sssp(graph, 0);
    let to_bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut projected = None;
    for cell in CELLS {
        let what = format!("{what} [{cell:?}]");
        let (ranks, stats) = run(cell, graph, base, PageRank::new(ITERATIONS, DAMPING));
        assert_close(&ranks, &pagerank, &what);
        let (dist, _) = run(cell, graph, base, Sssp::new(base));
        assert_close(&dist, &sssp, &what);
        let edges = graph.num_edges() > 0;
        assert_eq!(stats.projection_bytes > 0, edges, "{what}: every run reads the projection");
        match cell {
            Cell::Default => projected = Some((to_bits(&ranks), to_bits(&dist))),
            Cell::Budget256KiB => assert_eq!(
                projected.as_ref(),
                Some(&(to_bits(&ranks), to_bits(&dist))),
                "{what}: the budgeted run diverged from the default one"
            ),
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

/// Every row of `table`, as stored, in `Value::total_cmp` order: blob
/// payloads compare byte for byte, so equal rows are bitwise equal.
fn table_rows(g: &GraphSession, table: &str) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> =
        g.db().scan_table(table, None, &[]).unwrap().iter().flat_map(RecordBatch::rows).collect();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Under a one-byte budget on a durable database every projection piece is
/// evicted between runs: the workers find them non-resident, reload them at
/// their pins, and leave the vertex and message tables bitwise equal to the
/// unbudgeted run's.
#[test]
fn a_one_byte_budget_reloads_projection_pieces_where_workers_pin_them() {
    let graph = vertexica_graphgen::models::erdos_renyi(200, 900, 3);
    let partitions = 4;
    // Capped mid-run, so the message table is not empty.
    let program = || Arc::new(PageRank::new(ITERATIONS, DAMPING));
    let config = VertexicaConfig::default()
        .with_workers(2)
        .with_partitions(partitions)
        .with_durable(true)
        .with_max_supersteps(5);
    let run = |budget: Option<usize>| {
        let dir = durable_dir();
        let db = Database::open(&dir).unwrap();
        db.catalog().buffer_pool().set_budget(budget);
        let g = GraphSession::create(Arc::new(db), "g").unwrap();
        g.load_edges(&graph).unwrap();
        let config = config.clone().with_memory_budget(budget);
        // The first run builds the projection; the second finds it cached.
        run_program(&g, program(), &config).unwrap();
        let (projection, secs) = g.edge_projection(1, partitions).unwrap();
        assert_eq!(secs, 0.0, "{budget:?}: the run's projection is cached");
        let pieces: Vec<_> = projection.pieces().iter().flatten().collect();
        assert_eq!(pieces.len(), partitions);
        let resident = pieces.iter().filter(|h| h.is_resident()).count();
        let pool = g.db().catalog().buffer_pool().clone();
        let reloads = pool.stats().reloads;
        let stats = run_program(&g, program(), &config).unwrap();
        assert_eq!(stats.projection_build_secs, 0.0);
        let reloaded = pool.stats().reloads - reloads;
        let tables = (table_rows(&g, &g.vertex_table()), table_rows(&g, &g.message_table()));
        drop(g);
        std::fs::remove_dir_all(&dir).ok();
        (tables, resident, reloaded)
    };
    let (unbudgeted, resident, reloaded) = run(None);
    assert_eq!((resident, reloaded), (partitions, 0), "an unbudgeted pool never evicts");
    let (budgeted, resident, reloaded) = run(Some(1));
    assert_eq!(resident, 0, "every piece is evicted before the run pins it");
    assert!(reloaded >= partitions as u64, "{reloaded} reloads: each piece at least once");
    assert!(!unbudgeted.1.is_empty(), "a capped run leaves messages");
    assert!(budgeted == unbudgeted, "the budgeted run's tables diverged");
}
