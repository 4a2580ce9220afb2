//! Differential tests of the sorted edge projection against
//! `algorithms::reference` on degenerate graphs, each also held bitwise
//! against the retained edge-row path.

use std::sync::Arc;

use vertexica::sql::Database;
use vertexica::{run_program, GraphSession, RunStats, VertexicaConfig};
use vertexica_algorithms::reference;
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_common::graph::{Edge, EdgeList, VertexId};
use vertexica_common::VertexProgram;

const ITERATIONS: u64 = 8;
const DAMPING: f64 = 0.85;

/// Loads `graph` with every id shifted up by `base` (`load_edges` itself
/// only numbers vertices from 0).
fn load(graph: &EdgeList, base: u64) -> GraphSession {
    let g = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
    if base == 0 {
        g.load_edges(graph).unwrap();
    } else {
        for v in 0..graph.num_vertices {
            g.add_vertex(base + v).unwrap();
        }
        for e in &graph.edges {
            g.add_edge(base + e.src, base + e.dst, e.weight, 0, None).unwrap();
        }
    }
    g
}

/// Runs `program` once reading edges from the projection and once streaming
/// edge rows (what a budget makes the engine do), checks the two agree bit
/// for bit, and returns the values with ids shifted back down.
fn run_both_paths<P: VertexProgram<Value = f64> + 'static>(
    graph: &EdgeList,
    base: u64,
    make: impl Fn() -> P,
) -> Vec<f64> {
    let run = |budget: Option<usize>| -> (Vec<(VertexId, f64)>, RunStats) {
        let g = load(graph, base);
        // Pinned: the out-of-core CI mode budgets every new pool by default.
        g.db().catalog().buffer_pool().set_budget(None);
        let config = VertexicaConfig::default()
            .with_workers(2)
            .with_partitions(4)
            .with_durable(false)
            .with_memory_budget(budget);
        let stats = run_program(&g, Arc::new(make()), &config).unwrap();
        (g.vertex_values().unwrap(), stats)
    };
    let (projected, stats) = run(None);
    assert!(stats.projection_bytes > 0, "an unbudgeted union run reads the projection");
    let (streamed, stats) = run(Some(1 << 40));
    assert_eq!((stats.projection_bytes, stats.projection_build_secs), (0, 0.0));
    let bits = |vals: &[(VertexId, f64)]| -> Vec<(VertexId, u64)> {
        vals.iter().map(|(id, v)| (*id, v.to_bits())).collect()
    };
    assert_eq!(bits(&projected), bits(&streamed), "projection and edge-row paths diverged");
    assert_eq!(projected.len() as u64, graph.num_vertices);
    projected
        .into_iter()
        .enumerate()
        .map(|(i, (id, v))| {
            assert_eq!(id, base + i as u64);
            v
        })
        .collect()
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (v, (g, w)) in got.iter().zip(want).enumerate() {
        let same = if w.is_finite() { (g - w).abs() <= 1e-9 } else { g == w };
        assert!(same, "{what}: vertex {v}: got {g}, reference {w}");
    }
}

/// PageRank and SSSP through both engine paths against the reference.
fn check(what: &str, graph: &EdgeList, base: u64) {
    let ranks = run_both_paths(graph, base, || PageRank::new(ITERATIONS, DAMPING));
    assert_close(&ranks, &reference::pagerank(graph, ITERATIONS as usize, DAMPING), what);
    let dist = run_both_paths(graph, base, || Sssp::new(base));
    assert_close(&dist, &reference::sssp(graph, 0), what);
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
    let dist = run_both_paths(&graph, 0, || Sssp::new(0));
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
    let dist = run_both_paths(&graph, 0, || Sssp::new(0));
    assert_eq!(dist, vec![0.0, 0.5, 1.5, 1.75]);
}

#[test]
fn ids_near_i64_max() {
    let graph = weighted(6, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 5, 4.0), (5, 4, 1.0)]);
    check("ids near i64::MAX", &graph, i64::MAX as u64 - 5);
}

/// `with_memory_budget(None)` leaves the pool's budget alone, so a run that
/// follows a budgeted one on the same session is still on an evicting pool
/// and must keep streaming edge rows; clearing the pool's budget is what
/// brings the projection back.
#[test]
fn an_unbudgeted_config_on_a_still_budgeted_pool_streams_edge_rows() {
    let graph = weighted(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
    let g = load(&graph, 0);
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
