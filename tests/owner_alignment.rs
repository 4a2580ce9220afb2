//! Owner-aligned segments and the merging worker.
//!
//! Apply writes one segment per owner cell (`storage::partition::owner`): a
//! message segment holds one recipient `(shard, partition)`'s rows sorted by
//! `(recipient, sender, payload)`, and a replaced vertex segment holds one
//! partition's rows sorted by id. The next superstep hands each such segment
//! to its partition whole, and the worker's stable sort merges those runs.
//! Every superstep that changes a vertex replaces the vertex table, so with
//! no user DML the table stays aligned. The edge projection is cut the same
//! way: one piece per owner partition, in projection order. The first three
//! tests check those layouts; the rest hold the worker to one output however
//! its input is cut into runs, on the inputs that do not arrive aligned.

use std::sync::Arc;

use vertexica::coordinator::resume_program;
use vertexica::input::{assemble_chunks, STREAM_CHUNK_ROWS};
use vertexica::sql::{Database, TransformUdf};
use vertexica::storage::partition::{owner, split_batch};
use vertexica::storage::{RecordBatch, Value};
use vertexica::worker::VertexWorker;
use vertexica::{resume_sharded, run_sharded, GraphSession, ShardedDatabase, ShardedGraphSession};
use vertexica::{run_program, VertexicaConfig};
use vertexica_algorithms::reference;
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_common::graph::EdgeList;
use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::VertexProgram;

/// Every segment of `table` as its rows, checking that the segments hold
/// all of the table (no write-store rows, no deletions).
fn segments(sess: &GraphSession, table: &str) -> Vec<Vec<Vec<Value>>> {
    let handle = sess.db().catalog().get(table).unwrap();
    let guard = handle.read();
    let segments: Vec<Vec<Vec<Value>>> = guard
        .segments()
        .iter()
        .map(|h| {
            let seg = h.read().unwrap();
            let columns: Vec<_> =
                (0..seg.num_columns()).map(|c| seg.encoded_column(c).decode().unwrap()).collect();
            (0..seg.num_rows()).map(|r| columns.iter().map(|c| c.value(r)).collect()).collect()
        })
        .collect();
    assert_eq!(guard.wos_rows(), 0, "{table}: write-store rows");
    assert!(guard.delete_vectors().iter().all(|d| !d.any()), "{table}: deleted rows");
    assert_eq!(segments.iter().map(Vec::len).sum::<usize>(), guard.num_rows(), "{table}");
    segments
}

/// The owner cell every row of `segment` maps to by its column 0; fails if
/// the rows span two cells.
fn cell_of(segment: &[Vec<Value>], shards: usize, parts: usize, what: &str) -> (usize, usize) {
    let cells: Vec<(usize, usize)> =
        segment.iter().map(|row| owner(row[0].as_int().unwrap(), shards, parts)).collect();
    assert!(cells.windows(2).all(|w| w[0] == w[1]), "{what}: a segment spans owner cells");
    cells[0]
}

/// Checks shard `k`'s vertex segments (when `replaced`) and message
/// segments: one owner cell each, no cell twice, rows sorted in the
/// worker's canonical order.
fn assert_aligned(sess: &GraphSession, k: usize, shards: usize, parts: usize, replaced: bool) {
    let what = format!("{shards} shards × {parts} partitions, shard {k}");
    if replaced {
        let mut cells = Vec::new();
        for segment in segments(sess, &sess.vertex_table()) {
            let cell = cell_of(&segment, shards, parts, &what);
            assert_eq!(cell.0, k, "{what}: a vertex segment of another shard");
            let ids: Vec<i64> = segment.iter().map(|r| r[0].as_int().unwrap()).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: vertex ids out of order");
            cells.push(cell);
        }
        let distinct: std::collections::BTreeSet<_> = cells.iter().collect();
        assert_eq!(distinct.len(), cells.len(), "{what}: two vertex segments share a cell");
    }
    let mut cells = Vec::new();
    for segment in segments(sess, &sess.message_table()) {
        cells.push(cell_of(&segment, shards, parts, &what));
        let keys: Vec<(i64, i64, Value)> = segment
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap(), r[2].clone()))
            .collect();
        assert!(
            keys.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)
                || ((w[0].0, w[0].1) == (w[1].0, w[1].1) && w[0].2.total_cmp(&w[1].2).is_le())),
            "{what}: message rows out of order"
        );
    }
    let distinct: std::collections::BTreeSet<_> = cells.iter().collect();
    assert_eq!(distinct.len(), cells.len(), "{what}: two message segments share a cell");
}

#[test]
fn every_superstep_leaves_one_sorted_segment_per_owner_cell() {
    let graph = vertexica_graphgen::models::erdos_renyi(150, 600, 5);
    let supersteps = 5u64;
    for shards in [1usize, 2, 3] {
        for parts in [1usize, 3, 8] {
            for combiner in [false, true] {
                let ss = ShardedGraphSession::create(ShardedDatabase::new(shards), "g").unwrap();
                ss.load_edges(&graph).unwrap();
                let program = Arc::new(PageRank::new(supersteps - 1, 0.85));
                let config = VertexicaConfig::default()
                    .with_workers(2)
                    .with_partitions(parts)
                    .with_combiner(combiner);
                // One superstep per call, so the tables are checked after
                // each commit.
                for s in 1..=supersteps {
                    let capped = config.clone().with_max_supersteps(s);
                    let stats = if s == 1 {
                        run_sharded(&ss, program.clone(), &capped).unwrap()
                    } else {
                        resume_sharded(&ss, program.clone(), &capped).unwrap()
                    };
                    assert_eq!(stats.supersteps, 1);
                    let step = &stats.per_superstep[0];
                    assert!(step.apply_parallelism <= shards * shards * parts);
                    for (k, sess) in ss.shard_sessions().iter().enumerate() {
                        assert_aligned(sess, k, shards, parts, step.replaced);
                        assert_projection_aligned(sess, k, shards, parts);
                    }
                }
            }
        }
    }
}

/// Shard `k`'s edge projection table: one piece per owner cell of the shard,
/// none twice, rows in projection order — `(src, dst)`, then `weight` NULL
/// first in IEEE total order, which is `Value::total_cmp` column by column —
/// and every edge row of the shard in some piece.
fn assert_projection_aligned(sess: &GraphSession, k: usize, shards: usize, parts: usize) {
    let what = format!("{shards} shards × {parts} partitions, shard {k}, edge projection");
    let pieces = segments(sess, &sess.edge_proj_table());
    let mut cells = Vec::new();
    for piece in &pieces {
        let cell = cell_of(piece, shards, parts, &what);
        assert_eq!(cell.0, k, "{what}: a piece of another shard");
        let in_order = piece.windows(2).all(|w| {
            w[0].iter()
                .zip(&w[1])
                .map(|(a, b)| a.total_cmp(b))
                .find(|o| o.is_ne())
                .is_none_or(std::cmp::Ordering::is_lt)
        });
        assert!(in_order, "{what}: rows out of projection order");
        cells.push(cell);
    }
    let distinct: std::collections::BTreeSet<_> = cells.iter().collect();
    assert_eq!(distinct.len(), cells.len(), "{what}: two pieces share a cell");
    let edges = sess.num_edges().unwrap() as usize;
    assert_eq!(pieces.iter().map(Vec::len).sum::<usize>(), edges, "{what}: edge rows");
}

/// At 2 shards × 4 partitions the shard and partition counts share a
/// factor; every shard must still compute all 4 of its partitions, so its
/// replaced vertex table and its projection have 4 non-empty segments each.
#[test]
fn every_shard_fills_every_partition() {
    let graph = vertexica_graphgen::models::erdos_renyi(128, 512, 9);
    let ss = ShardedGraphSession::create(ShardedDatabase::new(2), "g").unwrap();
    ss.load_edges(&graph).unwrap();
    let config = VertexicaConfig::default().with_workers(2).with_partitions(4);
    run_sharded(&ss, Arc::new(PageRank::new(3, 0.85)), &config).unwrap();
    for (k, sess) in ss.shard_sessions().iter().enumerate() {
        assert_aligned(sess, k, 2, 4, true);
        assert_projection_aligned(sess, k, 2, 4);
        for table in [sess.vertex_table(), sess.edge_proj_table()] {
            let segments = segments(sess, &table);
            let non_empty = segments.iter().filter(|s| !s.is_empty()).count();
            assert_eq!(non_empty, 4, "shard {k}: {table} has {non_empty} non-empty segments");
        }
    }
}

/// SSSP's frontier shrinks to a few vertices a superstep, and the default
/// config replaces the vertex table on each of them: after superstep 0,
/// which changes every vertex's halt flag, the table is one sorted segment
/// per partition after every superstep.
#[test]
fn sssp_keeps_the_vertex_table_aligned_at_the_default_config() {
    // A chain through every vertex, with random shortcuts.
    let shortcuts = vertexica_graphgen::models::erdos_renyi(150, 100, 5).edges;
    let graph = EdgeList::from_pairs(
        (0..149).map(|v| (v, v + 1)).chain(shortcuts.iter().map(|e| (e.src, e.dst))),
    );
    let g = session(&graph);
    let config = VertexicaConfig::default();
    let parts = config.num_partitions;
    let mut deltas = Vec::new();
    for s in 1.. {
        let capped = config.clone().with_max_supersteps(s);
        let program = Arc::new(Sssp::new(0));
        let stats = if s == 1 {
            run_program(&g, program, &capped).unwrap()
        } else {
            resume_program(&g, program, &capped).unwrap()
        };
        if stats.supersteps == 0 {
            break;
        }
        assert_aligned(&g, 0, 1, parts, true);
        let step = &stats.per_superstep[0];
        assert_eq!(step.replaced, step.vertex_changes > 0, "superstep {}", step.superstep);
        deltas.push(step.vertex_changes);
    }
    // The run had supersteps that changed a small share of the vertices.
    assert!(deltas.iter().any(|&d| d > 0 && d < 150 / 10), "deltas {deltas:?}");
    assert_sssp_from_0_is_the_reference(&g, &graph);
}

/// `g`'s vertex values are, bit for bit, the reference's SSSP distances
/// from vertex 0 over `graph`.
fn assert_sssp_from_0_is_the_reference(g: &GraphSession, graph: &EdgeList) {
    let expected: Vec<u64> = reference::sssp(graph, 0).iter().map(|d| d.to_bits()).collect();
    let got: Vec<(u64, f64)> = g.vertex_values().unwrap();
    assert_eq!(got.iter().map(|(_, d)| d.to_bits()).collect::<Vec<_>>(), expected);
}

/// A fresh in-memory session holding `graph`.
fn session(graph: &EdgeList) -> GraphSession {
    let g = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
    g.load_edges(graph).unwrap();
    g
}

/// The union-schema input of every partition, exactly as the scatter cuts
/// it: each assembled chunk split by owner partition.
fn partition_inputs(g: &GraphSession, parts: usize) -> Vec<Vec<RecordBatch>> {
    let mut inputs: Vec<Vec<RecordBatch>> = vec![Vec::new(); parts];
    assemble_chunks(g, STREAM_CHUNK_ROWS, &mut |chunk| {
        for (p, piece) in split_batch(&chunk, &[0], 1, parts)? {
            inputs[p].push(piece);
        }
        Ok(())
    })
    .unwrap();
    inputs
}

/// Rows of `batches` in the worker's canonical order.
fn canonical_rows(batches: &[RecordBatch]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = batches.iter().flat_map(RecordBatch::rows).collect();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Runs `worker` on one partition's rows cut five ways — as the scatter
/// delivered them, as one canonically sorted batch, as one shuffled batch,
/// as sorted runs whose concatenation is unsorted, and as shuffled pieces —
/// and demands bitwise-identical output. Returns whether the scatter's own
/// pieces, in the order they arrived, are out of canonical order — so the
/// worker had to merge or sort them.
fn assert_layout_invariant<P: VertexProgram>(
    worker: &VertexWorker<P>,
    pieces: Vec<RecordBatch>,
    what: &str,
) -> bool {
    let schema = pieces[0].schema().clone();
    let batch = |rows: &[Vec<Value>]| RecordBatch::from_rows(schema.clone(), rows).unwrap();
    let sorted = canonical_rows(&pieces);
    let n = sorted.len();
    let unsorted_run = sorted != pieces.iter().flat_map(RecordBatch::rows).collect::<Vec<_>>();
    // A fixed permutation: 7919 is prime, and `n` is never a multiple of it
    // here.
    assert_ne!(n % 7919, 0);
    let shuffled: Vec<Vec<Value>> = (0..n).map(|i| sorted[(i * 7919) % n].clone()).collect();

    let expected = worker.execute(vec![batch(&sorted)]).unwrap();
    let layouts: Vec<(&str, Vec<RecordBatch>)> = vec![
        ("scatter pieces", pieces),
        ("one shuffled batch", vec![batch(&shuffled)]),
        (
            "sorted runs",
            (0..3)
                .map(|r| batch(&sorted.iter().skip(r).step_by(3).cloned().collect::<Vec<_>>()))
                .collect(),
        ),
        ("shuffled pieces", shuffled.chunks(n.div_ceil(4)).map(batch).collect()),
    ];
    for (layout, input) in layouts {
        let out = worker.execute(input).unwrap();
        let rows = |b: &[RecordBatch]| b.iter().flat_map(RecordBatch::rows).collect::<Vec<_>>();
        assert_eq!(rows(&out), rows(&expected), "{what}: {layout}");
    }
    unsorted_run
}

/// A worker for `program` at `superstep` on one of `g`'s [`PARTS`]
/// partitions, reading edges from `g`'s projection.
fn worker<P: VertexProgram>(
    g: &GraphSession,
    program: P,
    superstep: u64,
    num_vertices: u64,
) -> VertexWorker<P> {
    VertexWorker {
        program: Arc::new(program),
        superstep,
        num_vertices,
        prev_aggregates: Arc::new(FxHashMap::default()),
        // Without the combiner a vertex's messages leave in its edges'
        // order, so a misordered run shows in the output.
        use_combiner: false,
        edges: g.edge_projection(1, PARTS).unwrap().0,
    }
}

/// 60 vertices, each with four out-edges listed in descending destination
/// order: the edge table sorts its segments by source only, so the
/// projection has to sort them.
fn graph() -> EdgeList {
    EdgeList::from_pairs(
        (0..60u64).flat_map(|v| (1..5).map(move |d| (v, (v * 7 + 60 - d * 11) % 60))),
    )
}

const PARTS: usize = 3;

/// Holds every partition of `g`'s current worker input to
/// [`assert_layout_invariant`], and demands that the scatter itself handed
/// some worker an unsorted run.
fn assert_partitions_invariant<P: VertexProgram + Clone>(
    g: &GraphSession,
    program: P,
    superstep: u64,
    what: &str,
) {
    let mut unsorted_runs = 0;
    for (p, pieces) in partition_inputs(g, PARTS).into_iter().enumerate() {
        let w = worker(g, program.clone(), superstep, 60);
        let what = format!("{what}, partition {p}");
        unsorted_runs += usize::from(assert_layout_invariant(&w, pieces, &what));
    }
    assert!(unsorted_runs > 0, "{what}: the scatter delivered every partition in order");
}

#[test]
fn worker_sorts_user_inserted_messages() {
    let g = session(&graph());
    vertexica::coordinator::initialize_vertices(&g, &PageRank::new(4, 0.85)).unwrap();
    // Message rows a user INSERTed, out of recipient order.
    g.db()
        .execute(&format!(
            "INSERT INTO {} SELECT (id * 37) % 60, id, value FROM {}",
            g.message_table(),
            g.vertex_table()
        ))
        .unwrap();
    assert_partitions_invariant(&g, PageRank::new(4, 0.85), 1, "inserted messages");
}

#[test]
fn worker_sorts_a_vertex_table_updated_in_place() {
    // SSSP's first superstep replaces the vertex table with one sorted
    // segment per partition; a user's UPDATE then deletes some of its rows
    // and re-inserts them after the segments, out of owner order.
    let g = session(&graph());
    let config = VertexicaConfig::default().with_workers(2).with_partitions(PARTS);
    run_program(&g, Arc::new(Sssp::new(0)), &config.clone().with_max_supersteps(1)).unwrap();
    let updated = g
        .db()
        .execute(&format!("UPDATE {} SET halted = FALSE WHERE id % 7 = 3", g.vertex_table()))
        .unwrap();
    assert!(updated.affected() > 0);
    assert_partitions_invariant(&g, Sssp::new(0), 1, "vertex table updated in place");
    // The run goes on from the updated table to the reference's answer.
    resume_program(&g, Arc::new(Sssp::new(0)), &config).unwrap();
    assert_sssp_from_0_is_the_reference(&g, &graph());
}
