//! The coordinator: a stored procedure that drives supersteps.
//!
//! "The coordinator is the driver program that manages the supersteps … We
//! implement the coordinator as a stored procedure; it runs as long as there
//! is any message for the next superstep" (§2.2). There is one coordinator
//! loop, in [`crate::shard`]: a single-database run is its one-shard case,
//! with no peers to exchange counts or rows with. This module holds the
//! single-database entry points ([`run_program`], [`resume_program`],
//! [`register_as_procedure`]), vertex initialization, and the run's
//! statistics. Every superstep has one shape:
//!
//! 1. assemble worker input ([`crate::input::assemble_chunks`], the vertex ∪
//!    message table union), pulled through scan cursors and streamed chunk by
//!    chunk — the full union never materializes. Workers read out-edges from
//!    the session's [`crate::projection::EdgeProjection`], resolved once
//!    before superstep 0, whose pieces are buffer-pool segments;
//! 2. scatter each chunk by its rows' owner partition
//!    ([`vertexica_storage::partition::owner`]; vertex batching) on a pool
//!    task, into partitions **sealed** by a key-column prescan
//!    ([`crate::input::partition_row_plan`]) that tells each partition how
//!    many rows it will receive — summed over every shard's contribution. A
//!    segment apply wrote holds one owner cell's rows, so it reaches its
//!    partition whole, without a copy;
//! 3. run a partition's worker UDF on the **shared runtime pool**
//!    ([`vertexica_common::runtime::WorkerPool`]) owned by the `Database`
//!    the moment its last row lands — while assemble is still streaming
//!    later chunks. The worker's canonical order is a merge of the sorted
//!    segment runs it was handed; it sorts only input that arrives out of
//!    order. The pool's persistent threads are resized once per run to
//!    `num_workers`; per-worker deques and work stealing smooth out skewed
//!    partitions;
//! 4. apply outputs by replacing tables ([`crate::apply`]): each
//!    partition's output is parsed and scattered into owner cells on the
//!    worker that produced it, and the commit builds one sorted segment per
//!    non-empty cell, in parallel — the aligned input of step 2 next
//!    superstep;
//! 5. aggregator exchange and fold, then the apply commit, which also
//!    stamps the superstep ([`crate::shard`]'s module docs); halt check.
//!
//! Steps 1–3 are [`vertexica_sql::Database::run_transform_pipelined`]; its
//! [`vertexica_sql::engine::PipelinedReport`] is the superstep's
//! assemble/compute accounting. Each superstep's [`SuperstepStats`] carries
//! the pipeline's observability: pool queue-wait, steal and nested-scope
//! counts, compute/assemble overlap, plus peak/total in-flight input bytes.

use std::sync::Arc;

use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{InitContext, VertexProgram};
use vertexica_common::VertexData;
use vertexica_storage::{ColumnBuilder, DataType, RecordBatch, Value};

use crate::config::VertexicaConfig;
use crate::error::{VertexicaError, VertexicaResult};
use crate::projection::EdgeProjection;
use crate::session::{vertex_schema, GraphSession};
use crate::shard::run_shards;

/// Per-superstep observability.
#[derive(Debug, Clone)]
pub struct SuperstepStats {
    /// Superstep number (0-based).
    pub superstep: u64,
    /// Messages delivered into the next superstep.
    pub messages: usize,
    /// Vertices whose value or halt state changed.
    pub vertex_changes: usize,
    /// Whether this superstep changed a vertex, and so replaced the vertex
    /// table (a superstep that changes none leaves it as it is).
    pub replaced: bool,
    /// Wall-clock seconds assembling + partitioning worker input.
    pub assemble_secs: f64,
    /// Wall-clock seconds running worker UDFs, first compute task start to
    /// last finish (each partition's output is absorbed into the apply
    /// buckets inside this window). Overlaps
    /// [`assemble_secs`](Self::assemble_secs) by
    /// [`overlap_secs`](Self::overlap_secs).
    pub compute_secs: f64,
    /// Wall-clock seconds applying outputs (table writes, halt check).
    pub apply_secs: f64,
    /// Width of the apply fan-out: the segments built in parallel, one per
    /// non-empty owner cell — per shard the larger of the message table's
    /// and the replaced vertex table's count, summed over shards.
    pub apply_parallelism: usize,
    /// Seconds worker-UDF compute tasks ran **while assemble was still
    /// streaming chunks** — the overlap the pipelined dataflow exists to
    /// create. Zero on a single-worker pool (nothing is concurrent).
    pub overlap_secs: f64,
    /// Cumulative seconds this superstep's pool tasks spent queued before a
    /// worker picked them up (from [`vertexica_common::runtime::PoolMetrics`]).
    pub queue_wait_secs: f64,
    /// Pool tasks this superstep obtained by work stealing.
    pub steals: u64,
    /// Scopes entered from inside a pool task this superstep (nested
    /// parallelism; no superstep stage opens one, so this reads 0), from
    /// [`vertexica_common::runtime::PoolMetrics::nested_scopes`].
    pub nested_scopes: u64,
    /// Largest single in-flight input chunk, in estimated bytes — on any
    /// multi-chunk input far below [`input_bytes`](Self::input_bytes),
    /// because the input is streamed, never held whole.
    pub peak_batch_bytes: usize,
    /// Total assembled worker input for this superstep, in estimated bytes.
    pub input_bytes: usize,
    /// The most un-emitted **source-scan** data assemble ever held at once,
    /// in estimated bytes. Scans are pulled through cursors, so this is one
    /// in-flight batch per source — strictly below
    /// [`input_bytes`](Self::input_bytes) on any multi-batch input.
    pub peak_resident_scan_bytes: usize,
    /// Compute partitions dispatched by a **seal** — their last planned row
    /// landed while assemble was still streaming — as opposed to the
    /// end-of-stream drain. At most the partition count; zero on a
    /// single-worker pool. Scheduling-dependent: a starved producer can
    /// legitimately see every partition seal only at the end.
    pub early_dispatches: usize,
    /// Write-ahead-log records appended during this superstep (zero on a
    /// non-durable database). The grouped apply commit contributes exactly
    /// one commit record regardless of how many tables it swapped.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log during this superstep,
    /// including frame headers (zero on a non-durable database).
    pub wal_bytes: u64,
    /// Bytes of table images flushed to segment files during this superstep
    /// — the grouped apply commit writes each swapped table's full physical
    /// image (zero on a non-durable database).
    pub flush_bytes: u64,
    /// Peak bytes of ROS segments resident in the storage buffer pool during
    /// this superstep. With a [`memory
    /// budget`](crate::VertexicaConfig::memory_budget_bytes) configured this
    /// stays at or below the budget (modulo the unevictable pinned/dirty
    /// working set); unbounded runs simply report the high-water mark.
    pub resident_bytes: u64,
    /// Cold ROS segments evicted from the buffer pool to disk twins during
    /// this superstep (zero without a memory budget).
    pub evictions: u64,
    /// Evicted ROS segments reloaded from their `.vxtb` spill images because
    /// a scan pinned them during this superstep (zero without a memory
    /// budget).
    pub reloads: u64,
    /// Messages routed to a *different* shard through a cross-shard outbox
    /// this superstep: every shard's outbound count, summed (always zero on
    /// a single-database run).
    pub remote_messages: u64,
    /// Estimated bytes of cross-shard rows pushed through outboxes this
    /// superstep (zero on a single-database run).
    pub routed_bytes: u64,
    /// Shard load skew: max/mean worker-input rows across shards (1.0 for a
    /// single-database run or a perfectly balanced shard set).
    pub shard_skew: f64,
}

/// Whole-run observability.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Supersteps executed by this run.
    pub supersteps: u64,
    /// Total wall-clock seconds, including initialization.
    pub total_secs: f64,
    /// Messages delivered across all supersteps.
    pub total_messages: u64,
    /// Per-superstep breakdown, in execution order.
    pub per_superstep: Vec<SuperstepStats>,
    /// Final aggregator values.
    pub aggregates: FxHashMap<String, f64>,
    /// Seconds this run spent building the session's
    /// [`EdgeProjection`] before superstep 0: the one-off cost of the first
    /// run after a load, an edge mutation, a reopen or a change of shard or
    /// partition count. 0.0 when the cached projection was still current.
    /// Included in [`total_secs`](Self::total_secs).
    pub projection_build_secs: f64,
    /// Estimated bytes of the projection pieces the run read its edges
    /// from: buffer-pool segments, evictable on a durable database.
    pub projection_bytes: usize,
}

/// Initializes the vertex table with the program's initial values (and
/// halted=false), and clears the message table.
pub fn initialize_vertices<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
) -> VertexicaResult<u64> {
    let n = session.num_vertices()?;
    let (edges, _) = session.edge_projection(1, 1)?;
    initialize_vertices_with_total(session, program, n, Vec::new(), &edges)?;
    Ok(n)
}

/// [`initialize_vertices`] with the *global* vertex count supplied by the
/// caller. A shard of a [`crate::shard::ShardedDatabase`] holds only its own
/// vertices, but `InitContext::num_vertices` (e.g. PageRank's `1/N` seed)
/// must reflect the whole graph — so the coordinator passes the cross-shard
/// total while each shard initializes just its local rows.
/// Out-degrees are computed locally from the run's projection `edges`,
/// which is exact because every vertex's outbound edges are colocated with
/// it by the ownership hash.
///
/// `extra` rides the same grouped catalog commit as the vertex/message
/// initialization — a run passes each shard's freshly stamped stamp table
/// here so a crash can never separate an initialized graph from its stamp.
pub(crate) fn initialize_vertices_with_total<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
    num_vertices: u64,
    extra: Vec<(String, vertexica_storage::Table)>,
    edges: &EdgeProjection,
) -> VertexicaResult<()> {
    let degrees = edges.vertex_degrees(session)?;
    let n = num_vertices;
    let mut ids = ColumnBuilder::with_capacity(DataType::Int, degrees.len());
    let mut values = ColumnBuilder::with_capacity(DataType::Blob, degrees.len());
    let mut halted = ColumnBuilder::with_capacity(DataType::Bool, degrees.len());
    for (id, deg) in &degrees {
        let init = InitContext { num_vertices: n, out_degree: *deg };
        let v = program.initial_value(*id, &init);
        ids.push_int(*id as i64);
        values.push_blob_with(|buf| v.encode(buf));
        halted.push(Value::Bool(false)).map_err(VertexicaError::from)?;
    }
    let batch =
        RecordBatch::new(vertex_schema(), vec![ids.finish(), values.finish(), halted.finish()])
            .map_err(VertexicaError::from)?;

    // Swap in freshly built vertex/message contents as ONE grouped catalog
    // commit (not truncate-then-append): on a durable database both tables
    // ride a single atomic WAL commit record, so recovery can never land
    // between an emptied vertex table and its initialization.
    let catalog = session.db().catalog();
    let mut replacements = Vec::with_capacity(2);
    for (name, init) in [(session.vertex_table(), Some(&batch)), (session.message_table(), None)] {
        let table_ref = catalog.get(&name)?;
        let (tname, schema, options) = {
            let guard = table_ref.read();
            (guard.name().to_string(), guard.schema().clone(), guard.options().clone())
        };
        let mut fresh = vertexica_storage::Table::new(tname, schema, options);
        if let Some(batch) = init {
            fresh.append_batch(batch)?;
        }
        replacements.push((name, fresh));
    }
    replacements.extend(extra);
    catalog.replace_contents_many(replacements)?;
    Ok(())
}

/// Runs a vertex program to completion on a graph session: the one
/// coordinator loop over a single shard.
pub fn run_program<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    run_shards(std::slice::from_ref(session), program, config, false)
}

/// Resumes a run from the last superstep its apply committed: the session's
/// stamp names it and carries its output aggregates, and the run continues
/// at the superstep after it. Works in process (after a `max_supersteps`
/// cap, say) and, on a reopened durable database, after a crash. A session
/// that no run ever initialized, or whose stamp is damaged, is a
/// [`VertexicaError::Recovery`] error.
pub fn resume_program<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    run_shards(std::slice::from_ref(session), program, config, true)
}

/// Registers a vertex program as a named stored procedure so it can be
/// invoked with `db.call_procedure(name, &[])` — the deployment shape the
/// paper describes (coordinator = stored procedure inside the database).
/// Returns the procedure name.
pub fn register_as_procedure<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: VertexicaConfig,
) -> String {
    let proc_name = format!("vertexica_{}_{}", session.name(), program.name());
    let session = session.clone();
    session.db().clone().register_procedure(
        &proc_name,
        Arc::new(move |_db, _args| {
            let stats = run_program(&session, program.clone(), &config)
                .map_err(|e| vertexica_sql::SqlError::Execution(e.to_string()))?;
            Ok(Value::Int(stats.supersteps as i64))
        }),
    );
    proc_name
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vertexica_common::graph::EdgeList;
    use vertexica_common::pregel::{VertexContext, VertexContextExt};
    use vertexica_common::VertexId;
    use vertexica_sql::Database;

    /// HashMax connected components: every vertex adopts the largest id seen.
    pub(crate) struct MaxId;
    impl VertexProgram for MaxId {
        type Value = u64;
        type Message = u64;

        fn initial_value(&self, id: VertexId, _init: &InitContext) -> u64 {
            id
        }

        fn compute(&self, ctx: &mut dyn VertexContext<u64, u64>, messages: &[u64]) {
            let best = messages.iter().copied().fold(*ctx.value(), u64::max);
            if best > *ctx.value() || ctx.superstep() == 0 {
                ctx.set_value(best);
                ctx.send_to_all_neighbors(best);
            }
            ctx.vote_to_halt();
        }

        fn combine(&self, a: &u64, b: &u64) -> Option<u64> {
            Some((*a).max(*b))
        }

        fn name(&self) -> &'static str {
            "maxid"
        }
    }

    fn two_components() -> EdgeList {
        // Component A: 0-1-2 (undirected), component B: 3-4.
        EdgeList::from_pairs([(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)])
    }

    fn run_maxid(config: VertexicaConfig) -> Vec<(VertexId, u64)> {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats = run_program(&g, Arc::new(MaxId), &config).unwrap();
        assert!(stats.supersteps >= 2);
        g.vertex_values().unwrap()
    }

    #[test]
    fn converges_to_component_max() {
        let vals = run_maxid(VertexicaConfig::default().with_partitions(4).with_workers(2));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn single_partition_single_worker_same_answer() {
        let vals = run_maxid(VertexicaConfig::default().with_partitions(1).with_workers(1));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn no_combiner_same_answer() {
        let vals = run_maxid(VertexicaConfig::default().with_combiner(false));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn max_supersteps_caps_run() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats =
            run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_max_supersteps(1))
                .unwrap();
        assert_eq!(stats.supersteps, 1);
    }

    #[test]
    fn stats_track_messages_and_replacement() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats = run_program(&g, Arc::new(MaxId), &VertexicaConfig::default()).unwrap();
        assert!(stats.total_messages > 0);
        assert!(stats.per_superstep[0].replaced);
        assert!(stats.per_superstep[0].messages > 0);
        // Final superstep emits nothing.
        assert_eq!(stats.per_superstep.last().unwrap().messages, 0);
    }

    #[test]
    fn projection_degrees_agree_with_the_relational_form() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        // Vertices 0..5; 3 and 4 have no out-edges; 9 is an edge-only source
        // (never in the vertex table), so neither form reports it.
        g.load_edges(&EdgeList::new(
            5,
            vec![(0, 1), (0, 2), (0, 2), (1, 1), (2, 0)]
                .into_iter()
                .map(|(s, d)| vertexica_common::graph::Edge::new(s, d))
                .collect(),
        ))
        .unwrap();
        g.add_edge(9, 0, 1.0, 0, None).unwrap();
        let (projection, _) = g.edge_projection(1, 4).unwrap();
        let from_projection = projection.vertex_degrees(&g).unwrap();
        assert_eq!(from_projection, vec![(0, 3), (1, 1), (2, 1), (3, 0), (4, 0)]);
        let relational: Vec<(VertexId, u64)> = g
            .db()
            .query(
                "SELECT v.id, COUNT(e.src) FROM g_vertex v LEFT JOIN g_edge e ON v.id = e.src \
                 GROUP BY v.id ORDER BY v.id",
            )
            .unwrap()
            .iter()
            .map(|r| (r[0].as_int().unwrap() as VertexId, r[1].as_int().unwrap() as u64))
            .collect();
        assert_eq!(from_projection, relational);
    }

    #[test]
    fn coordinator_shares_the_database_pool() {
        let db = Arc::new(Database::new());
        let pool = db.runtime().clone();
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_workers(3)).unwrap();
        // The run resized the *shared* pool rather than creating its own…
        assert_eq!(pool.size(), 3);
        assert!(Arc::ptr_eq(&pool, db.runtime()));
        // …and a second run on the same database reuses it at a new size.
        run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_workers(2)).unwrap();
        assert_eq!(pool.size(), 2);
    }

    #[test]
    fn runs_as_stored_procedure() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let name = register_as_procedure(&g, Arc::new(MaxId), VertexicaConfig::default());
        let out = db.call_procedure(&name, &[]).unwrap();
        let Value::Int(supersteps) = out else { panic!() };
        assert!(supersteps >= 2);
        let vals: Vec<(VertexId, u64)> = g.vertex_values().unwrap();
        assert_eq!(vals[0], (0, 2));
    }
}
