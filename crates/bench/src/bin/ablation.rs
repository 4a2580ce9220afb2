//! Ablation benchmarks for the four §2.3 optimizations.
//!
//! ```text
//! cargo run -p vertexica-bench --release --bin ablation -- \
//!     [--exp union-vs-join|worker-scaling|batching|update-vs-replace|pool-size|wal|evict|shard|all]
//! ```

use std::sync::Arc;

use vertexica::{run_program, InputMode, VertexicaConfig};
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_bench::{figure2_dataset, fresh_session, HarnessConfig};
use vertexica_common::timer::Stopwatch;
use vertexica_common::WorkerPool;
use vertexica_sql::Database;
use vertexica_storage::{DataType, RecordBatch};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("all")
        .to_string();

    let cfg = HarnessConfig::from_env();
    // Ablations use the small (Twitter-profile) dataset so every variant —
    // including the deliberately slow ones — completes.
    let graph = figure2_dataset("twitter", &cfg);
    println!(
        "# Ablations on twitter profile at scale {}: {} nodes, {} edges\n",
        cfg.scale,
        graph.num_vertices,
        graph.num_edges()
    );

    if exp == "union-vs-join" || exp == "all" {
        println!("## §2.3 Table Unions: input assembly strategy (PageRank)");
        for (label, mode) in
            [("table-union", InputMode::TableUnion), ("3-way-join", InputMode::ThreeWayJoin)]
        {
            let session = fresh_session(&graph);
            let config = VertexicaConfig::default().with_input_mode(mode);
            let sw = Stopwatch::start();
            run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
            println!("{label:<14} {:.3}s", sw.elapsed_secs());
        }
        println!();
    }

    if exp == "worker-scaling" || exp == "all" {
        println!("## §2.3 Parallel Workers: worker count (PageRank)");
        for workers in [1usize, 2, 4, 8] {
            let session = fresh_session(&graph);
            let config = VertexicaConfig::default().with_workers(workers);
            let sw = Stopwatch::start();
            run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
            println!("workers={workers:<3} {:.3}s", sw.elapsed_secs());
        }
        println!();
    }

    if exp == "batching" || exp == "all" {
        println!("## §2.3 Vertex Batching: partition count (PageRank)");
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        for partitions in [1, cores, cores * 4, cores * 16, cores * 64] {
            let session = fresh_session(&graph);
            let config = VertexicaConfig::default().with_partitions(partitions);
            let sw = Stopwatch::start();
            run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
            println!("partitions={partitions:<6} {:.3}s", sw.elapsed_secs());
        }
        println!();
    }

    if exp == "pool-size" || exp == "all" {
        println!("## Shared runtime: pool-size sweep on one persistent session");
        println!("# Unlike worker-scaling, each session (and its Database pool) is");
        println!("# created once per dataset and resized in place between runs,");
        println!("# isolating the runtime's scaling from graph-reload cost.");
        println!("# The micro (1k-vertex) dataset is deliberately included as the");
        println!("# flat baseline; the larger generator scales are where parallel");
        println!("# scaling regressions become visible. Queue-wait / steal counts");
        println!("# come from the per-superstep runtime metrics.");
        // Sweep the Figure-2 generators at increasing scale multipliers.
        // `VERTEXICA_POOL_SWEEP_MULTS` overrides the multiplier list.
        let mults: Vec<f64> = std::env::var("VERTEXICA_POOL_SWEEP_MULTS")
            .map(|s| s.split(',').filter_map(|v| v.trim().parse().ok()).collect())
            .unwrap_or_else(|_| vec![1.0, 4.0, 16.0]);
        for mult in mults {
            let scaled = vertexica_graphgen::dataset("twitter", cfg.scale * mult, cfg.seed)
                .expect("twitter profile");
            println!(
                "### twitter ×{mult}: {} nodes, {} edges",
                scaled.num_vertices,
                scaled.num_edges()
            );
            let session = fresh_session(&scaled);
            let mut baseline = None;
            for pool_size in [1usize, 2, 4, 8, 16] {
                // run_program resizes the session's shared pool to num_workers.
                let config = VertexicaConfig::default().with_workers(pool_size);
                let sw = Stopwatch::start();
                let stats =
                    run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
                let secs = sw.elapsed_secs();
                let speedup = baseline.get_or_insert(secs).max(1e-12) / secs.max(1e-12);
                let queue_wait: f64 = stats.per_superstep.iter().map(|s| s.queue_wait_secs).sum();
                let steals: u64 = stats.per_superstep.iter().map(|s| s.steals).sum();
                let overlap: f64 = stats.per_superstep.iter().map(|s| s.overlap_secs).sum();
                let peak =
                    stats.per_superstep.iter().map(|s| s.peak_batch_bytes).max().unwrap_or(0);
                let apply: f64 = stats.per_superstep.iter().map(|s| s.apply_secs).sum();
                let apply_par =
                    stats.per_superstep.iter().map(|s| s.apply_parallelism).max().unwrap_or(1);
                println!(
                    "pool={pool_size:<3} {secs:.3}s  speedup×{speedup:<5.2} \
                     apply={apply:.3}s(×{apply_par}) \
                     overlap={overlap:.3}s queue-wait={queue_wait:.3}s steals={steals} \
                     peak-batch={peak}B"
                );
            }
            println!();
        }
    }

    if exp == "wal" || exp == "all" {
        wal_ablation(&graph, &cfg);
    }

    if exp == "evict" || exp == "all" {
        evict_ablation(&graph, &cfg);
    }

    if exp == "shard" || exp == "all" {
        shard_ablation(&graph, &cfg);
    }

    if exp == "update-vs-replace" || exp == "all" {
        println!("## §2.3 Update vs Replace: threshold sweep");
        println!("# PageRank touches every vertex each superstep (dense updates);");
        println!("# SSSP touches a shrinking frontier (sparse updates).");
        for (wl, dense) in [("pagerank", true), ("sssp", false)] {
            for threshold in [0.0, 0.2, 0.5, 1.01] {
                let session = fresh_session(&graph);
                let config = VertexicaConfig::default().with_replace_threshold(threshold);
                let sw = Stopwatch::start();
                let stats = if dense {
                    run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap()
                } else {
                    run_program(&session, Arc::new(Sssp::new(0)), &config).unwrap()
                };
                let replaced = stats.per_superstep.iter().filter(|s| s.replaced).count();
                println!(
                    "{wl:<9} threshold={threshold:<5} {:.3}s  (replaced {}/{} supersteps)",
                    sw.elapsed_secs(),
                    replaced,
                    stats.per_superstep.len()
                );
            }
        }
    }
}

/// Durability ablation: the same PageRank run in-memory, write-ahead-logged
/// without fsync, and fully fsynced — isolating what the WAL append, the
/// grouped-commit table flushes, and `fsync` each cost. Writes
/// `BENCH_pr7.json` into the current directory.
fn wal_ablation(graph: &vertexica_common::graph::EdgeList, cfg: &HarnessConfig) {
    println!("## Durability: WAL + grouped-commit flush + fsync (PageRank)");
    println!("# in-memory: the baseline database (no durability);");
    println!("# wal-nosync: every superstep apply rides one atomic WAL commit");
    println!("#   record and flushes the swapped tables' images (OS-cached);");
    println!("# wal-fsync: the same, with fsync before each acknowledgment.");
    let mut lines = Vec::new();
    for (label, durable, sync) in
        [("in-memory", false, false), ("wal-nosync", true, false), ("wal-fsync", true, true)]
    {
        let (session, dir) = if durable {
            let dir =
                std::env::temp_dir().join(format!("vx_bench_wal_{}_{label}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let db = Database::open_with(&dir, Arc::new(WorkerPool::with_default_size()), sync);
            let db = Arc::new(db.expect("open durable bench db"));
            let session = vertexica::GraphSession::create(db, "bench").expect("create session");
            session.load_edges(graph).expect("load edges");
            (session, Some(dir))
        } else {
            (fresh_session(graph), None)
        };
        let config = VertexicaConfig::default().with_durable(durable);
        let sw = Stopwatch::start();
        let stats = run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
        let secs = sw.elapsed_secs();
        let wal_records: u64 = stats.per_superstep.iter().map(|s| s.wal_records).sum();
        let wal_bytes: u64 = stats.per_superstep.iter().map(|s| s.wal_bytes).sum();
        let flush_bytes: u64 = stats.per_superstep.iter().map(|s| s.flush_bytes).sum();
        let totals = session.db().durability_stats().unwrap_or_default();
        println!(
            "{label:<11} {secs:.3}s  wal-records={wal_records} wal-bytes={wal_bytes}B \
             flush-bytes={flush_bytes}B commits={} checkpoints={} rotations={}",
            totals.commits, totals.checkpoints, totals.rotations
        );
        lines.push(format!(
            "    {{\"label\": \"{label}\", \"secs\": {secs:.6}, \"wal_records\": {wal_records}, \
             \"wal_bytes\": {wal_bytes}, \"flush_bytes\": {flush_bytes}, \
             \"commits\": {}, \"checkpoints\": {}, \"rotations\": {}}}",
            totals.commits, totals.checkpoints, totals.rotations
        ));
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"wal\",\n  \"cores\": {cores},\n  \"scale\": {},\n  \
         \"workload\": \"pagerank x5 on twitter profile\",\n  \"variants\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        lines.join(",\n")
    );
    std::fs::write("BENCH_pr7.json", &json).expect("write BENCH_pr7.json");
    println!("wrote BENCH_pr7.json");
    println!();
}

/// Out-of-core ablation: the same durable PageRank run with the segment
/// buffer pool unbounded, then squeezed to fractions of the checkpointed
/// footprint — isolating what clock eviction and reload-on-miss cost (and
/// proving the budgeted runs stay at or below their cap while producing the
/// same ranks). Writes `BENCH_pr8.json` into the current directory.
fn evict_ablation(graph: &vertexica_common::graph::EdgeList, cfg: &HarnessConfig) {
    use vertexica::session::edge_schema;
    use vertexica_common::graph::EdgeList;
    use vertexica_storage::ColumnBuilder;

    println!("## Out-of-core: segment buffer pool budget sweep (PageRank, durable)");
    println!("# Edges load in small append batches so the checkpointed graph spans");
    println!("# many ROS segments (the segment is the eviction granule — a budget");
    println!("# only binds if it exceeds the largest pinned segment). Each variant");
    println!("# caps the pool at a fraction of the unbounded footprint; evictions /");
    println!("# reloads are spill-twin round-trips, peak-resident is the per-");
    println!("# superstep high-water mark of pooled bytes.");

    // Finely segmented load: vertices via the normal path, then edges in
    // small append batches (one WOS moveout -> one ROS segment each).
    let load = |session: &vertexica::GraphSession| {
        let base = EdgeList::new(graph.num_vertices, vec![]);
        session.load_edges(&base).expect("load vertices");
        for chunk in graph.edges.chunks(512) {
            let mut src = ColumnBuilder::new(DataType::Int);
            let mut dst = ColumnBuilder::new(DataType::Int);
            let mut weight = ColumnBuilder::new(DataType::Float);
            let mut created = ColumnBuilder::new(DataType::Int);
            let mut etype = ColumnBuilder::new(DataType::Str);
            for e in chunk {
                src.push_int(e.src as i64);
                dst.push_int(e.dst as i64);
                weight.push_float(e.weight);
                created.push_int(0);
                etype.push_null();
            }
            let batch = RecordBatch::new(
                edge_schema(),
                vec![src.finish(), dst.finish(), weight.finish(), created.finish(), etype.finish()],
            )
            .expect("edge batch");
            session.db().append_batches(&session.edge_table(), &[batch]).expect("append edges");
        }
    };

    let mut lines = Vec::new();
    let mut footprint = 0usize;
    let mut reference: Option<Vec<(i64, Option<Vec<u8>>)>> = None;
    for (label, fraction) in
        [("unbounded", None), ("budget-1/2", Some(0.5f64)), ("budget-1/4", Some(0.25f64))]
    {
        let dir =
            std::env::temp_dir().join(format!("vx_bench_evict_{}_{label}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = Database::open_with(&dir, Arc::new(WorkerPool::with_default_size()), false);
        let db = Arc::new(db.expect("open durable bench db"));
        let session = vertexica::GraphSession::create(db.clone(), "bench").expect("create session");
        load(&session);
        db.checkpoint().expect("checkpoint load");
        if footprint == 0 {
            footprint = db.catalog().buffer_pool().stats().resident_bytes as usize;
        }
        let budget = fraction.map(|f| ((footprint as f64) * f) as usize);
        let config = VertexicaConfig::default().with_durable(true).with_memory_budget(budget);
        let sw = Stopwatch::start();
        let stats = run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
        let secs = sw.elapsed_secs();
        let evictions: u64 = stats.per_superstep.iter().map(|s| s.evictions).sum();
        let reloads: u64 = stats.per_superstep.iter().map(|s| s.reloads).sum();
        let peak = stats.per_superstep.iter().map(|s| s.resident_bytes).max().unwrap_or(0);
        let ranks: Vec<(i64, Option<Vec<u8>>)> = {
            let batches =
                session.db().scan_table(&session.vertex_table(), None, &[]).expect("rank scan");
            let mut rows = Vec::new();
            for b in &batches {
                for i in 0..b.num_rows() {
                    let row = b.row(i);
                    rows.push((row[0].as_int().expect("id"), row[1].as_blob().map(|v| v.to_vec())));
                }
            }
            rows.sort();
            rows
        };
        match &reference {
            None => reference = Some(ranks),
            Some(expected) => {
                assert_eq!(&ranks, expected, "{label}: budgeted ranks diverged from unbounded")
            }
        }
        if let Some(b) = budget {
            assert!(evictions > 0, "{label}: a below-footprint budget must force evictions");
            assert!(peak <= b as u64, "{label}: peak residency {peak} exceeds the {b}-byte budget");
        }
        let budget_str = budget.map_or("null".to_string(), |b| b.to_string());
        println!(
            "{label:<11} {secs:.3}s  budget={}B evictions={evictions} reloads={reloads} \
             peak-resident={peak}B",
            budget.map_or("∞".to_string(), |b| b.to_string())
        );
        lines.push(format!(
            "    {{\"label\": \"{label}\", \"secs\": {secs:.6}, \"budget_bytes\": {budget_str}, \
             \"footprint_bytes\": {footprint}, \"evictions\": {evictions}, \
             \"reloads\": {reloads}, \"peak_resident_bytes\": {peak}}}"
        ));
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"evict\",\n  \"cores\": {cores},\n  \"scale\": {},\n  \
         \"workload\": \"pagerank x5 on twitter profile, durable, finely segmented edges\",\n  \
         \"variants\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        lines.join(",\n")
    );
    std::fs::write("BENCH_pr8.json", &json).expect("write BENCH_pr8.json");
    println!("wrote BENCH_pr8.json");
    println!();
}

/// Sharded-execution ablation: the same PageRank run on 1, 2 and 4 engine
/// shards — isolating what graph partitioning, outbox routing and
/// prescan-sealed cross-shard dataflow cost (and what they move: remote
/// rows, routed bytes, load skew, early partition seals). On few-core hosts
/// the routing counters — not wall clock — are the experiment; the JSON
/// discloses the core count for exactly that reason. Writes
/// `BENCH_pr9.json` into the current directory.
fn shard_ablation(graph: &vertexica_common::graph::EdgeList, cfg: &HarnessConfig) {
    use vertexica::shard::{run_sharded, ShardedDatabase, ShardedGraphSession};

    println!("## Sharded execution: shard-count sweep (PageRank, in-memory)");
    println!("# Ownership is the engine-wide key hash over vertex id, so vertex");
    println!("# rows, outbound edges and inbound messages are shard-local by");
    println!("# construction — only produced messages route, through lock-free");
    println!("# per-(src,dst) outboxes while both sides still stream. remote-rows /");
    println!("# routed-bytes count that traffic; skew is the max/mean worker-input");
    println!("# ratio across shards; early-dispatches are partitions sealed by the");
    println!("# summed prescan counts before end-of-stream. shards=1 is the same");
    println!("# loop with no peers — what run_program runs.");
    // The combiner is pinned off on every variant (the sharded coordinator
    // coerces it off; the 1-shard baseline must run the same fold), so ranks
    // are bitwise-comparable across the sweep.
    let config = VertexicaConfig::default()
        .with_workers(4)
        .with_partitions(16)
        .with_combiner(false)
        .with_replace_threshold(0.0);
    let mut lines = Vec::new();
    let mut reference: Option<Vec<(vertexica_common::VertexId, f64)>> = None;
    for shards in [1usize, 2, 4] {
        let db = ShardedDatabase::new(shards);
        let ss = ShardedGraphSession::create(db, "bench").expect("create sharded session");
        ss.load_edges(graph).expect("load edges");
        let sw = Stopwatch::start();
        let stats = run_sharded(&ss, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
        let secs = sw.elapsed_secs();
        let remote: u64 = stats.per_superstep.iter().map(|s| s.remote_messages).sum();
        let routed: u64 = stats.per_superstep.iter().map(|s| s.routed_bytes).sum();
        let early: usize = stats.per_superstep.iter().map(|s| s.early_dispatches).sum();
        let skew = stats.per_superstep.iter().map(|s| s.shard_skew).fold(1.0f64, f64::max);
        let ranks: Vec<(vertexica_common::VertexId, f64)> =
            ss.vertex_values().expect("readable ranks");
        match &reference {
            None => reference = Some(ranks),
            Some(expected) => {
                assert_eq!(&ranks, expected, "shards={shards}: ranks diverged from 1-shard")
            }
        }
        println!(
            "shards={shards:<2} {secs:.3}s  remote-rows={remote} routed-bytes={routed}B \
             skew={skew:.3} early-dispatches={early} supersteps={}",
            stats.supersteps
        );
        lines.push(format!(
            "    {{\"shards\": {shards}, \"secs\": {secs:.6}, \"remote_messages\": {remote}, \
             \"routed_bytes\": {routed}, \"shard_skew\": {skew:.4}, \
             \"early_dispatches\": {early}, \"supersteps\": {}}}",
            stats.supersteps
        ));
    }
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"shard\",\n  \"cores\": {cores},\n  \"scale\": {},\n  \
         \"workload\": \"pagerank x5 on twitter profile, in-memory, combiner off\",\n  \
         \"note\": \"routing counters are the experiment on few-core hosts; \
         wall-clock deltas are not meaningful at cores={cores}\",\n  \"variants\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        lines.join(",\n")
    );
    std::fs::write("BENCH_pr9.json", &json).expect("write BENCH_pr9.json");
    println!("wrote BENCH_pr9.json");
    println!();
}
