//! Runtime configuration for the vertex-centric engine.

use std::path::PathBuf;

/// How worker input is assembled from the vertex/edge/message tables (§2.3,
/// "Table Unions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputMode {
    /// Rename the three tables to a common schema and UNION them — the
    /// paper's optimization.
    TableUnion,
    /// The naive 3-way join baseline the paper argues against (kept for the
    /// ablation benchmark).
    ThreeWayJoin,
}

/// Tuning knobs for a vertex-centric run. Defaults follow the paper:
/// workers = cores, a fixed partition count for vertex batching, table-union
/// input, and threshold-based update-vs-replace.
#[derive(Debug, Clone)]
pub struct VertexicaConfig {
    /// Parallel worker UDF instances ("as many workers as the number of
    /// cores").
    pub num_workers: usize,
    /// Hash partitions for vertex batching. More partitions = smaller
    /// batches; the extreme (one vertex per partition) degenerates to one UDF
    /// call per vertex, which §2.3 warns against.
    pub num_partitions: usize,
    /// Worker input assembly strategy.
    pub input_mode: InputMode,
    /// If the fraction of updated vertices is **at or above** this threshold,
    /// rebuild the vertex table — a LEFT-JOIN-equivalent merge of the old
    /// rows with the delta, committed as fresh segments ("replace"); below
    /// it, update in place.
    pub replace_threshold: f64,
    /// Fold messages to the same recipient with the program's combiner (when
    /// the program provides one).
    pub use_combiner: bool,
    /// Upper bound on rows per streamed assemble chunk (default
    /// [`crate::input::STREAM_CHUNK_ROWS`]). Smaller chunks bound peak
    /// in-flight bytes tighter and give the pipelined dispatcher more
    /// scatter granularity; larger chunks amortize per-chunk overhead.
    pub stream_chunk_rows: usize,
    /// Run against a **durable** database: the coordinator checkpoints the
    /// write-ahead-logged catalog before the first superstep and after the
    /// run, so a crash at any point recovers to a committed superstep
    /// boundary (every apply already rides one atomic WAL commit record).
    /// Meaningless (and harmless) on an in-memory
    /// [`vertexica_sql::Database::new`] database — checkpointing a
    /// non-durable catalog is a no-op. Defaults to **off**; the environment
    /// variable `VERTEXICA_DURABLE=1` flips the default on (the hook CI and
    /// the cross-engine harness use to run every algorithm against a
    /// disk-backed database), while [`VertexicaConfig::with_durable`]
    /// always wins.
    pub durable: bool,
    /// Byte budget for the storage-layer segment buffer pool: cold ROS
    /// segments beyond this budget are evicted (clock / second-chance) once
    /// they have a checkpointed `.vxtb` spill image, and reloaded on demand
    /// when a scan pins them — so datasets whose segment bytes exceed RAM
    /// still complete, bitwise-identical to the unbounded run (proven by the
    /// cross-engine equivalence harness). `None` = unbounded (the default);
    /// the environment variable `VERTEXICA_MEMORY_BUDGET` (bytes, with
    /// optional `k`/`kb`/`m`/`mb`/`g`/`gb` suffix) sets the *default*, while
    /// [`VertexicaConfig::with_memory_budget`] always wins. Only effective on
    /// a durable database — without spill images nothing is evictable.
    pub memory_budget_bytes: Option<usize>,
    /// Hard cap on supersteps (safety net on top of the program's own limit).
    pub max_supersteps: u64,
    /// Checkpoint every N supersteps into `checkpoint_dir`.
    pub checkpoint_every: Option<u64>,
    /// Where checkpoints are written.
    pub checkpoint_dir: Option<PathBuf>,
}

/// Default for [`VertexicaConfig::memory_budget_bytes`]: unbounded, unless
/// the `VERTEXICA_MEMORY_BUDGET` environment variable sets a byte budget
/// (plain bytes or `k`/`kb`/`m`/`mb`/`g`/`gb` suffixed, case-insensitive) —
/// the hook the out-of-core CI job uses to run the whole suite under memory
/// pressure.
pub fn memory_budget_default() -> Option<usize> {
    vertexica_storage::buffer_pool::memory_budget_from_env()
}

/// Default for [`VertexicaConfig::durable`]: **off**, unless the
/// `VERTEXICA_DURABLE` environment variable enables it (anything other than
/// unset/`0`/`false`/`off`, case-insensitive) — the hook the durability CI
/// job and the cross-engine harness use to run every algorithm disk-backed.
pub fn durable_default() -> bool {
    match std::env::var("VERTEXICA_DURABLE") {
        Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "" | "0" | "false" | "off"),
        Err(_) => false,
    }
}

impl Default for VertexicaConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        VertexicaConfig {
            num_workers: cores,
            num_partitions: cores * 4,
            input_mode: InputMode::TableUnion,
            replace_threshold: 0.2,
            use_combiner: true,
            stream_chunk_rows: crate::input::STREAM_CHUNK_ROWS,
            durable: durable_default(),
            memory_budget_bytes: memory_budget_default(),
            max_supersteps: 10_000,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }
}

impl VertexicaConfig {
    pub fn with_workers(mut self, n: usize) -> Self {
        self.num_workers = n.max(1);
        self
    }

    pub fn with_partitions(mut self, n: usize) -> Self {
        self.num_partitions = n.max(1);
        self
    }

    pub fn with_input_mode(mut self, mode: InputMode) -> Self {
        self.input_mode = mode;
        self
    }

    pub fn with_replace_threshold(mut self, t: f64) -> Self {
        self.replace_threshold = t.clamp(0.0, 1.0 + f64::EPSILON);
        self
    }

    pub fn with_combiner(mut self, on: bool) -> Self {
        self.use_combiner = on;
        self
    }

    pub fn with_stream_chunk_rows(mut self, rows: usize) -> Self {
        self.stream_chunk_rows = rows.max(1);
        self
    }

    pub fn with_durable(mut self, on: bool) -> Self {
        self.durable = on;
        self
    }

    pub fn with_memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.memory_budget_bytes = bytes;
        self
    }

    pub fn with_max_supersteps(mut self, n: u64) -> Self {
        self.max_supersteps = n;
        self
    }

    pub fn with_checkpointing(mut self, every: u64, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_every = Some(every.max(1));
        self.checkpoint_dir = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = VertexicaConfig::default();
        assert!(c.num_workers >= 1);
        assert!(c.num_partitions >= c.num_workers);
        assert_eq!(c.input_mode, InputMode::TableUnion);
        assert!(c.replace_threshold > 0.0 && c.replace_threshold < 1.0);
    }

    #[test]
    fn builders_clamp() {
        let c = VertexicaConfig::default().with_workers(0).with_partitions(0);
        assert_eq!(c.num_workers, 1);
        assert_eq!(c.num_partitions, 1);
        let c = VertexicaConfig::default().with_replace_threshold(-3.0);
        assert_eq!(c.replace_threshold, 0.0);
    }
}
