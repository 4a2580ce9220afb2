//! Runtime configuration for the vertex-centric engine. A config is what
//! its caller builds: no default reads the environment, so the same code
//! runs the same configuration in every process.

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
    /// it, update in place. A durable database always replaces, so every
    /// superstep commits atomically.
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
    /// run. Every superstep's vertex table, message table and stamp ride one
    /// atomic WAL commit record (a durable database always takes the
    /// replace arm), so a crash at any point recovers to a committed
    /// superstep boundary, and [`crate::coordinator::resume_program`] runs
    /// on from it. Meaningless (and harmless) on an in-memory
    /// [`vertexica_sql::Database::new`] database — checkpointing a
    /// non-durable catalog is a no-op. Defaults to **off**.
    pub durable: bool,
    /// Byte budget for the storage-layer segment buffer pool: cold ROS
    /// segments beyond this budget are evicted (clock / second-chance) once
    /// they have a checkpointed `.vxtb` spill image, and reloaded on demand
    /// when a scan pins them — so datasets whose segment bytes exceed RAM
    /// still complete, bitwise-identical to the unbounded run (proven by the
    /// cross-engine equivalence harness). `None` (the default) leaves the
    /// pool's budget as it is. Only effective on a durable database —
    /// without spill images nothing is evictable.
    pub memory_budget_bytes: Option<usize>,
    /// Hard cap on supersteps (safety net on top of the program's own limit).
    pub max_supersteps: u64,
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
            durable: false,
            memory_budget_bytes: None,
            max_supersteps: 10_000,
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
