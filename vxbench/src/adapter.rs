//! The benchmark's contract with the engine's statistics structs.
//!
//! Every read of a `RunStats`, `SuperstepStats`, `DurabilityStats` or
//! `PoolStats` field happens in this file and nowhere else, so an engine
//! change that renames or reshapes one of them breaks exactly one function
//! here. The fields read are listed in this directory's README.

use vertexica::sql::Database;
use vertexica::RunStats;

use crate::trace::PhaseSecs;

/// Per-layer sums and maxima of one run's `RunStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunCounters {
    pub phases: PhaseSecs,
    // core::coordinator
    pub supersteps: u64,
    // core::input
    pub input_bytes: u64,
    pub early_dispatches: u64,
    // core::worker
    pub messages: u64,
    pub peak_batch_bytes: u64,
    // core::apply
    pub vertex_changes: u64,
    pub replaced_supersteps: u64,
    pub apply_parallelism: u64,
    // common::runtime
    pub queue_wait_s: f64,
    pub steals: u64,
    pub nested_scopes: u64,
    // core::shard
    pub remote_messages: u64,
    pub routed_bytes: u64,
    pub shard_skew: f64,
    // storage::wal + storage::persist
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub flush_bytes: u64,
    // storage::buffer_pool
    pub evictions: u64,
    pub reloads: u64,
    pub peak_resident_bytes: u64,
}

/// Folds a run's per-superstep statistics into per-layer counters: times and
/// counts are summed over supersteps, high-water marks are maxima.
pub fn run_counters(stats: &RunStats) -> RunCounters {
    let mut c = RunCounters {
        supersteps: stats.supersteps,
        messages: stats.total_messages,
        ..RunCounters::default()
    };
    for s in &stats.per_superstep {
        c.phases.assemble += s.assemble_secs;
        c.phases.compute += s.compute_secs;
        c.phases.apply += s.apply_secs;
        c.phases.overlap += s.overlap_secs;
        c.input_bytes += s.input_bytes as u64;
        c.early_dispatches += s.early_dispatches as u64;
        c.peak_batch_bytes = c.peak_batch_bytes.max(s.peak_batch_bytes as u64);
        c.vertex_changes += s.vertex_changes as u64;
        c.replaced_supersteps += u64::from(s.replaced);
        c.apply_parallelism = c.apply_parallelism.max(s.apply_parallelism as u64);
        c.queue_wait_s += s.queue_wait_secs;
        c.steals += s.steals;
        c.nested_scopes += s.nested_scopes;
        c.remote_messages += s.remote_messages;
        c.routed_bytes += s.routed_bytes;
        c.shard_skew = c.shard_skew.max(s.shard_skew);
        c.wal_records += s.wal_records;
        c.wal_bytes += s.wal_bytes;
        c.flush_bytes += s.flush_bytes;
        c.evictions += s.evictions;
        c.reloads += s.reloads;
        c.peak_resident_bytes = c.peak_resident_bytes.max(s.resident_bytes);
    }
    c
}

/// Cumulative `(commits, checkpoints)` of a database's write-ahead log;
/// zeros for an in-memory database.
pub fn commits_and_checkpoints(db: &Database) -> (u64, u64) {
    db.durability_stats().map_or((0, 0), |d| (d.commits, d.checkpoints))
}

/// Bytes of table segments resident in the database's buffer pool.
pub fn resident_bytes(db: &Database) -> u64 {
    db.catalog().buffer_pool().stats().resident_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertexica::SuperstepStats;

    fn superstep(i: u64) -> SuperstepStats {
        SuperstepStats {
            superstep: i,
            messages: 100,
            vertex_changes: 10,
            replaced: i == 0,
            assemble_secs: 1.0,
            compute_secs: 2.0,
            apply_secs: 0.5,
            apply_parallelism: 4 + i as usize,
            overlap_secs: 0.25,
            queue_wait_secs: 0.125,
            steals: 3,
            nested_scopes: 1,
            peak_batch_bytes: 1000 * (i as usize + 1),
            input_bytes: 5000,
            peak_resident_scan_bytes: 0,
            early_dispatches: 2,
            wal_records: 7,
            wal_bytes: 700,
            flush_bytes: 7000,
            resident_bytes: 900 - 100 * i,
            evictions: 5,
            reloads: 4,
            remote_messages: 50,
            routed_bytes: 800,
            shard_skew: 1.0 + i as f64 / 10.0,
        }
    }

    #[test]
    fn sums_counts_and_takes_maxima() {
        let stats = RunStats {
            supersteps: 2,
            total_messages: 200,
            per_superstep: vec![superstep(0), superstep(1)],
            ..RunStats::default()
        };
        let c = run_counters(&stats);
        assert_eq!(c.phases, PhaseSecs { assemble: 2.0, compute: 4.0, apply: 1.0, overlap: 0.5 });
        assert_eq!((c.supersteps, c.messages), (2, 200));
        assert_eq!((c.input_bytes, c.early_dispatches, c.vertex_changes), (10_000, 4, 20));
        assert_eq!((c.replaced_supersteps, c.apply_parallelism, c.peak_batch_bytes), (1, 5, 2000));
        assert_eq!((c.queue_wait_s, c.steals, c.nested_scopes), (0.25, 6, 2));
        assert_eq!((c.remote_messages, c.routed_bytes, c.shard_skew), (100, 1600, 1.1));
        assert_eq!((c.wal_records, c.wal_bytes, c.flush_bytes), (14, 1400, 14_000));
        assert_eq!((c.evictions, c.reloads, c.peak_resident_bytes), (10, 8, 900));
    }

    #[test]
    fn in_memory_database_has_no_durability_counters() {
        let db = Database::new();
        assert_eq!(commits_and_checkpoints(&db), (0, 0));
        assert_eq!(resident_bytes(&db), 0);
    }
}
