//! Hash partitioning of record batches.
//!
//! This is the mechanism behind the paper's *vertex batching* optimization
//! (§2.3): the table union is hash-partitioned on the vertex id into a fixed
//! number of partitions; each worker UDF then processes one partition,
//! executing the vertex program serially within it. It is also reused by the
//! SQL engine for parallel hash joins and aggregations.

use crate::batch::RecordBatch;
use crate::error::{StorageError, StorageResult};
use vertexica_common::hash::mix64;

/// Where vertex `id` lives: `(shard, partition)`, the shard `h % num_shards`
/// and the compute partition `(h / num_shards) % num_partitions` of one hash
/// `h = mix64(mix64(id))`. This is the engine's one ownership rule: the
/// sharded load places rows by it, [`split_batch`] scatters a chunk by it
/// (the hash of a one-column Int key in [`partition_assignments`]), apply
/// writes one segment per `(shard, partition)` cell by it, and the edge
/// projection keeps one piece per partition by it, so the segments apply
/// writes come back to the next superstep's scatter whole.
///
/// The partition divides the shard's share out of the hash first: with
/// `h % num_partitions`, a shard count and a partition count with a common
/// factor `g` would leave shard `k` only the partitions `p ≡ k (mod g)`. At
/// one shard the partition is `h % num_partitions`.
pub fn owner(id: i64, num_shards: usize, num_partitions: usize) -> (usize, usize) {
    assert!(num_shards > 0 && num_partitions > 0, "shard and partition counts must be positive");
    // Column::hash_combine for an Int column folded into a zero seed:
    // h = mix64(rotl(0, 23) ^ mix64(key)).
    let h = mix64(mix64(id as u64));
    ((h % num_shards as u64) as usize, partition_of(h, num_shards, num_partitions))
}

/// The partition half of [`owner`] for key hash `h`.
#[inline]
pub fn partition_of(h: u64, num_shards: usize, num_partitions: usize) -> usize {
    ((h / num_shards as u64) % num_partitions as u64) as usize
}

/// Computes, for every row across `batches`, the target partition in
/// `0..num_partitions` by hashing the `key_columns`: `h % num_partitions`,
/// which is [`owner`]'s partition at one shard and its shard at one
/// partition.
pub fn partition_assignments(
    batches: &[RecordBatch],
    key_columns: &[usize],
    num_partitions: usize,
) -> Vec<Vec<usize>> {
    assert!(num_partitions > 0, "num_partitions must be positive");
    batches.iter().map(|batch| assignments(batch, key_columns, 1, num_partitions)).collect()
}

/// [`partition_of`] for every row of `batch`.
fn assignments(
    batch: &RecordBatch,
    key_columns: &[usize],
    num_shards: usize,
    num_partitions: usize,
) -> Vec<usize> {
    let mut hashes = vec![0u64; batch.num_rows()];
    for &k in key_columns {
        batch.column(k).hash_combine(&mut hashes);
    }
    hashes.iter().map(|&h| partition_of(h, num_shards, num_partitions)).collect()
}

/// Splits `batches` into `num_partitions` groups of batches by hashing the
/// key columns. Every input row lands in exactly one output partition; rows
/// with equal keys land in the same partition.
///
/// This is the one-shot (fully materialized) form; callers that produce
/// their input incrementally should use [`StreamingPartitioner`] instead so
/// the unpartitioned input never has to exist in full.
pub fn hash_partition(
    batches: &[RecordBatch],
    key_columns: &[usize],
    num_partitions: usize,
) -> StorageResult<Vec<Vec<RecordBatch>>> {
    let mut partitioner = StreamingPartitioner::new(key_columns.to_vec(), num_partitions);
    for batch in batches {
        partitioner.push(batch)?;
    }
    Ok(partitioner.finish())
}

/// Splits one chunk into per-partition pieces by hashing `key_columns` —
/// the pure scatter step of [`StreamingPartitioner::push`], exposed so
/// concurrent callers (the pipelined superstep dispatcher runs one scatter
/// task per chunk on the worker pool) can hash and copy rows *outside* the
/// lock guarding the shared partitioner, then [`StreamingPartitioner::absorb`]
/// the pieces under it. Only non-empty pieces are returned.
///
/// A row goes to [`partition_of`] its hash: the compute partition [`owner`]
/// gives it within one shard of a `num_shards`-shard run. With
/// `num_shards = 1` that is `h % num_partitions`, which is also how a chunk
/// is split across `num_partitions` *shards*.
pub fn split_batch(
    batch: &RecordBatch,
    key_columns: &[usize],
    num_shards: usize,
    num_partitions: usize,
) -> StorageResult<Vec<(usize, RecordBatch)>> {
    assert!(num_shards > 0 && num_partitions > 0, "shard and partition counts must be positive");
    if batch.num_rows() == 0 {
        return Ok(Vec::new());
    }
    if num_partitions == 1 {
        return Ok(vec![(0, batch.clone())]);
    }
    let assign = assignments(batch, key_columns, num_shards, num_partitions);
    // A chunk whose rows all land in one partition (a segment apply wrote
    // for one owner cell) is handed over whole, without a copy.
    let first = assign[0];
    if assign.iter().all(|&p| p == first) {
        return Ok(vec![(first, batch.clone())]);
    }
    let mut indices: Vec<Vec<usize>> = vec![Vec::new(); num_partitions];
    for (row, &p) in assign.iter().enumerate() {
        indices[p].push(row);
    }
    let mut pieces = Vec::new();
    for (p, idx) in indices.into_iter().enumerate() {
        if !idx.is_empty() {
            pieces.push((p, batch.take(&idx)?));
        }
    }
    Ok(pieces)
}

/// Incremental hash partitioning: feed input one [`RecordBatch`] chunk at a
/// time and the chunk's rows are scattered to their partitions immediately,
/// so the caller can drop each chunk right after pushing it. Compared to
/// [`hash_partition`] on a fully assembled input, peak memory drops from
/// roughly 2× the input (input + its partitioned copy) to 1× plus a single
/// chunk — the streaming half of the superstep hot path.
///
/// Rows with equal keys always land in the same partition, regardless of
/// which chunk carried them.
///
/// # Per-partition completion detection
///
/// A partitioner built with [`StreamingPartitioner::with_expected_rows`]
/// additionally knows, per partition, how many input rows it will
/// eventually receive (the chunk sources declare what they can still touch
/// — in practice a cheap key-column prescan). The moment a partition's last
/// expected row is scattered the partition **seals**: [`absorb`] hands its
/// accumulated batches back to the caller, which can start computing on
/// them while later chunks are still streaming — the heart of the pipelined
/// superstep. Without a plan (the crash-repair re-run, whose remote input
/// is not prescanned) nothing seals until [`drain_unsealed`] is called at
/// end-of-stream.
///
/// [`absorb`]: StreamingPartitioner::absorb
/// [`drain_unsealed`]: StreamingPartitioner::drain_unsealed
#[derive(Debug)]
pub struct StreamingPartitioner {
    key_columns: Vec<usize>,
    partitions: Vec<Vec<RecordBatch>>,
    /// Rows each partition still expects before sealing (`None`: open-ended,
    /// seal only at [`StreamingPartitioner::drain_unsealed`]).
    remaining: Option<Vec<u64>>,
    /// Partitions already handed out by seal or drain; guards double-takes.
    sealed: Vec<bool>,
}

impl StreamingPartitioner {
    /// A partitioner hashing `key_columns` into `num_partitions` outputs,
    /// with no completion plan (partitions never seal early).
    pub fn new(key_columns: Vec<usize>, num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "num_partitions must be positive");
        StreamingPartitioner {
            key_columns,
            partitions: vec![Vec::new(); num_partitions],
            remaining: None,
            sealed: vec![false; num_partitions],
        }
    }

    /// A partitioner that seals each partition the moment its declared row
    /// count has been scattered. `expected_rows[p]` is the total number of
    /// input rows (across all chunks and sources) hashing to partition `p`;
    /// partitions expecting zero rows are sealed (empty) from the start.
    pub fn with_expected_rows(
        key_columns: Vec<usize>,
        num_partitions: usize,
        expected_rows: Vec<u64>,
    ) -> Self {
        assert_eq!(expected_rows.len(), num_partitions, "plan arity must match partitions");
        let mut p = Self::new(key_columns, num_partitions);
        p.sealed = expected_rows.iter().map(|&n| n == 0).collect();
        p.remaining = Some(expected_rows);
        p
    }

    /// The configured number of output partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The key columns rows are hashed on.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Scatters one input chunk across the partitions (sealing, if a plan
    /// is armed, is reported by [`StreamingPartitioner::absorb`]; `push`
    /// keeps everything accumulated for [`StreamingPartitioner::finish`]).
    pub fn push(&mut self, batch: &RecordBatch) -> StorageResult<()> {
        let pieces = split_batch(batch, &self.key_columns, 1, self.partitions.len())?;
        for (p, piece) in pieces {
            self.partitions[p].push(piece);
        }
        Ok(())
    }

    /// Files pre-split pieces (from [`split_batch`] with this partitioner's
    /// key columns and partition count) and returns every partition that
    /// this call **sealed**: its full accumulated input, moved out. Requires
    /// an expected-rows plan for anything to seal; receiving more rows than
    /// a partition declared is a plan violation and errors out (a silent
    /// excess would mean a compute task already ran on truncated input).
    pub fn absorb(
        &mut self,
        pieces: Vec<(usize, RecordBatch)>,
    ) -> StorageResult<Vec<(usize, Vec<RecordBatch>)>> {
        let mut newly_sealed = Vec::new();
        for (p, piece) in pieces {
            let rows = piece.num_rows() as u64;
            if rows == 0 {
                continue;
            }
            if self.sealed[p] {
                return Err(StorageError::Internal(format!(
                    "partition {p} received {rows} rows after sealing"
                )));
            }
            self.partitions[p].push(piece);
            if let Some(remaining) = &mut self.remaining {
                if remaining[p] < rows {
                    return Err(StorageError::Internal(format!(
                        "partition {p} received {rows} rows but expected only {} more",
                        remaining[p]
                    )));
                }
                remaining[p] -= rows;
                if remaining[p] == 0 {
                    self.sealed[p] = true;
                    newly_sealed.push((p, std::mem::take(&mut self.partitions[p])));
                }
            }
        }
        Ok(newly_sealed)
    }

    /// Seals every remaining partition at end-of-stream, returning the
    /// non-empty ones. This is how open-ended (plan-less) partitions are
    /// dispatched, and how a planned run recovers if a source under-delivers
    /// (the caller decides whether that is an error).
    pub fn drain_unsealed(&mut self) -> Vec<(usize, Vec<RecordBatch>)> {
        let mut drained = Vec::new();
        for p in 0..self.partitions.len() {
            if !self.sealed[p] {
                self.sealed[p] = true;
                let batches = std::mem::take(&mut self.partitions[p]);
                if !batches.is_empty() {
                    drained.push((p, batches));
                }
            }
        }
        drained
    }

    /// True when every partition has been sealed (its input handed out).
    pub fn fully_sealed(&self) -> bool {
        self.sealed.iter().all(|&s| s)
    }

    /// Consumes the partitioner, returning the accumulated partitions.
    pub fn finish(self) -> Vec<Vec<RecordBatch>> {
        self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Field, Schema, Value};

    fn batch_with_ids(ids: &[i64]) -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("payload", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> =
            ids.iter().map(|&i| vec![Value::Int(i), Value::Int(i * 10)]).collect();
        RecordBatch::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn every_row_lands_exactly_once() {
        let b = batch_with_ids(&(0..100).collect::<Vec<_>>());
        let parts = hash_partition(&[b], &[0], 7).unwrap();
        let total: usize = parts.iter().flat_map(|p| p.iter().map(|b| b.num_rows())).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn equal_keys_colocate() {
        let b = batch_with_ids(&[5, 5, 5, 9, 9]);
        let parts = hash_partition(&[b], &[0], 4).unwrap();
        // Find where key 5 lives; all three copies must be there.
        let mut count5 = Vec::new();
        for p in &parts {
            let c: usize =
                p.iter().map(|b| b.column(0).iter().filter(|v| *v == Value::Int(5)).count()).sum();
            if c > 0 {
                count5.push(c);
            }
        }
        assert_eq!(count5, vec![3]);
    }

    #[test]
    fn single_partition_passthrough() {
        let b = batch_with_ids(&[1, 2, 3]);
        let parts = hash_partition(&[b], &[0], 1).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0][0].num_rows(), 3);
    }

    #[test]
    fn multiple_input_batches_merge_by_key() {
        let b1 = batch_with_ids(&[1, 2]);
        let b2 = batch_with_ids(&[1, 3]);
        let parts = hash_partition(&[b1, b2], &[0], 8).unwrap();
        // Key 1 appears in exactly one partition, with 2 rows across batches.
        let mut ones = 0;
        for p in &parts {
            let c: usize =
                p.iter().map(|b| b.column(0).iter().filter(|v| *v == Value::Int(1)).count()).sum();
            if c > 0 {
                assert_eq!(c, 2);
                ones += 1;
            }
        }
        assert_eq!(ones, 1);
    }

    #[test]
    fn streaming_chunks_match_one_shot_partitioning() {
        // Pushing chunk-by-chunk must yield exactly the same row placement
        // as partitioning the concatenated input in one shot.
        let chunks: Vec<RecordBatch> = vec![
            batch_with_ids(&(0..40).collect::<Vec<_>>()),
            batch_with_ids(&(40..55).collect::<Vec<_>>()),
            batch_with_ids(&[]),
            batch_with_ids(&(55..90).collect::<Vec<_>>()),
        ];
        let one_shot = hash_partition(&chunks, &[0], 6).unwrap();
        let mut streaming = StreamingPartitioner::new(vec![0], 6);
        for c in &chunks {
            streaming.push(c).unwrap();
        }
        let streamed = streaming.finish();
        assert_eq!(one_shot.len(), streamed.len());
        for (a, b) in one_shot.iter().zip(&streamed) {
            let rows_a: Vec<_> = a.iter().flat_map(|b| b.rows()).collect();
            let rows_b: Vec<_> = b.iter().flat_map(|b| b.rows()).collect();
            assert_eq!(rows_a, rows_b);
        }
    }

    #[test]
    fn owner_matches_batch_assignments() {
        let keys: Vec<i64> = (-64..64).chain([i64::MIN, i64::MAX, 1 << 40]).collect();
        let batch = {
            let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
            let rows: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
            RecordBatch::from_rows(schema, &rows).unwrap()
        };
        for parts in [1usize, 2, 7, 16] {
            let assign = partition_assignments(std::slice::from_ref(&batch), &[0], parts);
            for (row, &k) in keys.iter().enumerate() {
                // Both halves of the cell: shard and partition.
                assert_eq!(owner(k, 1, parts).1, assign[0][row], "key {k}, {parts} partitions");
                assert_eq!(owner(k, parts, 1).0, assign[0][row], "key {k}, {parts} shards");
            }
        }
    }

    #[test]
    fn every_shard_uses_every_partition() {
        // Shard and partition counts with a common factor: `h % P` would
        // leave shard k only the partitions p ≡ k (mod gcd).
        for (shards, parts) in [(2usize, 4usize), (2, 2), (3, 6), (4, 8)] {
            let mut seen = vec![vec![false; parts]; shards];
            for k in 0..4096i64 {
                let (s, p) = owner(k, shards, parts);
                seen[s][p] = true;
            }
            assert!(seen.iter().flatten().all(|&b| b), "{shards} shards × {parts} partitions");
        }
        // The in-shard scatter places every row where `owner` does.
        let keys: Vec<i64> = (-300..300).collect();
        for (shards, parts) in [(1usize, 7usize), (2, 4), (3, 6)] {
            for (p, piece) in split_batch(&batch_with_ids(&keys), &[0], shards, parts).unwrap() {
                for row in piece.rows() {
                    let k = row[0].as_int().unwrap();
                    assert_eq!(owner(k, shards, parts).1, p, "key {k}, {shards}×{parts}");
                }
            }
        }
    }

    /// Expected-rows plan for a set of chunks: count rows per partition the
    /// same way the scatter will.
    fn row_plan(chunks: &[RecordBatch], parts: usize) -> Vec<u64> {
        let mut plan = vec![0u64; parts];
        for assign in partition_assignments(chunks, &[0], parts) {
            for p in assign {
                plan[p] += 1;
            }
        }
        plan
    }

    #[test]
    fn split_batch_matches_push() {
        let chunks = vec![
            batch_with_ids(&(0..50).collect::<Vec<_>>()),
            batch_with_ids(&(50..77).collect::<Vec<_>>()),
        ];
        let mut pushed = StreamingPartitioner::new(vec![0], 5);
        let mut split = StreamingPartitioner::new(vec![0], 5);
        for c in &chunks {
            pushed.push(c).unwrap();
            for (p, piece) in split_batch(c, &[0], 1, 5).unwrap() {
                split.partitions[p].push(piece);
            }
        }
        let (a, b) = (pushed.finish(), split.finish());
        for (pa, pb) in a.iter().zip(&b) {
            let rows_a: Vec<_> = pa.iter().flat_map(|b| b.rows()).collect();
            let rows_b: Vec<_> = pb.iter().flat_map(|b| b.rows()).collect();
            assert_eq!(rows_a, rows_b);
        }
    }

    #[test]
    fn partitions_seal_exactly_when_their_last_row_lands() {
        let chunks: Vec<RecordBatch> = vec![
            batch_with_ids(&(0..40).collect::<Vec<_>>()),
            batch_with_ids(&(40..70).collect::<Vec<_>>()),
            batch_with_ids(&(70..100).collect::<Vec<_>>()),
        ];
        let parts = 6;
        let plan = row_plan(&chunks, parts);
        // Reference placement from the one-shot path.
        let one_shot = hash_partition(&chunks, &[0], parts).unwrap();

        let mut partitioner =
            StreamingPartitioner::with_expected_rows(vec![0], parts, plan.clone());
        let mut sealed_rows: Vec<Option<Vec<Vec<crate::value::Value>>>> = vec![None; parts];
        let mut seal_chunk: Vec<Option<usize>> = vec![None; parts];
        for (ci, c) in chunks.iter().enumerate() {
            let pieces = split_batch(c, &[0], 1, parts).unwrap();
            for (p, batches) in partitioner.absorb(pieces).unwrap() {
                assert!(sealed_rows[p].is_none(), "partition {p} sealed twice");
                sealed_rows[p] = Some(batches.iter().flat_map(|b| b.rows()).collect());
                seal_chunk[p] = Some(ci);
            }
        }
        // Every non-empty partition sealed (the plan covered all chunks)…
        assert!(partitioner.fully_sealed() || partitioner.drain_unsealed().is_empty());
        for p in 0..parts {
            let expected: Vec<_> = one_shot[p].iter().flat_map(|b| b.rows()).collect();
            if expected.is_empty() {
                assert!(sealed_rows[p].is_none());
                continue;
            }
            // …with exactly the one-shot contents…
            assert_eq!(sealed_rows[p].as_ref().unwrap(), &expected, "partition {p}");
            // …at the chunk carrying its last row, not later.
            let last_touch = partition_assignments(&chunks, &[0], parts)
                .iter()
                .enumerate()
                .filter(|(_, a)| a.contains(&p))
                .map(|(ci, _)| ci)
                .max()
                .unwrap();
            assert_eq!(seal_chunk[p], Some(last_touch), "partition {p} sealed late");
        }
    }

    #[test]
    fn over_receipt_is_a_plan_violation() {
        let chunk = batch_with_ids(&(0..32).collect::<Vec<_>>());
        let parts = 4;
        let mut plan = row_plan(std::slice::from_ref(&chunk), parts);
        // Understate one partition's expectation: it seals early, and the
        // stream then delivers rows to a sealed partition.
        let victim = plan.iter().position(|&n| n > 1).unwrap();
        plan[victim] -= 1;
        let mut partitioner = StreamingPartitioner::with_expected_rows(vec![0], parts, plan);
        let pieces = split_batch(&chunk, &[0], 1, parts).unwrap();
        assert!(partitioner.absorb(pieces).is_err(), "excess rows must not pass silently");
    }

    #[test]
    fn planless_partitioner_seals_only_on_drain() {
        let chunk = batch_with_ids(&(0..64).collect::<Vec<_>>());
        let mut partitioner = StreamingPartitioner::new(vec![0], 4);
        let sealed = partitioner.absorb(split_batch(&chunk, &[0], 1, 4).unwrap()).unwrap();
        assert!(sealed.is_empty(), "no plan, nothing seals early");
        assert!(!partitioner.fully_sealed());
        let drained = partitioner.drain_unsealed();
        let total: usize = drained.iter().flat_map(|(_, bs)| bs.iter().map(|b| b.num_rows())).sum();
        assert_eq!(total, 64);
        assert!(partitioner.fully_sealed());
        // A second drain yields nothing.
        assert!(partitioner.drain_unsealed().is_empty());
    }

    #[test]
    fn zero_expectation_partitions_start_sealed() {
        let mut partitioner = StreamingPartitioner::with_expected_rows(vec![0], 3, vec![0, 5, 0]);
        assert!(!partitioner.fully_sealed());
        assert!(partitioner.drain_unsealed().is_empty(), "empty partitions carry no work");
        assert!(partitioner.fully_sealed());
    }

    #[test]
    fn estimated_bytes_tracks_row_count() {
        let small = batch_with_ids(&[1, 2, 3]);
        let large = batch_with_ids(&(0..1000).collect::<Vec<_>>());
        assert!(small.estimated_bytes() > 0);
        assert!(large.estimated_bytes() > 100 * small.estimated_bytes());
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let b = batch_with_ids(&(0..10_000).collect::<Vec<_>>());
        let parts = hash_partition(&[b], &[0], 8).unwrap();
        for p in &parts {
            let rows: usize = p.iter().map(|b| b.num_rows()).sum();
            // Expect 1250 ± 40%.
            assert!(rows > 700 && rows < 1800, "partition had {rows} rows");
        }
    }
}
