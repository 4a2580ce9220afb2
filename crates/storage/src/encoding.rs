//! Column encodings for ROS segments and persistence.
//!
//! Vertica's read-optimized store keeps columns compressed; run-length
//! encoding shines on sorted/low-cardinality columns (e.g. the edge table
//! sorted on `src`, the `etype` column with 3 distinct values) and dictionary
//! encoding on repetitive strings. [`EncodedColumn::encode_auto`] picks the
//! cheapest of {plain, RLE, dictionary} per column, mirroring Vertica's
//! per-projection encoding choice.

use crate::column::{Column, ColumnBuilder};
use crate::error::{StorageError, StorageResult};
use crate::value::{DataType, Value};

/// An encoded column at rest.
#[derive(Debug, Clone)]
pub enum EncodedColumn {
    /// Uncompressed (the in-memory `Column` is `Arc`-backed, so "decoding"
    /// a plain column is a cheap clone).
    Plain(Column),
    /// Run-length encoding: `(run_length, value)` pairs; `Value::Null` runs
    /// encode null stretches.
    Rle { dtype: DataType, runs: Vec<(u32, Value)> },
    /// Dictionary encoding for strings: `codes[i]` indexes `dict`;
    /// `u32::MAX` encodes null.
    Dict { dict: Vec<String>, codes: Vec<u32> },
}

impl EncodedColumn {
    /// Chooses an encoding for `col` by measuring what each would cost.
    pub fn encode_auto(col: &Column) -> EncodedColumn {
        let n = col.len();
        if n == 0 {
            return EncodedColumn::Plain(col.clone());
        }
        // Count runs of equal adjacent values.
        let runs = match blob_cells(col) {
            Some(cell) => 1 + (1..n).filter(|&i| cell(i) != cell(i - 1)).count(),
            None => 1 + (1..n).filter(|&i| col.value(i) != col.value(i - 1)).count(),
        };
        if runs * 2 <= n {
            return Self::encode_rle(col);
        }
        if col.dtype() == DataType::Str {
            // Dictionary pays off when the distinct count is small.
            let mut distinct: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
            let strs = col.as_str().expect("str column");
            for (i, s) in strs.iter().enumerate() {
                if !col.is_null(i) {
                    distinct.insert(s.as_str());
                    if distinct.len() * 4 > n {
                        return EncodedColumn::Plain(col.clone());
                    }
                }
            }
            return Self::encode_dict(col);
        }
        EncodedColumn::Plain(col.clone())
    }

    /// Forces run-length encoding.
    pub fn encode_rle(col: &Column) -> EncodedColumn {
        let mut runs: Vec<(u32, Value)> = Vec::new();
        if let Some(cell) = blob_cells(col) {
            // One boxed `Value` per run, not per row.
            for i in 0..col.len() {
                match runs.last_mut() {
                    Some((count, _)) if cell(i) == cell(i - 1) && *count < u32::MAX => *count += 1,
                    _ => runs.push((1, cell(i).map_or(Value::Null, |c| Value::Blob(c.to_vec())))),
                }
            }
            return EncodedColumn::Rle { dtype: col.dtype(), runs };
        }
        for i in 0..col.len() {
            let v = col.value(i);
            match runs.last_mut() {
                Some((count, last)) if *last == v && *count < u32::MAX => *count += 1,
                _ => runs.push((1, v)),
            }
        }
        EncodedColumn::Rle { dtype: col.dtype(), runs }
    }

    /// Forces dictionary encoding (strings only).
    pub fn encode_dict(col: &Column) -> EncodedColumn {
        debug_assert_eq!(col.dtype(), DataType::Str);
        let strs = col.as_str().expect("str column");
        let mut dict: Vec<String> = Vec::new();
        let mut index: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut codes = Vec::with_capacity(col.len());
        for (i, s) in strs.iter().enumerate() {
            if col.is_null(i) {
                codes.push(u32::MAX);
                continue;
            }
            let code = match index.get(s) {
                Some(&c) => c,
                None => {
                    let c = dict.len() as u32;
                    dict.push(s.clone());
                    index.insert(s.clone(), c);
                    c
                }
            };
            codes.push(code);
        }
        EncodedColumn::Dict { dict, codes }
    }

    /// Decodes back to a plain column.
    pub fn decode(&self) -> StorageResult<Column> {
        match self {
            EncodedColumn::Plain(c) => Ok(c.clone()),
            EncodedColumn::Rle { dtype, runs } => {
                let total: usize = runs.iter().map(|(c, _)| *c as usize).sum();
                let mut b = ColumnBuilder::with_capacity(*dtype, total);
                for (count, v) in runs {
                    push_run(&mut b, *dtype, v, *count as usize)?;
                }
                Ok(b.finish())
            }
            EncodedColumn::Dict { dict, codes } => {
                let mut b = ColumnBuilder::with_capacity(DataType::Str, codes.len());
                for &c in codes {
                    if c == u32::MAX {
                        b.push_null();
                    } else {
                        let s = dict.get(c as usize).ok_or_else(|| {
                            StorageError::Corrupt(format!("dict code {c} out of range"))
                        })?;
                        b.push(Value::Str(s.clone()))?;
                    }
                }
                Ok(b.finish())
            }
        }
    }

    /// Decodes only the contiguous row range `[start, start + len)` — the
    /// partial-decode primitive behind block-granular scans. A plain column
    /// is one typed-slice copy; RLE skips whole runs up to `start`; a
    /// dictionary column decodes only the code subslice. Decoding
    /// `(0, num_rows)` is value-identical to [`EncodedColumn::decode`].
    pub fn decode_range(&self, start: usize, len: usize) -> StorageResult<Column> {
        if start + len > self.num_rows() {
            return Err(StorageError::Corrupt(format!(
                "decode_range [{start}, {}) out of bounds for {} rows",
                start + len,
                self.num_rows()
            )));
        }
        match self {
            EncodedColumn::Plain(c) => Ok(c.slice(start, len)),
            EncodedColumn::Rle { dtype, runs } => {
                let mut b = ColumnBuilder::with_capacity(*dtype, len);
                let mut skip = start;
                let mut want = len;
                for (count, v) in runs {
                    if want == 0 {
                        break;
                    }
                    let count = *count as usize;
                    if skip >= count {
                        skip -= count;
                        continue;
                    }
                    let take = (count - skip).min(want);
                    skip = 0;
                    want -= take;
                    push_run(&mut b, *dtype, v, take)?;
                }
                Ok(b.finish())
            }
            EncodedColumn::Dict { dict, codes } => {
                let mut b = ColumnBuilder::with_capacity(DataType::Str, len);
                for &c in &codes[start..start + len] {
                    if c == u32::MAX {
                        b.push_null();
                    } else {
                        let s = dict.get(c as usize).ok_or_else(|| {
                            StorageError::Corrupt(format!("dict code {c} out of range"))
                        })?;
                        b.push(Value::Str(s.clone()))?;
                    }
                }
                Ok(b.finish())
            }
        }
    }

    pub fn num_rows(&self) -> usize {
        match self {
            EncodedColumn::Plain(c) => c.len(),
            EncodedColumn::Rle { runs, .. } => runs.iter().map(|(c, _)| *c as usize).sum(),
            EncodedColumn::Dict { codes, .. } => codes.len(),
        }
    }

    pub fn dtype(&self) -> DataType {
        match self {
            EncodedColumn::Plain(c) => c.dtype(),
            EncodedColumn::Rle { dtype, .. } => *dtype,
            EncodedColumn::Dict { .. } => DataType::Str,
        }
    }

    /// Rough in-memory footprint, used by stats and the encoding bench.
    pub fn size_estimate(&self) -> usize {
        match self {
            EncodedColumn::Plain(c) => {
                c.len()
                    * match c.dtype() {
                        DataType::Bool => 1,
                        DataType::Int | DataType::Float => 8,
                        DataType::Str | DataType::Blob => 24,
                    }
            }
            EncodedColumn::Rle { runs, .. } => runs.len() * 24,
            EncodedColumn::Dict { dict, codes } => {
                dict.iter().map(|s| s.len() + 24).sum::<usize>() + codes.len() * 4
            }
        }
    }
}

/// The cells of a blob column as `Option<&[u8]>` (`None` for NULL), whose
/// equality is exactly the boxed `Value`'s: NULL equals NULL only, an empty
/// blob is not NULL. `None` when `col` is not a blob column.
fn blob_cells<'a>(col: &'a Column) -> Option<impl Fn(usize) -> Option<&'a [u8]> + 'a> {
    let cells = col.as_blob()?;
    Some(move |i: usize| (!col.is_null(i)).then(|| cells.get(i)))
}

/// Appends `count` copies of an RLE run's value to a `dtype` builder. A blob
/// run copies its bytes straight into the column buffer.
fn push_run(b: &mut ColumnBuilder, dtype: DataType, v: &Value, count: usize) -> StorageResult<()> {
    match (dtype, v) {
        (DataType::Blob, Value::Blob(cell)) => (0..count).for_each(|_| b.push_blob(cell)),
        _ => {
            for _ in 0..count {
                b.push(v.clone())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: Vec<Value>, dtype: DataType) -> Column {
        Column::from_values(dtype, &values).unwrap()
    }

    #[test]
    fn rle_roundtrip() {
        let c = col(
            vec![
                Value::Int(5),
                Value::Int(5),
                Value::Int(5),
                Value::Int(7),
                Value::Null,
                Value::Null,
            ],
            DataType::Int,
        );
        let e = EncodedColumn::encode_rle(&c);
        if let EncodedColumn::Rle { runs, .. } = &e {
            assert_eq!(runs.len(), 3);
        } else {
            panic!("expected RLE");
        }
        let d = e.decode().unwrap();
        assert_eq!(d.iter().collect::<Vec<_>>(), c.iter().collect::<Vec<_>>());
    }

    #[test]
    fn dict_roundtrip() {
        let c = col(
            vec![
                Value::Str("family".into()),
                Value::Str("friend".into()),
                Value::Str("family".into()),
                Value::Null,
                Value::Str("classmate".into()),
            ],
            DataType::Str,
        );
        let e = EncodedColumn::encode_dict(&c);
        if let EncodedColumn::Dict { dict, codes } = &e {
            assert_eq!(dict.len(), 3);
            assert_eq!(codes[3], u32::MAX);
        } else {
            panic!("expected Dict");
        }
        let d = e.decode().unwrap();
        assert_eq!(d.iter().collect::<Vec<_>>(), c.iter().collect::<Vec<_>>());
    }

    #[test]
    fn auto_picks_rle_for_sorted_low_cardinality() {
        let mut values = Vec::new();
        for v in 0..10i64 {
            for _ in 0..100 {
                values.push(Value::Int(v));
            }
        }
        let c = col(values, DataType::Int);
        let e = EncodedColumn::encode_auto(&c);
        assert!(matches!(e, EncodedColumn::Rle { .. }));
        assert!(e.size_estimate() < 1000 * 8 / 10);
    }

    #[test]
    fn auto_picks_dict_for_repetitive_strings() {
        let values: Vec<Value> =
            (0..300).map(|i| Value::Str(["friend", "family", "classmate"][i % 3].into())).collect();
        // Shuffle-ish ordering so RLE doesn't win.
        let c = col(values, DataType::Str);
        let e = EncodedColumn::encode_auto(&c);
        assert!(matches!(e, EncodedColumn::Dict { .. }));
    }

    #[test]
    fn auto_picks_plain_for_high_cardinality() {
        let values: Vec<Value> = (0..500).map(|i| Value::Int(i as i64)).collect();
        let c = col(values, DataType::Int);
        let e = EncodedColumn::encode_auto(&c);
        assert!(matches!(e, EncodedColumn::Plain(_)));
    }

    #[test]
    fn decode_range_matches_full_decode() {
        // RLE with runs straddling the range boundaries, incl. a null run.
        let mut values = Vec::new();
        for v in [Value::Int(5), Value::Null, Value::Int(7)] {
            for _ in 0..10 {
                values.push(v.clone());
            }
        }
        let rle = EncodedColumn::encode_rle(&col(values.clone(), DataType::Int));
        // Dict with nulls.
        let strs: Vec<Value> =
            (0..30)
                .map(|i| {
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(["a", "b", "c"][i % 3].into())
                    }
                })
                .collect();
        let dict = EncodedColumn::encode_dict(&col(strs.clone(), DataType::Str));
        // Plain.
        let plain = EncodedColumn::Plain(col(values, DataType::Int));
        for e in [rle, dict, plain] {
            let full = e.decode().unwrap();
            for (start, len) in [(0, 30), (0, 0), (5, 12), (25, 5), (9, 2), (30, 0)] {
                let part = e.decode_range(start, len).unwrap();
                assert_eq!(part.len(), len);
                for i in 0..len {
                    assert_eq!(part.value(i), full.value(start + i), "at {start}+{i}");
                }
            }
            assert!(e.decode_range(25, 6).is_err(), "out-of-bounds range must be rejected");
        }
    }

    #[test]
    fn empty_column_roundtrip() {
        let c = Column::empty(DataType::Float);
        let e = EncodedColumn::encode_auto(&c);
        assert_eq!(e.num_rows(), 0);
        assert_eq!(e.decode().unwrap().len(), 0);
    }

    #[test]
    fn corrupt_dict_code_rejected() {
        let e = EncodedColumn::Dict { dict: vec!["a".into()], codes: vec![0, 5] };
        assert!(e.decode().is_err());
    }
}
