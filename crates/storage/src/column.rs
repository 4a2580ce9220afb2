//! Columnar vectors with validity bitmaps.
//!
//! A [`Column`] is immutable and cheaply cloneable (`Arc`-backed), so scans can
//! hand out references to ROS segment data without copying, and operators can
//! pass columns around freely. New columns are produced with
//! [`ColumnBuilder`] or the transformation methods (`filter`, `take`,
//! `concat`).

use std::sync::Arc;

use vertexica_common::hash::mix64;

use crate::bitmap::Bitmap;
use crate::error::{StorageError, StorageResult};
use crate::value::{DataType, Value};

/// The cells of a blob column: every cell's bytes back to back in one
/// buffer, and one offset per cell boundary. Cell `i` is
/// `bytes[offsets[i]..offsets[i + 1]]`, so a column of a million 8-byte
/// payloads is two allocations, not a million. A NULL cell is a zero-length
/// range like an empty blob; the column's validity bitmap tells them apart.
#[derive(Debug, Clone, PartialEq)]
pub struct BlobData {
    bytes: Vec<u8>,
    /// `len() + 1` non-decreasing offsets into `bytes`, starting at 0.
    offsets: Vec<usize>,
}

impl Default for BlobData {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl BlobData {
    /// An empty buffer with room for `cells` cells totalling `bytes` bytes.
    pub fn with_capacity(cells: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        BlobData { bytes: Vec::with_capacity(bytes), offsets }
    }

    /// `cells` zero-length cells.
    pub fn empty_cells(cells: usize) -> Self {
        BlobData { bytes: Vec::new(), offsets: vec![0; cells + 1] }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes across all cells.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The bytes of cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// All cells in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.offsets.windows(2).map(|w| &self.bytes[w[0]..w[1]])
    }

    /// Appends one cell.
    #[inline]
    pub fn push(&mut self, cell: &[u8]) {
        self.bytes.extend_from_slice(cell);
        self.offsets.push(self.bytes.len());
    }

    /// Appends one cell whose bytes `write` appends to the buffer — how an
    /// encoder writes a payload straight into the column.
    #[inline]
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        write(&mut self.bytes);
        assert!(self.bytes.len() >= start, "a blob cell writer may only append");
        self.offsets.push(self.bytes.len());
    }

    /// Appends the cells `[start, end)` of `other`: one byte copy, offsets
    /// shifted.
    fn extend_from_range(&mut self, other: &BlobData, start: usize, end: usize) {
        let (from, to) = (other.offsets[start], other.offsets[end]);
        let shift = self.bytes.len();
        self.bytes.extend_from_slice(&other.bytes[from..to]);
        self.offsets.extend(other.offsets[start + 1..=end].iter().map(|o| o - from + shift));
    }

    /// The cells at `indices` (which may repeat or reorder), gathered into a
    /// new buffer sized once.
    fn take(&self, indices: &[usize]) -> BlobData {
        let total = indices.iter().map(|&i| self.offsets[i + 1] - self.offsets[i]).sum();
        let mut out = BlobData::with_capacity(indices.len(), total);
        for &i in indices {
            out.push(self.get(i));
        }
        out
    }
}

/// The typed backing storage of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Blob(BlobData),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Blob(v) => v.len(),
        }
    }

    fn dtype(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Blob(_) => DataType::Blob,
        }
    }
}

/// An immutable, shareable column of values.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    /// `None` means every row is valid (non-null).
    validity: Option<Arc<Bitmap>>,
}

impl Column {
    pub fn new(data: ColumnData, validity: Option<Bitmap>) -> Self {
        if let Some(v) = &validity {
            assert_eq!(v.len(), data.len(), "validity length mismatch");
        }
        // Normalize an all-valid bitmap to None so fast paths trigger.
        let validity = validity.filter(|v| !v.all()).map(Arc::new);
        Column { data: Arc::new(data), validity }
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        let data = match dtype {
            DataType::Bool => ColumnData::Bool(vec![]),
            DataType::Int => ColumnData::Int(vec![]),
            DataType::Float => ColumnData::Float(vec![]),
            DataType::Str => ColumnData::Str(vec![]),
            DataType::Blob => ColumnData::Blob(BlobData::default()),
        };
        Column { data: Arc::new(data), validity: None }
    }

    /// Builds a column of `dtype` from dynamic values, coercing as needed.
    pub fn from_values(dtype: DataType, values: &[Value]) -> StorageResult<Self> {
        let mut b = ColumnBuilder::new(dtype);
        for v in values {
            b.push(v.clone())?;
        }
        Ok(b.finish())
    }

    /// Column of `n` copies of one value, built in one step per type: a
    /// NULL is `n` default cells under an all-zero validity bitmap, as `n`
    /// [`ColumnBuilder::push_null`] calls would leave them.
    pub fn repeat(dtype: DataType, value: &Value, n: usize) -> StorageResult<Self> {
        if value.is_null() {
            let data = match dtype {
                DataType::Bool => ColumnData::Bool(vec![false; n]),
                DataType::Int => ColumnData::Int(vec![0; n]),
                DataType::Float => ColumnData::Float(vec![0.0; n]),
                DataType::Str => ColumnData::Str(vec![String::new(); n]),
                DataType::Blob => ColumnData::Blob(BlobData::empty_cells(n)),
            };
            return Ok(Column::new(data, Some(Bitmap::zeros(n))));
        }
        let data = match value.coerce(dtype)? {
            Value::Bool(x) => ColumnData::Bool(vec![x; n]),
            Value::Int(x) => ColumnData::Int(vec![x; n]),
            Value::Float(x) => ColumnData::Float(vec![x; n]),
            Value::Str(x) => ColumnData::Str(vec![x; n]),
            Value::Blob(cell) => {
                let mut cells = BlobData::with_capacity(n, n * cell.len());
                for _ in 0..n {
                    cells.push(&cell);
                }
                ColumnData::Blob(cells)
            }
            Value::Null => unreachable!("a non-NULL value coerces to a non-NULL value"),
        };
        Ok(Column::new(data, None))
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.validity {
            None => false,
            Some(v) => !v.get(i),
        }
    }

    pub fn null_count(&self) -> usize {
        match &self.validity {
            None => 0,
            Some(v) => v.count_zeros(),
        }
    }

    /// Estimated heap footprint of this column's data in bytes. Used by the
    /// streaming superstep pipeline to report peak in-flight batch sizes;
    /// an estimate (string headers are approximated), not an exact allocator
    /// measurement. A blob column counts its payload bytes plus one offset
    /// per cell boundary — what its two buffers hold.
    pub fn estimated_bytes(&self) -> usize {
        let data = match &*self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Str(v) => v.iter().map(|s| s.len() + std::mem::size_of::<String>()).sum(),
            ColumnData::Blob(v) => v.byte_len() + v.offsets.len() * std::mem::size_of::<usize>(),
        };
        data + self.validity.as_ref().map_or(0, |v| v.len().div_ceil(8))
    }

    /// The value at row `i` (clones strings/blobs).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &*self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Blob(v) => Value::Blob(v.get(i).to_vec()),
        }
    }

    /// Iterator over all values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// The typed backing storage. NULL cells hold a placeholder; check
    /// [`Column::is_null`].
    pub(crate) fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Typed access: `&[i64]` if this is a non-null Int column's raw data.
    /// Nulls (if any) must be checked separately via [`Column::is_null`].
    pub fn as_int(&self) -> Option<&[i64]> {
        match &*self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<&[f64]> {
        match &*self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<&[bool]> {
        match &*self.data {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&[String]> {
        match &*self.data {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Typed access to a Blob column's cells. As with the other accessors,
    /// NULL cells (zero-length here) must be told apart from empty blobs via
    /// [`Column::is_null`].
    pub fn as_blob(&self) -> Option<&BlobData> {
        match &*self.data {
            ColumnData::Blob(v) => Some(v),
            _ => None,
        }
    }

    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_deref()
    }

    /// Keeps rows whose bit is set in `selection`.
    pub fn filter(&self, selection: &Bitmap) -> Column {
        assert_eq!(selection.len(), self.len(), "selection length mismatch");
        let indices: Vec<usize> = selection.iter_ones().collect();
        self.take(&indices)
    }

    /// Gathers rows by index (indices may repeat or reorder).
    pub fn take(&self, indices: &[usize]) -> Column {
        let data = match &*self.data {
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            ColumnData::Blob(v) => ColumnData::Blob(v.take(indices)),
        };
        let validity = self
            .validity
            .as_ref()
            .map(|valid| Bitmap::from_iter_bool(indices.iter().map(|&i| valid.get(i))));
        Column::new(data, validity)
    }

    /// Copies out the contiguous row range `[start, start + len)` as a new
    /// column. This is the gather primitive behind block-granular partial
    /// segment decode: a plain-encoded block is one typed-slice copy, no
    /// per-value boxing.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        assert!(start + len <= self.len(), "slice out of bounds");
        let end = start + len;
        let data = match &*self.data {
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
            ColumnData::Int(v) => ColumnData::Int(v[start..end].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..end].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v[start..end].to_vec()),
            ColumnData::Blob(v) => {
                let mut cells = BlobData::with_capacity(len, v.offsets[end] - v.offsets[start]);
                cells.extend_from_range(v, start, end);
                ColumnData::Blob(cells)
            }
        };
        let validity = self
            .validity
            .as_ref()
            .map(|valid| Bitmap::from_iter_bool((start..end).map(|i| valid.get(i))));
        Column::new(data, validity)
    }

    /// Concatenates columns of identical type.
    pub fn concat(columns: &[Column]) -> StorageResult<Column> {
        let Some(first) = columns.first() else {
            return Err(StorageError::Internal("concat of zero columns".into()));
        };
        let dtype = first.dtype();
        let total: usize = columns.iter().map(|c| c.len()).sum();
        let mut b = ColumnBuilder::with_capacity(dtype, total);
        for c in columns {
            if c.dtype() != dtype {
                return Err(StorageError::TypeMismatch {
                    expected: dtype.to_string(),
                    found: c.dtype().to_string(),
                });
            }
            // Fast path: extend typed vectors directly.
            b.extend_from(c);
        }
        Ok(b.finish())
    }

    /// Writes a per-row hash into `out` by combining with the existing
    /// content (so multi-column keys hash by folding columns in sequence).
    pub fn hash_combine(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.len());
        for (i, slot) in out.iter_mut().enumerate() {
            let h = if self.is_null(i) {
                0x9e3779b97f4a7c15
            } else {
                match &*self.data {
                    ColumnData::Bool(v) => mix64(v[i] as u64),
                    ColumnData::Int(v) => mix64(v[i] as u64),
                    // Hash floats by bits; integral floats hash like ints so
                    // Int/Float join keys behave when coerced upstream.
                    ColumnData::Float(v) => mix64(v[i].to_bits()),
                    ColumnData::Str(v) => hash_bytes(v[i].as_bytes()),
                    ColumnData::Blob(v) => hash_bytes(v.get(i)),
                }
            };
            *slot = mix64(slot.rotate_left(23) ^ h);
        }
    }
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(buf));
    }
    h
}

/// Incremental builder for a [`Column`].
pub struct ColumnBuilder {
    dtype: DataType,
    data: ColumnData,
    validity: Bitmap,
    has_null: bool,
}

impl ColumnBuilder {
    pub fn new(dtype: DataType) -> Self {
        Self::with_capacity(dtype, 0)
    }

    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        let data = match dtype {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
            DataType::Blob => ColumnData::Blob(BlobData::with_capacity(cap, 0)),
        };
        ColumnBuilder { dtype, data, validity: Bitmap::zeros(0), has_null: false }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value, coercing to the builder's type. `Null` appends a null.
    pub fn push(&mut self, value: Value) -> StorageResult<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        if let (ColumnData::Blob(cells), Value::Blob(x)) = (&mut self.data, &value) {
            cells.push(x);
            self.validity.push(true);
            return Ok(());
        }
        let value = value.coerce(self.dtype)?;
        self.validity.push(true);
        match (&mut self.data, value) {
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(x),
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(x),
            (ColumnData::Str(v), Value::Str(x)) => v.push(x),
            _ => unreachable!("coerce guarantees matching type"),
        }
        Ok(())
    }

    pub fn push_null(&mut self) {
        self.has_null = true;
        self.validity.push(false);
        match &mut self.data {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(String::new()),
            ColumnData::Blob(v) => v.push(&[]),
        }
    }

    /// Typed fast-path appends.
    pub(crate) fn push_bool(&mut self, v: bool) {
        debug_assert_eq!(self.dtype, DataType::Bool);
        if let ColumnData::Bool(vec) = &mut self.data {
            vec.push(v);
            self.validity.push(true);
        }
    }

    pub fn push_int(&mut self, v: i64) {
        debug_assert_eq!(self.dtype, DataType::Int);
        if let ColumnData::Int(vec) = &mut self.data {
            vec.push(v);
            self.validity.push(true);
        }
    }

    pub fn push_float(&mut self, v: f64) {
        debug_assert_eq!(self.dtype, DataType::Float);
        if let ColumnData::Float(vec) = &mut self.data {
            vec.push(v);
            self.validity.push(true);
        }
    }

    pub(crate) fn push_str(&mut self, v: String) {
        debug_assert_eq!(self.dtype, DataType::Str);
        if let ColumnData::Str(vec) = &mut self.data {
            vec.push(v);
            self.validity.push(true);
        }
    }

    /// Appends a non-null blob cell by copying `cell` into the column's
    /// buffer.
    pub fn push_blob(&mut self, cell: &[u8]) {
        self.push_blob_with(|buf| buf.extend_from_slice(cell));
    }

    /// Appends a non-null blob cell whose bytes `write` appends to the
    /// column's buffer (see [`BlobData::push_with`]).
    pub fn push_blob_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        debug_assert_eq!(self.dtype, DataType::Blob);
        if let ColumnData::Blob(cells) = &mut self.data {
            cells.push_with(write);
            self.validity.push(true);
        }
    }

    /// Appends every row of `other` (must have the same type): one typed
    /// slice copy per column, and the validity in bulk when `other` has no
    /// NULLs.
    pub fn extend_from(&mut self, other: &Column) {
        debug_assert_eq!(self.dtype, other.dtype());
        match (&mut self.data, &*other.data) {
            (ColumnData::Bool(v), ColumnData::Bool(more)) => v.extend_from_slice(more),
            (ColumnData::Int(v), ColumnData::Int(more)) => v.extend_from_slice(more),
            (ColumnData::Float(v), ColumnData::Float(more)) => v.extend_from_slice(more),
            (ColumnData::Str(v), ColumnData::Str(more)) => v.extend_from_slice(more),
            (ColumnData::Blob(cells), ColumnData::Blob(more)) => {
                cells.extend_from_range(more, 0, more.len())
            }
            // Another type (callers pass the same one): coerce cell by cell
            // like `push`; a failed coercion appends NULL so lengths agree.
            _ => {
                for v in other.iter() {
                    if self.push(v).is_err() {
                        self.push_null();
                    }
                }
                return;
            }
        }
        match other.validity() {
            None => self.validity.extend_ones(other.len()),
            Some(valid) => {
                for i in 0..valid.len() {
                    self.validity.push(valid.get(i));
                }
                self.has_null = true;
            }
        }
    }

    pub fn finish(self) -> Column {
        let validity = if self.has_null { Some(self.validity) } else { None };
        Column::new(self.data, validity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[i64]) -> Column {
        Column::from_values(DataType::Int, &vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>())
            .unwrap()
    }

    /// `repeat` builds typed storage directly; it must leave exactly the
    /// column `n` builder pushes leave — data, validity and byte estimate.
    #[test]
    fn repeat_equals_the_builder_built_column() {
        let cases = [
            (DataType::Bool, Value::Bool(true)),
            (DataType::Int, Value::Int(-7)),
            (DataType::Float, Value::Float(2.5)),
            (DataType::Float, Value::Int(3)),
            (DataType::Str, Value::Str("ab".into())),
            (DataType::Blob, Value::Blob(vec![1, 2, 3])),
        ];
        for (dtype, value) in cases {
            for value in [Value::Null, value] {
                for n in [0usize, 1, 1000] {
                    let mut b = ColumnBuilder::new(dtype);
                    for _ in 0..n {
                        b.push(value.clone()).unwrap();
                    }
                    let built = b.finish();
                    let repeated = Column::repeat(dtype, &value, n).unwrap();
                    let what = format!("{dtype:?} × {value:?} × {n}");
                    assert_eq!(format!("{repeated:?}"), format!("{built:?}"), "{what}");
                    assert_eq!(repeated.estimated_bytes(), built.estimated_bytes(), "{what}");
                }
            }
        }
        assert!(Column::repeat(DataType::Int, &Value::Str("x".into()), 2).is_err());
    }

    #[test]
    fn builder_roundtrip() {
        let c = int_col(&[1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.value(1), Value::Int(2));
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn builder_coerces_ints_to_float() {
        let c = Column::from_values(DataType::Float, &[Value::Int(2), Value::Float(0.5)]).unwrap();
        assert_eq!(c.value(0), Value::Float(2.0));
        assert_eq!(c.value(1), Value::Float(0.5));
    }

    #[test]
    fn builder_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(DataType::Int);
        assert!(b.push(Value::Str("x".into())).is_err());
    }

    #[test]
    fn nulls_tracked() {
        let c = Column::from_values(DataType::Int, &[Value::Int(1), Value::Null, Value::Int(3)])
            .unwrap();
        assert!(!c.is_null(0));
        assert!(c.is_null(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn all_valid_bitmap_normalized_away() {
        let c = Column::new(ColumnData::Int(vec![1, 2]), Some(Bitmap::ones(2)));
        assert!(c.validity().is_none());
    }

    #[test]
    fn filter_by_selection() {
        let c = int_col(&[10, 20, 30, 40]);
        let sel = Bitmap::from_iter_bool([true, false, true, false]);
        let f = c.filter(&sel);
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(0), Value::Int(10));
        assert_eq!(f.value(1), Value::Int(30));
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = int_col(&[10, 20, 30]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            vec![Value::Int(30), Value::Int(10), Value::Int(10)]
        );
    }

    #[test]
    fn take_preserves_nulls() {
        let c = Column::from_values(DataType::Str, &[Value::Null, Value::Str("a".into())]).unwrap();
        let t = c.take(&[1, 0]);
        assert!(!t.is_null(0));
        assert!(t.is_null(1));
    }

    #[test]
    fn slice_copies_range_and_validity() {
        let c = Column::from_values(
            DataType::Int,
            &[Value::Int(1), Value::Null, Value::Int(3), Value::Int(4)],
        )
        .unwrap();
        let s = c.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert!(s.is_null(0));
        assert_eq!(s.value(1), Value::Int(3));
        // An all-valid slice of a nullable column normalizes validity away.
        assert!(c.slice(2, 2).validity().is_none());
        assert_eq!(c.slice(4, 0).len(), 0);
    }

    #[test]
    fn concat_columns() {
        let a = int_col(&[1, 2]);
        let b = int_col(&[3]);
        let c = Column::concat(&[a, b]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Value::Int(3));
    }

    #[test]
    fn concat_rejects_mixed_types() {
        let a = int_col(&[1]);
        let b = Column::from_values(DataType::Str, &[Value::Str("x".into())]).unwrap();
        assert!(Column::concat(&[a, b]).is_err());
    }

    #[test]
    fn hash_combine_differs_per_value() {
        let c = int_col(&[1, 2, 1]);
        let mut h = vec![0u64; 3];
        c.hash_combine(&mut h);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn hash_combine_folds_multiple_columns() {
        let a = int_col(&[1, 1]);
        let b = int_col(&[5, 6]);
        let mut h = vec![0u64; 2];
        a.hash_combine(&mut h);
        b.hash_combine(&mut h);
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn blob_cells_share_one_buffer_and_null_is_not_empty() {
        let mut b = ColumnBuilder::new(DataType::Blob);
        b.push_blob(b"ab");
        b.push_null();
        b.push_blob(b"");
        b.push_blob_with(|buf| buf.extend_from_slice(b"cde"));
        b.push(Value::Blob(vec![9])).unwrap();
        let c = b.finish();
        let cells = c.as_blob().unwrap();
        assert_eq!(cells.iter().collect::<Vec<_>>(), [&b"ab"[..], b"", b"", b"cde", b"\x09"]);
        assert_eq!(cells.byte_len(), 6);
        // Rows 1 and 2 are both zero-length; validity tells NULL from empty.
        assert_eq!((c.value(1), c.value(2)), (Value::Null, Value::Blob(vec![])));
        assert_eq!(c.null_count(), 1);
        let t = c.take(&[3, 1, 3]);
        assert_eq!(t.value(0), Value::Blob(b"cde".to_vec()));
        assert!(t.is_null(1));
        assert_eq!(t.as_blob().unwrap().byte_len(), 6);
    }

    #[test]
    fn clone_is_cheap_shares_data() {
        let c = int_col(&[1, 2, 3]);
        let d = c.clone();
        assert!(std::ptr::eq(c.as_int().unwrap().as_ptr(), d.as_int().unwrap().as_ptr()));
    }
}
