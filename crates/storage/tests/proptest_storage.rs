//! Property-based tests for the storage layer: encoding round-trips, bitmap
//! algebra, persistence fidelity, table scan/DML invariants.

use proptest::prelude::*;
use vertexica_storage::encoding::EncodedColumn;
use vertexica_storage::persist;
use vertexica_storage::{
    Bitmap, Column, ColumnBuilder, ColumnPredicate, DataType, Field, PredicateOp, RecordBatch,
    Schema, Segment, Table, TableOptions, Value, BLOCK_ROWS,
};

fn arb_value_for(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Bool => {
            prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)].boxed()
        }
        DataType::Int => prop_oneof![
            1 => Just(Value::Null),
            9 => any::<i64>().prop_map(Value::Int)
        ]
        .boxed(),
        DataType::Float => prop_oneof![
            1 => Just(Value::Null),
            9 => (-1e12f64..1e12).prop_map(Value::Float)
        ]
        .boxed(),
        DataType::Str => prop_oneof![
            1 => Just(Value::Null),
            9 => "[a-z]{0,12}".prop_map(Value::Str)
        ]
        .boxed(),
        DataType::Blob => prop_oneof![
            1 => Just(Value::Null),
            9 => proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Blob)
        ]
        .boxed(),
    }
}

fn arb_dtype() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Bool),
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Str),
        Just(DataType::Blob),
    ]
}

fn arb_column() -> impl Strategy<Value = (DataType, Vec<Value>)> {
    arb_dtype().prop_flat_map(|dt| {
        proptest::collection::vec(arb_value_for(dt), 0..200).prop_map(move |vals| (dt, vals))
    })
}

/// The model a blob column is held against: one boxed cell per row, `None`
/// for NULL — the layout the column used to have.
type BlobModel = Vec<Option<Vec<u8>>>;

fn arb_blob_cells(max: usize) -> impl Strategy<Value = BlobModel> {
    // Short cells over a tiny alphabet: NULLs, empty blobs, duplicates and
    // prefixes of one another all come up often.
    proptest::collection::vec(proptest::option::of(proptest::collection::vec(0u8..3, 0..4)), 0..max)
}

/// Builds a blob column from `cells`, choosing for each cell one of the
/// builder's entry points by `how`.
fn build_blob(cells: &BlobModel, how: &[u8]) -> Column {
    let mut b = ColumnBuilder::new(DataType::Blob);
    for (i, cell) in cells.iter().enumerate() {
        match (cell, how[i % how.len()] % 3) {
            (None, 0) => b.push(Value::Null).unwrap(),
            (None, _) => b.push_null(),
            (Some(bytes), 0) => b.push(Value::Blob(bytes.clone())).unwrap(),
            (Some(bytes), 1) => b.push_blob(bytes),
            (Some(bytes), _) => b.push_blob_with(|buf| buf.extend_from_slice(bytes)),
        }
    }
    assert_eq!(b.len(), cells.len());
    b.finish()
}

fn boxed(cell: &Option<Vec<u8>>) -> Value {
    cell.clone().map_or(Value::Null, Value::Blob)
}

/// `col` holds exactly `model`: through the boxed accessor, through the typed
/// one, and in its NULL bookkeeping.
fn assert_blob_column_is(col: &Column, model: &[Option<Vec<u8>>]) {
    assert_eq!(col.dtype(), DataType::Blob);
    assert_eq!(col.len(), model.len());
    assert_eq!(col.is_empty(), model.is_empty());
    let cells = col.as_blob().unwrap();
    assert_eq!(cells.len(), model.len());
    for (i, want) in model.iter().enumerate() {
        assert_eq!(col.value(i), boxed(want), "row {i}");
        assert_eq!(col.is_null(i), want.is_none(), "row {i}");
        // A NULL cell is a zero-length range; only validity tells it from
        // an empty blob.
        assert_eq!(cells.get(i), want.as_deref().unwrap_or(&[]), "row {i}");
    }
    assert_eq!(cells.iter().count(), model.len());
    let nulls = model.iter().filter(|c| c.is_none()).count();
    assert_eq!(col.null_count(), nulls);
    assert_eq!(col.validity().is_some(), nulls > 0);
    let payload: usize = model.iter().flatten().map(Vec::len).sum();
    assert_eq!(cells.byte_len(), payload);
    let validity_bytes = if nulls > 0 { model.len().div_ceil(8) } else { 0 };
    assert_eq!(
        col.estimated_bytes(),
        payload + (model.len() + 1) * std::mem::size_of::<usize>() + validity_bytes
    );
}

/// Min, max and NULL count of `values` under `Value::total_cmp`, the way
/// the zone-map loop computes them over boxed cells.
fn boxed_zone(values: &[Value]) -> (Value, Value, usize) {
    let (mut min, mut max, mut nulls) = (Value::Null, Value::Null, 0);
    for v in values {
        if v.is_null() {
            nulls += 1;
            continue;
        }
        if min.is_null() || v.total_cmp(&min).is_lt() {
            min = v.clone();
        }
        if max.is_null() || v.total_cmp(&max).is_gt() {
            max = v.clone();
        }
    }
    (min, max, nulls)
}

fn blob_schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![Field::new("b", DataType::Blob)])
}

/// A hand-assembled little-endian byte string.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn raw(mut self, bytes: &[u8]) -> Self {
        self.0.extend_from_slice(bytes);
        self
    }
    fn u8(self, v: u8) -> Self {
        self.raw(&[v])
    }
    fn u32(self, v: u32) -> Self {
        self.raw(&v.to_le_bytes())
    }
    fn u64(self, v: u64) -> Self {
        self.raw(&v.to_le_bytes())
    }
    /// A `Value::Blob`: tag 5, `u32` length, bytes.
    fn blob(self, cell: &[u8]) -> Self {
        self.u8(5).u32(cell.len() as u32).raw(cell)
    }
    /// A `Value::Null`: tag 0.
    fn null(self) -> Self {
        self.u8(0)
    }
    /// A `Value::Bool`: tag 1, one byte.
    fn bool(self, v: bool) -> Self {
        self.u8(1).u8(v as u8)
    }
    /// A `Value::Int`: tag 2, eight bytes.
    fn int(self, v: i64) -> Self {
        self.u8(2).raw(&v.to_le_bytes())
    }
    /// A `Value::Float`: tag 3, the eight bytes of its bit pattern.
    fn float(self, bits: u64) -> Self {
        self.u8(3).u64(bits)
    }
}

/// The VXTB2 image of a table `g (b <dtype>)` holding one segment: the
/// hand-written column encoding, zone map and packed delete vector spliced
/// between the header and trailer every such image shares.
fn golden_image_of(
    dtype_tag: u8,
    compress: bool,
    rows: u64,
    column: Bytes,
    zone_map: Bytes,
    deleted: &[u8],
) -> Vec<u8> {
    assert_eq!(deleted.len() as u64, rows.div_ceil(8));
    let body = Bytes::default()
        .raw(b"VXTB2\n")
        .u32(1)
        .raw(b"g") // table name
        .u32(1) // one field:
        .u32(1)
        .raw(b"b") //   name
        .u8(dtype_tag) //   dtype tag
        .u8(1) //   nullable
        .u64(7) // options: moveout threshold
        .u8(compress as u8) //   compress
        .u32(0) //   no sort key
        .u32(0) // no WOS rows
        .u32(1) // one segment:
        .u64(rows)
        .u32(1) //   one column
        .raw(&column.0)
        .raw(&zone_map.0)
        .u32(0) //   block zone maps elided (single block)
        .u64(rows) // delete vector: `rows` bits, LSB first
        .raw(deleted);
    let crc = vertexica_storage::wal::crc32(&body.0);
    body.u32(crc).0
}

/// [`golden_image_of`] for `b VARBINARY` with no row deleted.
fn golden_image(compress: bool, rows: u64, column: Bytes, zone_map: Bytes) -> Vec<u8> {
    golden_image_of(4, compress, rows, column, zone_map, &vec![0u8; (rows as usize).div_ceil(8)])
}

fn golden_table(compress: bool, cells: &BlobModel) -> Table {
    let mut options = TableOptions::default().with_moveout_threshold(7);
    options.compress = compress;
    let mut t = Table::new("g", blob_schema(), options);
    let batch = RecordBatch::new(blob_schema(), vec![build_blob(cells, &[1])]).unwrap();
    t.append_batch(&batch).unwrap();
    t
}

/// The on-disk bytes of a blob column — Plain and RLE — are pinned to a
/// hand-written expectation, so the in-memory layout can change without the
/// format drifting: a file written before the flat layout reads back, and a
/// file written now is what the old reader expects.
#[test]
fn blob_column_vxtb2_bytes_are_golden() {
    let cell = |b: &[u8]| Some(b.to_vec());

    // Plain: one value per cell, NULL as a bare tag.
    let plain_cells = vec![cell(b"\xde\xad"), None, cell(b""), cell(b"\x00")];
    let plain = golden_image(
        false,
        4,
        Bytes::default()
            .u8(0) // Plain
            .u8(4) // Blob
            .u64(4)
            .blob(b"\xde\xad")
            .null()
            .blob(b"")
            .blob(b"\x00"),
        Bytes::default().blob(b"").blob(b"\xde\xad").u64(1), // min, max, NULL count
    );

    // RLE: (run length, value) pairs; a NULL run and an empty-blob run are
    // different runs.
    let rle_cells = vec![
        cell(b"\xaa"),
        cell(b"\xaa"),
        cell(b"\xaa"),
        None,
        None,
        cell(b""),
        cell(b""),
        cell(b""),
    ];
    let rle = golden_image(
        true,
        8,
        Bytes::default()
            .u8(1) // RLE
            .u8(4) // Blob
            .u32(3)
            .u32(3)
            .blob(b"\xaa")
            .u32(2)
            .null()
            .u32(3)
            .blob(b""),
        Bytes::default().blob(b"").blob(b"\xaa").u64(2),
    );

    for (compress, cells, golden) in [(false, plain_cells, plain), (true, rle_cells, rle)] {
        let table = golden_table(compress, &cells);
        let image = persist::table_to_bytes_physical(&table).unwrap();
        assert_eq!(image, golden, "compress={compress}: written image drifted");
        let back = persist::table_from_bytes_physical(&golden).unwrap();
        let scanned = back.scan(None, &[]).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_blob_column_is(scanned[0].column(0), &cells);
        assert_eq!(persist::table_to_bytes_physical(&back).unwrap(), golden);
    }
}

/// The on-disk bytes of plain Int, Float and Bool columns, and of delete
/// vectors with bits set, are pinned to a hand-written expectation: the
/// typed column writers and readers keep the per-`Value` format.
#[test]
fn plain_int_float_bool_vxtb2_bytes_are_golden() {
    const NAN: u64 = 0x7FF8_0000_0000_0000;
    const NEG_ZERO: u64 = 0x8000_0000_0000_0000;
    const INF: u64 = 0x7FF0_0000_0000_0000;
    let int = |v: i64| Value::Int(v);
    let float = |bits: u64| Value::Float(f64::from_bits(bits));
    let cases = [
        // Nine rows, so the delete vector's second byte holds a lone bit.
        (
            DataType::Int,
            vec![
                int(5),
                Value::Null,
                int(-1),
                int(0),
                int(i64::MAX),
                int(7),
                int(7),
                int(i64::MIN),
                int(2),
            ],
            vec![0u64, 8],
            golden_image_of(
                1, // Int
                false,
                9,
                Bytes::default()
                    .u8(0) // Plain
                    .u8(1) // Int
                    .u64(9)
                    .int(5)
                    .null()
                    .int(-1)
                    .int(0)
                    .int(i64::MAX)
                    .int(7)
                    .int(7)
                    .int(i64::MIN)
                    .int(2),
                Bytes::default().int(i64::MIN).int(i64::MAX).u64(1),
                &[0b0000_0001, 0b0000_0001],
            ),
        ),
        (
            DataType::Float,
            vec![float(0.5f64.to_bits()), Value::Null, float(NEG_ZERO), float(INF), float(NAN)],
            vec![1, 4],
            golden_image_of(
                2, // Float
                false,
                5,
                Bytes::default()
                    .u8(0) // Plain
                    .u8(2) // Float
                    .u64(5)
                    .float(0x3FE0_0000_0000_0000) // 0.5
                    .null()
                    .float(NEG_ZERO)
                    .float(INF)
                    .float(NAN),
                Bytes::default().float(NEG_ZERO).float(NAN).u64(1),
                &[0b0001_0010],
            ),
        ),
        (
            DataType::Bool,
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![0],
            golden_image_of(
                0, // Bool
                false,
                3,
                Bytes::default()
                    .u8(0) // Plain
                    .u8(0) // Bool
                    .u64(3)
                    .bool(true)
                    .null()
                    .bool(false),
                Bytes::default().bool(false).bool(true).u64(1),
                &[0b0000_0001],
            ),
        ),
    ];
    for (dtype, values, deleted, golden) in cases {
        let schema = Schema::new(vec![Field::new("b", dtype)]);
        let mut table =
            Table::new("g", schema.clone(), TableOptions::default().with_moveout_threshold(7));
        let column = Column::from_values(dtype, &values).unwrap();
        table.append_batch(&RecordBatch::new(schema, vec![column]).unwrap()).unwrap();
        assert_eq!(table.delete_rowids(&deleted).unwrap(), deleted.len());
        let image = persist::table_to_bytes_physical(&table).unwrap();
        assert_eq!(image, golden, "{dtype}: written image drifted");

        let back = persist::table_from_bytes_physical(&golden).unwrap();
        let scanned: Vec<Value> =
            back.scan(None, &[]).unwrap().iter().flat_map(|b| b.column(0).iter()).collect();
        let kept: Vec<&Value> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| !deleted.contains(&(*i as u64)))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(scanned.len(), kept.len(), "{dtype}");
        for (got, want) in scanned.iter().zip(kept) {
            assert!(same_value(got, want), "{dtype}: {got:?} vs {want:?}");
        }
        assert_eq!(persist::table_to_bytes_physical(&back).unwrap(), golden);
    }
}

/// A cell of another type inside a plain blob column is a typed error, not
/// a panic or a reinterpretation.
#[test]
fn plain_blob_column_rejects_a_foreign_cell() {
    let image = golden_image(
        false,
        1,
        Bytes::default().u8(0).u8(4).u64(1).u8(2).u64(9), // an Int cell
        Bytes::default().null().null().u64(0),
    );
    assert!(persist::table_from_bytes_physical(&image).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat blob column behaves exactly like a `Vec<Option<Vec<u8>>>`
    /// under every way of building and reshaping it.
    #[test]
    fn flat_blob_column_matches_boxed_model(
        cells in arb_blob_cells(60),
        more in arb_blob_cells(20),
        how in proptest::collection::vec(any::<u8>(), 1..8),
        picks in proptest::collection::vec(any::<usize>(), 0..90),
        mask in proptest::collection::vec(any::<bool>(), 60),
        bounds in (any::<usize>(), any::<usize>()),
        copies in 0usize..5,
    ) {
        let col = build_blob(&cells, &how);
        assert_blob_column_is(&col, &cells);
        let n = cells.len();

        // take: repeats and reorders.
        let indices: Vec<usize> = if n == 0 { vec![] } else { picks.iter().map(|p| p % n).collect() };
        let taken: BlobModel = indices.iter().map(|&i| cells[i].clone()).collect();
        assert_blob_column_is(&col.take(&indices), &taken);

        // slice: any in-bounds range, empty ones included.
        let start = bounds.0 % (n + 1);
        let len = bounds.1 % (n - start + 1);
        assert_blob_column_is(&col.slice(start, len), &cells[start..start + len]);

        // filter.
        let selection = Bitmap::from_iter_bool(mask.iter().copied().take(n));
        let kept: BlobModel =
            cells.iter().zip(&mask).filter(|(_, keep)| **keep).map(|(c, _)| c.clone()).collect();
        assert_blob_column_is(&col.filter(&selection), &kept);

        // concat and extend_from, with a 0-row column in the middle.
        let other = build_blob(&more, &how);
        let joined: BlobModel = cells.iter().chain(&more).cloned().collect();
        let concat = Column::concat(&[col.clone(), Column::empty(DataType::Blob), other.clone()]);
        assert_blob_column_is(&concat.unwrap(), &joined);
        let mut b = ColumnBuilder::new(DataType::Blob);
        b.extend_from(&col);
        b.extend_from(&Column::empty(DataType::Blob));
        b.extend_from(&other);
        assert_blob_column_is(&b.finish(), &joined);

        // repeat: a blob, an empty blob, NULL.
        for cell in cells.iter().take(3).cloned().chain([None, Some(vec![])]) {
            let repeated = Column::repeat(DataType::Blob, &boxed(&cell), copies).unwrap();
            assert_blob_column_is(&repeated, &vec![cell; copies]);
        }

        // Hash partitioning hashes cells, not offsets: equal cells agree
        // wherever they sit, and NULL does not hash like the empty blob.
        let mut hashes = vec![0u64; n];
        col.hash_combine(&mut hashes);
        for i in 0..n {
            for j in 0..i {
                if cells[i] == cells[j] {
                    prop_assert_eq!(hashes[i], hashes[j]);
                }
                if cells[i].is_none() && cells[j].as_deref() == Some(&[]) {
                    prop_assert_ne!(hashes[i], hashes[j]);
                }
            }
        }
    }

    /// Zone maps (per segment and per block) and the Plain-vs-RLE choice of
    /// a blob column equal what the boxed `Value` loops compute on the same
    /// cells, and the encoded column decodes back to them.
    #[test]
    fn blob_zone_maps_and_encoding_choice_equal_boxed(
        runs in proptest::collection::vec(
            (proptest::option::of(proptest::collection::vec(0u8..3, 0..4)), 1usize..5),
            0..120,
        ),
        tiles in 1usize..9,
    ) {
        // Runs of equal cells (so RLE is sometimes chosen), tiled past one
        // block (so per-block zone maps exist).
        let once: BlobModel =
            runs.iter().flat_map(|(cell, len)| std::iter::repeat_n(cell.clone(), *len)).collect();
        let cells: BlobModel = std::iter::repeat_n(once, tiles).flatten().collect();
        let values: Vec<Value> = cells.iter().map(boxed).collect();
        let n = cells.len();
        let batch = RecordBatch::new(blob_schema(), vec![build_blob(&cells, &[1])]).unwrap();

        for compress in [false, true] {
            let seg = Segment::build(&blob_schema(), &batch, compress).unwrap();
            let (min, max, nulls) = boxed_zone(&values);
            let zm = seg.zone_map(0);
            prop_assert_eq!((&zm.min, &zm.max, zm.null_count), (&min, &max, nulls));
            if n > BLOCK_ROWS {
                for b in 0..seg.num_blocks() {
                    let (start, len) = seg.block_range(b);
                    let (min, max, nulls) = boxed_zone(&values[start..start + len]);
                    let zm = seg.block_zone_map(0, b);
                    prop_assert_eq!((&zm.min, &zm.max, zm.null_count), (&min, &max, nulls));
                }
            }

            let boxed_runs = 1 + (1..n).filter(|&i| values[i] != values[i - 1]).count();
            let want_rle = compress && n > 0 && boxed_runs * 2 <= n;
            let encoded = seg.encoded_column(0);
            prop_assert_eq!(matches!(encoded, EncodedColumn::Rle { .. }), want_rle);
            prop_assert_eq!(matches!(encoded, EncodedColumn::Plain(_)), !want_rle);
            if let EncodedColumn::Rle { runs, .. } = encoded {
                prop_assert_eq!(runs.len(), boxed_runs);
            }
            assert_blob_column_is(&encoded.decode().unwrap(), &cells);
            let start = n / 3;
            assert_blob_column_is(
                &encoded.decode_range(start, n - start).unwrap(),
                &cells[start..],
            );
        }
    }

    /// A table with a blob column survives its on-disk image, which
    /// re-serializes bitwise.
    #[test]
    fn blob_tables_persist_losslessly(
        cells in arb_blob_cells(150),
        moveout in 4usize..40,
        compress in any::<bool>(),
    ) {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("b", DataType::Blob),
        ]);
        let mut options = TableOptions::default().with_moveout_threshold(moveout);
        options.compress = compress;
        let mut t = Table::new("t", schema, options);
        for (i, cell) in cells.iter().enumerate() {
            t.insert_row(vec![Value::Int(i as i64), boxed(cell)]).unwrap();
        }
        let rows = |t: &Table| -> Vec<Vec<Value>> {
            let mut rows: Vec<Vec<Value>> =
                t.scan(None, &[]).unwrap().iter().flat_map(|b| b.rows()).collect();
            rows.sort_by_key(|r| r[0].as_int());
            rows
        };
        let want: Vec<Vec<Value>> =
            cells.iter().enumerate().map(|(i, c)| vec![Value::Int(i as i64), boxed(c)]).collect();
        prop_assert_eq!(rows(&t), want.clone());

        let image = persist::table_to_bytes_physical(&t).unwrap();
        let back = persist::table_from_bytes_physical(&image).unwrap();
        prop_assert_eq!(rows(&back), want);
        prop_assert_eq!(persist::table_to_bytes_physical(&back).unwrap(), image);
    }

    /// Every encoding decodes back to exactly the input values.
    #[test]
    fn encodings_roundtrip((dtype, values) in arb_column()) {
        let col = Column::from_values(dtype, &values).unwrap();
        let auto = EncodedColumn::encode_auto(&col).decode().unwrap();
        prop_assert_eq!(auto.iter().collect::<Vec<_>>(), values.clone());

        let rle = EncodedColumn::encode_rle(&col).decode().unwrap();
        prop_assert_eq!(rle.iter().collect::<Vec<_>>(), values.clone());

        if dtype == DataType::Str {
            let dict = EncodedColumn::encode_dict(&col).decode().unwrap();
            prop_assert_eq!(dict.iter().collect::<Vec<_>>(), values);
        }
    }

    /// Bitmap algebra obeys De Morgan and cardinality laws.
    #[test]
    fn bitmap_algebra(bits_a in proptest::collection::vec(any::<bool>(), 1..300)) {
        let n = bits_a.len();
        let bits_b: Vec<bool> = bits_a.iter().map(|b| !b).collect();
        let a = Bitmap::from_iter_bool(bits_a.iter().copied());
        let b = Bitmap::from_iter_bool(bits_b.iter().copied());
        prop_assert_eq!(a.and(&b).count_ones(), 0);
        prop_assert_eq!(a.or(&b).count_ones(), n);
        // De Morgan: !(a & b) == !a | !b
        prop_assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        prop_assert_eq!(a.count_ones() + a.count_zeros(), n);
        // iter_ones agrees with get.
        for i in a.iter_ones() {
            prop_assert!(a.get(i));
        }
    }

    /// Tables persist and restore to the same logical content.
    #[test]
    fn persistence_is_lossless(
        rows in proptest::collection::vec(
            (any::<i64>(), "[a-z]{0,6}", proptest::option::of(-1e6f64..1e6)),
            0..120,
        )
    ) {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
        ]);
        let mut t = Table::new("t", schema.clone(), TableOptions::default().with_moveout_threshold(32));
        for (id, name, score) in &rows {
            t.insert_row(vec![
                Value::Int(*id),
                Value::Str(name.clone()),
                score.map(Value::Float).unwrap_or(Value::Null),
            ]).unwrap();
        }
        let bytes = persist::table_to_bytes_physical(&t).unwrap();
        let back = persist::table_from_bytes_physical(&bytes).unwrap();
        prop_assert_eq!(back.num_rows(), t.num_rows());
        let read = |t: &Table| {
            let b = t.scan(None, &[]).unwrap();
            let merged = RecordBatch::concat(schema.clone(), &b).unwrap();
            let mut rows = merged.rows();
            rows.sort_by(|a, b| {
                format!("{a:?}").cmp(&format!("{b:?}"))
            });
            rows
        };
        prop_assert_eq!(read(&t), read(&back));
    }

    /// Scan predicates return exactly the rows a full-scan filter would.
    #[test]
    fn scan_predicates_match_post_filter(
        keys in proptest::collection::vec(-100i64..100, 1..200),
        threshold in -100i64..100,
    ) {
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int)]);
        let mut t = Table::new("t", schema, TableOptions::default().with_moveout_threshold(16).sorted_by(vec![0]));
        for k in &keys {
            t.insert_row(vec![Value::Int(*k)]).unwrap();
        }
        let pred = ColumnPredicate::new(0, PredicateOp::Gt, Value::Int(threshold));
        let got: usize = t.scan(None, &[pred]).unwrap().iter().map(|b| b.num_rows()).sum();
        let expected = keys.iter().filter(|&&k| k > threshold).count();
        prop_assert_eq!(got, expected);
    }

    /// delete + count stays consistent under arbitrary delete sets.
    #[test]
    fn deletes_are_exact(
        n in 1usize..150,
        delete_mask in proptest::collection::vec(any::<bool>(), 150),
    ) {
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int)]);
        let mut t = Table::new("t", schema, TableOptions::default().with_moveout_threshold(20));
        for i in 0..n {
            t.insert_row(vec![Value::Int(i as i64)]).unwrap();
        }
        let scans = t.scan_with_rowids(None, &[]).unwrap();
        let mut doomed = Vec::new();
        let mut expected_dead = 0;
        for (batch, ids) in &scans {
            for (i, &rowid) in ids.iter().enumerate().take(batch.num_rows()) {
                let key = batch.row(i)[0].as_int().unwrap() as usize;
                if delete_mask[key] {
                    doomed.push(rowid);
                    expected_dead += 1;
                }
            }
        }
        let dead = t.delete_rowids(&doomed).unwrap();
        prop_assert_eq!(dead, expected_dead);
        prop_assert_eq!(t.num_rows(), n - expected_dead);
        // Deleted keys never reappear in scans.
        for b in t.scan(None, &[]).unwrap() {
            for i in 0..b.num_rows() {
                let key = b.row(i)[0].as_int().unwrap() as usize;
                prop_assert!(!delete_mask[key]);
            }
        }
    }

    /// A pull-based scan cursor over any mix of WOS rows, ROS segments,
    /// delete vectors and pushed-down predicates yields, concatenated,
    /// exactly the eager scan's batches — bitwise, batch for batch — and
    /// exactly the rows a reference row-filter selects.
    #[test]
    fn scan_cursor_is_bitwise_equal_to_eager_scan(
        rows in proptest::collection::vec(
            (-50i64..50, proptest::option::of(-100i64..100)),
            0..150,
        ),
        moveout in 3usize..40,
        compress in any::<bool>(),
        delete_mask in proptest::collection::vec(any::<bool>(), 150),
        threshold in -50i64..50,
        flip in any::<bool>(),
    ) {
        let schema = Schema::new(vec![
            Field::not_null("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        let mut options = TableOptions::default().with_moveout_threshold(moveout);
        if compress {
            options = options.compressed();
        }
        let mut t = Table::new("t", schema, options);
        for (k, v) in &rows {
            t.insert_row(vec![Value::Int(*k), v.map(Value::Int).unwrap_or(Value::Null)]).unwrap();
        }
        // Random deletes across WOS and ROS, addressed by scan position.
        let mut doomed = Vec::new();
        let mut live = vec![true; rows.len()];
        let mut pos = 0usize;
        for (_, ids) in t.scan_with_rowids(None, &[]).unwrap() {
            for id in ids {
                if delete_mask[pos % delete_mask.len()] {
                    doomed.push(id);
                    live[pos] = false;
                }
                pos += 1;
            }
        }
        // Rowid scan order may interleave WOS/ROS differently from insert
        // order, so recompute the expected survivors from the table itself.
        t.delete_rowids(&doomed).unwrap();
        let op = if flip { PredicateOp::Gt } else { PredicateOp::LtEq };
        let pred = ColumnPredicate::new(0, op, Value::Int(threshold));

        let eager = t.scan(None, std::slice::from_ref(&pred)).unwrap();
        let mut cursor = t.scan_cursor(None, std::slice::from_ref(&pred)).unwrap();
        let mut pulled = Vec::new();
        while let Some(b) = cursor.next_batch().unwrap() {
            pulled.push(b);
        }
        // Batch-for-batch bitwise identity (same segmentation, same rows).
        prop_assert_eq!(eager.len(), pulled.len());
        for (e, p) in eager.iter().zip(&pulled) {
            prop_assert_eq!(e.num_rows(), p.num_rows());
            prop_assert_eq!(e.rows(), p.rows());
        }
        // And both equal the reference row filter over live rows.
        let unfiltered: usize = t.scan(None, &[]).unwrap().iter().map(|b| b.num_rows()).sum();
        let expected: usize = {
            let all: Vec<Vec<Value>> =
                t.scan(None, &[]).unwrap().iter().flat_map(|b| b.rows()).collect();
            all.iter().filter(|r| pred.matches(&r[0])).count()
        };
        prop_assert!(unfiltered <= rows.len());
        prop_assert_eq!(RecordBatch::total_rows(&pulled), expected);
    }

    /// Evicting every checkpointed segment out of the buffer pool and
    /// faulting it back in through its `.vxtb` spill image is bitwise
    /// lossless: scans return identical rows and the physical table image
    /// re-serializes to the same bytes, for arbitrary row mixes, moveout
    /// granularities and encodings.
    #[test]
    fn evict_reload_roundtrips_bitwise(
        rows in proptest::collection::vec(
            (any::<i64>(), proptest::option::of("[a-z]{0,8}"), proptest::option::of(-1e9f64..1e9)),
            1..180,
        ),
        moveout in 4usize..48,
        compress in any::<bool>(),
    ) {
        use vertexica_common::sync::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vx_evict_prop_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
        ]);
        let mut options = TableOptions::default().with_moveout_threshold(moveout);
        if compress {
            options = options.compressed();
        }
        let catalog = vertexica_storage::open_durable(&dir, false).unwrap();
        let t = catalog.create_table("t", schema, options).unwrap();
        for (id, name, score) in &rows {
            t.write().insert_row(vec![
                Value::Int(*id),
                name.clone().map(Value::Str).unwrap_or(Value::Null),
                score.map(Value::Float).unwrap_or(Value::Null),
            ]).unwrap();
        }
        t.write().moveout().unwrap();
        catalog.checkpoint().unwrap();

        let before_rows: Vec<Vec<Value>> = t
            .read()
            .scan(None, &[])
            .unwrap()
            .iter()
            .flat_map(|b| b.rows())
            .collect();
        let before_image = persist::table_to_bytes_physical(&t.read()).unwrap();

        let pool = catalog.buffer_pool();
        pool.set_budget(Some(1));
        prop_assert!(pool.stats().evictions >= 1, "at least one segment must evict");

        let after_rows: Vec<Vec<Value>> = t
            .read()
            .scan(None, &[])
            .unwrap()
            .iter()
            .flat_map(|b| b.rows())
            .collect();
        prop_assert_eq!(before_rows, after_rows);
        let after_image = persist::table_to_bytes_physical(&t.read()).unwrap();
        prop_assert_eq!(before_image, after_image);
        prop_assert!(pool.stats().reloads >= 1);

        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Values survive a coerce to their own type, and Int→Float→Int is the
    /// identity on integers that fit.
    #[test]
    fn coercion_laws(v in any::<i32>()) {
        let int = Value::Int(v as i64);
        prop_assert_eq!(int.coerce(DataType::Int).unwrap(), int.clone());
        let f = int.coerce(DataType::Float).unwrap();
        prop_assert_eq!(f.coerce(DataType::Int).unwrap(), int);
    }
}

/// Cells for the typed-vs-boxed checks: NULLs plus each type's awkward
/// values (NaN of both signs, ±0.0, infinities, extreme ints, empty strings
/// and blobs).
fn arb_edge_value_for(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Bool => {
            prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)].boxed()
        }
        DataType::Int => prop_oneof![
            Just(Value::Null),
            Just(Value::Int(i64::MIN)),
            Just(Value::Int(i64::MAX)),
            (-3i64..3).prop_map(Value::Int)
        ]
        .boxed(),
        DataType::Float => prop_oneof![
            Just(Value::Null),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-f64::NAN)),
            Just(Value::Float(0.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(f64::NEG_INFINITY)),
            (-2.0f64..2.0).prop_map(Value::Float)
        ]
        .boxed(),
        DataType::Str => prop_oneof![
            Just(Value::Null),
            Just(Value::Str(String::new())),
            "[a-c]{0,3}".prop_map(Value::Str)
        ]
        .boxed(),
        DataType::Blob => prop_oneof![
            Just(Value::Null),
            Just(Value::Blob(Vec::new())),
            proptest::collection::vec(0u8..3, 0..3).prop_map(Value::Blob)
        ]
        .boxed(),
    }
}

/// Bitwise value equality: the same variant, and `total_cmp`-equal (for
/// floats that is equal bits, so NaN equals itself and -0.0 differs from
/// 0.0).
fn same_value(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a.total_cmp(b).is_eq()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The typed `extend_from` arms (behind `Column::concat`) and the typed
    /// zone-map loop give exactly what the boxed per-`Value` loops give, at
    /// one row, one block and one block plus a row.
    #[test]
    fn typed_concat_and_zone_maps_equal_boxed(
        (dtype, pattern) in arb_dtype().prop_flat_map(|dt| {
            proptest::collection::vec(arb_edge_value_for(dt), 1..40).prop_map(move |v| (dt, v))
        }),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        size in prop_oneof![Just(1usize), Just(BLOCK_ROWS), Just(BLOCK_ROWS + 1)],
    ) {
        let values: Vec<Value> = pattern.iter().cycle().take(size).cloned().collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (size + 1)).collect();
        cuts.extend([0, size]);
        cuts.sort_unstable();
        let parts: Vec<Column> = cuts
            .windows(2)
            .map(|w| Column::from_values(dtype, &values[w[0]..w[1]]).unwrap())
            .collect();

        // Boxed reference: one `push` per cell.
        let mut boxed = ColumnBuilder::with_capacity(dtype, size);
        for v in &values {
            boxed.push(v.clone()).unwrap();
        }
        let boxed = boxed.finish();
        let typed = Column::concat(&parts).unwrap();
        prop_assert_eq!(typed.len(), boxed.len());
        prop_assert_eq!(typed.validity(), boxed.validity());
        for i in 0..size {
            prop_assert!(same_value(&typed.value(i), &boxed.value(i)), "row {}", i);
        }

        let schema = Schema::new(vec![Field::new("c", dtype)]);
        let batch = RecordBatch::new(schema.clone(), vec![typed]).unwrap();
        for compress in [false, true] {
            let seg = Segment::build(&schema, &batch, compress).unwrap();
            for b in 0..seg.num_blocks() {
                let (start, len) = seg.block_range(b);
                let zones = [(seg.block_zone_map(0, b), &values[start..start + len])];
                let whole = (seg.zone_map(0), &values[..]);
                for (zm, cells) in zones.into_iter().chain([whole]) {
                    let (min, max, nulls) = boxed_zone(cells);
                    prop_assert!(same_value(&zm.min, &min), "min {:?} vs {:?}", zm.min, min);
                    prop_assert!(same_value(&zm.max, &max), "max {:?} vs {:?}", zm.max, max);
                    prop_assert_eq!(zm.null_count, nulls);
                }
            }
        }
    }
}

/// A physical image exercising every part of the format: WOS rows, a plain
/// and an encoded (RLE and dictionary) segment, NULLs of every type, delete
/// vectors with bits set, and — when `blocks` — a segment of more than one
/// block carrying per-block zone maps. Returns the image and its segment
/// spans.
fn hostile_fixture(blocks: bool) -> (Vec<u8>, Vec<persist::SegmentSpan>) {
    let schema = Schema::new(vec![
        Field::not_null("id", DataType::Int),
        Field::new("name", DataType::Str),
        Field::new("score", DataType::Float),
        Field::new("flag", DataType::Bool),
        Field::new("payload", DataType::Blob),
    ]);
    let row = |i: i64| {
        let nth = |k: i64, v: Value| if i % k == 0 { Value::Null } else { v };
        vec![
            Value::Int(i / 4),
            nth(5, Value::Str(format!("n{}", i % 3))),
            nth(6, Value::Float(i as f64 / 4.0)),
            nth(7, Value::Bool(i % 2 == 0)),
            nth(4, Value::Blob(vec![i as u8; (i % 3) as usize])),
        ]
    };
    let batch = |rows: std::ops::Range<i64>| {
        let rows: Vec<Vec<Value>> = rows.map(row).collect();
        RecordBatch::from_rows(schema.clone(), &rows).unwrap()
    };
    let mut t = Table::new("h", schema.clone(), TableOptions::default());
    t.adopt_segment(Segment::build(&schema, &batch(0..24), false).unwrap()).unwrap();
    t.adopt_segment(Segment::build(&schema, &batch(0..40), true).unwrap()).unwrap();
    if blocks {
        let rows = BLOCK_ROWS as i64 + 1;
        t.adopt_segment(Segment::build(&schema, &batch(0..rows), false).unwrap()).unwrap();
    }
    for i in 0..3 {
        t.insert_row(row(i)).unwrap();
    }
    t.delete_rowids(&[1, 9, (1 << 32) | 3]).unwrap();
    persist::table_to_bytes_physical_indexed(&t).unwrap()
}

/// One edit to a byte string: the parser, not the checksum, must cope.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at a position (mod length) with a nonzero mask.
    Flip(usize, u8),
    /// Overwrite the `u32` (`wide == false`) or `u64` at a position (mod
    /// length) — a length, count or tag field when it lands on one.
    Write(usize, u64, bool),
    /// Cut the bytes at a position (mod length + 1).
    Truncate(usize),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let field = prop_oneof![
        Just(0u64),
        Just(1),
        Just(2),
        Just(5),
        Just(0xFF),
        Just(1 << 31),
        Just(u32::MAX as u64),
        Just(1 << 62),
        Just(u64::MAX),
        any::<u64>(),
    ];
    prop_oneof![
        3 => (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        3 => (any::<usize>(), field, any::<bool>())
            .prop_map(|(at, v, wide)| Mutation::Write(at, v, wide)),
        1 => any::<usize>().prop_map(Mutation::Truncate),
    ]
}

/// Applies `m` to `bytes[keep..]`, leaving the first `keep` bytes alone.
fn mutate(bytes: &mut Vec<u8>, keep: usize, m: &Mutation) {
    let span = bytes.len() - keep;
    match *m {
        Mutation::Flip(at, mask) if span > 0 => bytes[keep + at % span] ^= mask,
        Mutation::Write(at, v, wide) if span > 0 => {
            let at = keep + at % span;
            let field =
                if wide { v.to_le_bytes().to_vec() } else { (v as u32).to_le_bytes().to_vec() };
            let end = (at + field.len()).min(bytes.len());
            bytes[at..end].copy_from_slice(&field[..end - at]);
        }
        Mutation::Truncate(at) => bytes.truncate(keep + at % (span + 1)),
        _ => {}
    }
}

/// `Ok`, or the typed corruption error: anything else (another error kind,
/// or a panic) fails the property.
fn assert_ok_or_corrupt<T>(what: &str, r: vertexica_storage::StorageResult<T>) {
    if let Err(e) = r {
        assert!(matches!(e, vertexica_storage::StorageError::Corrupt(_)), "{what}: {e:?}");
    }
}

/// Every single edit of a small image — each byte flipped three ways, each
/// position overwritten with huge `u32` / `u64` fields, each truncation —
/// with the trailer CRC re-stamped, decodes or fails with
/// `StorageError::Corrupt`, never a panic.
#[test]
fn every_single_edit_of_a_small_image_is_corrupt_not_panic() {
    let (image, _) = hostile_fixture(false);
    let body = &image[..image.len() - 4];
    let mut edits = Vec::new();
    for at in 6..body.len() {
        edits.extend([0x01, 0x80, 0xFF].map(|mask| Mutation::Flip(at - 6, mask)));
        for v in [u32::MAX as u64, 1 << 62, u64::MAX] {
            edits.extend([false, true].map(|wide| Mutation::Write(at - 6, v, wide)));
        }
        edits.push(Mutation::Truncate(at - 6));
    }
    for m in &edits {
        let mut edited = body.to_vec();
        mutate(&mut edited, 6, m);
        let crc = vertexica_storage::wal::crc32(&edited);
        edited.extend_from_slice(&crc.to_le_bytes());
        let parsed = std::panic::catch_unwind(|| {
            persist::table_from_bytes_physical_indexed(&edited).map(|_| ())
        });
        match parsed {
            Ok(r) => assert_ok_or_corrupt(&format!("{m:?}"), r),
            Err(_) => panic!("{m:?}: the parser panicked"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A physical image edited by byte flips, field overwrites and
    /// truncations, with its trailer CRC (or segment span CRC) re-stamped
    /// so the bytes reach the parser, decodes to a table or fails with
    /// `StorageError::Corrupt` — it never panics.
    #[test]
    fn hostile_images_with_valid_checksums_are_corrupt_not_panics(
        blocks in any::<bool>(),
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
        span_pick in any::<usize>(),
    ) {
        use vertexica_common::sync::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let (image, spans) = hostile_fixture(blocks);

        // Whole image: keep the magic, edit the body, re-stamp the trailer.
        let mut body = image[..image.len() - 4].to_vec();
        for m in &mutations {
            mutate(&mut body, 6, m);
        }
        let crc = vertexica_storage::wal::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert_ok_or_corrupt("image", persist::table_from_bytes_physical_indexed(&body));

        // One segment span, re-read as a spill with its CRC re-stamped.
        let span = &spans[span_pick % spans.len()];
        let mut seg = image[span.offset as usize..(span.offset + span.len) as usize].to_vec();
        for m in &mutations {
            mutate(&mut seg, 0, m);
        }
        let path = std::env::temp_dir().join(format!(
            "vx_hostile_span_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &seg).unwrap();
        let crc = vertexica_storage::wal::crc32(&seg);
        let read = persist::read_segment_at(&path, 0, seg.len() as u64, crc);
        std::fs::remove_file(&path).unwrap();
        assert_ok_or_corrupt("segment span", read);
    }
}
