//! Differential test of [`HeapFile`]'s column-major pages against a plain
//! `Vec<Row>` model: random `bulk_load` / `append` / `restore_row` /
//! `append_tombstone` sequences, read back through `peek`, `value`,
//! `read_page`, `read_run_visit` and `pages`, must agree with the model
//! slot for slot — a `Float`'s bits included, `-0.0` and NaN payloads
//! too — and charge the same page I/O. Every
//! column type may hold NULL. Arity 1, an empty initial heap and a
//! partial tail page are all in the generator's range, and so are heaps
//! of up to four [`SEGMENT_PAGES`] segments: a partial tail segment, and
//! runs and random writes that cross segment boundaries.
//!
//! Case count is `HEAP_PROP_CASES` (default 96) so CI can run more.

use cm_storage::{
    Column, DiskSim, HeapFile, PageRef, Rid, Row, Schema, Value, ValueType, SEGMENT_PAGES,
};
use proptest::prelude::*;
use std::sync::Arc;

fn cases() -> ProptestConfig {
    let cases = std::env::var("HEAP_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96);
    ProptestConfig::with_cases(cases)
}

fn schema(arity: usize) -> Arc<Schema> {
    let cols = [
        Column::new("s", ValueType::Str),
        Column::new("i", ValueType::Int),
        Column::new("d", ValueType::Date),
        Column::new("f", ValueType::Float),
    ];
    Arc::new(Schema::new(cols[..arity].to_vec()))
}

/// Float bit patterns a page must hand back unchanged: both zeros, two
/// NaN payloads, and ordinary values.
const FLOAT_BITS: [u64; 6] = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0xfff8_0000_0000_0001,
    0x3ff8_0000_0000_0000,
    0xc059_0000_0000_0000,
];

/// A row drawn from a small string dictionary, with NULLs in any column.
fn row(arity: usize, seed: u64) -> Row {
    let null = |k: u64| (seed >> k).is_multiple_of(5);
    let full = [
        if null(0) { Value::Null } else { Value::str(format!("s{}", seed % 7)) },
        if null(8) { Value::Null } else { Value::Int(seed as i64 % 100 - 50) },
        if null(16) { Value::Null } else { Value::Date((seed % 1000) as i32 - 500) },
        if null(24) {
            Value::Null
        } else {
            Value::float(f64::from_bits(FLOAT_BITS[(seed >> 32) as usize % FLOAT_BITS.len()]))
        },
    ];
    full[..arity].to_vec()
}

/// `Value` equality with a `Float`'s exact bits (`Value::eq` counts
/// `-0.0 == 0.0` and every NaN equal).
fn same(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float(x), Value::Float(y)) => x.0.to_bits() == y.0.to_bits(),
            _ => x == y,
        })
}

/// Every slot of `page` against the model rows from `first` on.
fn page_matches(page: &PageRef<'_>, model: &[Row], first: usize) -> bool {
    page.first_rid() == Rid(first as u64)
        && (0..page.len()).all(|s| {
            let want = &model[first + s];
            same(&page.row(s), want)
                && (0..want.len()).all(|c| page.is_null(s, c) == want[c].is_null())
        })
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn heap_matches_vec_of_rows_model(
        arity in 1usize..5,
        tpp in 1usize..70,
        loaded_pages in 0usize..4 * SEGMENT_PAGES,
        partial in 0usize..70,
        ops in prop::collection::vec((0u8..7, any::<u64>()), 0..80),
    ) {
        let loaded = loaded_pages * tpp + partial % tpp;
        let disk = DiskSim::with_defaults();
        let mut model: Vec<Row> = (0..loaded as u64).map(|i| row(arity, i * 31)).collect();
        // Which model slots are tombstones: an all-NULL row may be live.
        let mut dead = vec![false; loaded];
        let mut heap = HeapFile::bulk_load(&disk, schema(arity), model.clone(), tpp).unwrap();
        let (mut reads, mut writes) = (0u64, 0u64);
        let null_row = vec![Value::Null; arity];

        for (op, x) in ops {
            let len = model.len() as u64;
            let pages = len.div_ceil(tpp as u64);
            match op {
                0 => {
                    let rid = heap.append(disk.as_ref(), row(arity, x)).unwrap();
                    prop_assert_eq!(rid, Rid(len));
                    model.push(row(arity, x));
                    dead.push(false);
                    writes += 1;
                }
                1 if len > 0 && dead[(x % len) as usize] => {
                    let rid = x % len;
                    heap.restore_row(disk.as_ref(), Rid(rid), &row(arity, x)).unwrap();
                    model[rid as usize] = row(arity, x);
                    dead[rid as usize] = false;
                    writes += 1;
                }
                2 => {
                    prop_assert_eq!(heap.append_tombstone(), Rid(len));
                    model.push(null_row.clone());
                    dead.push(true);
                }
                3 => {
                    // One page past the end must be refused, uncharged.
                    let page = x % (pages + 1);
                    match heap.read_page(disk.as_ref(), page) {
                        Ok(p) => {
                            let first = page as usize * tpp;
                            prop_assert_eq!(p.len(), (len as usize - first).min(tpp));
                            prop_assert!(page_matches(&p, &model, first));
                            reads += 1;
                        }
                        Err(_) => prop_assert_eq!(page, pages),
                    }
                }
                4 if pages > 0 => {
                    let lo = x % pages;
                    let hi = lo + (x >> 32) % (pages - lo);
                    let mut next = lo as usize * tpp;
                    let mut ok = true;
                    let visited = heap
                        .read_run_visit(disk.as_ref(), lo, hi, |page| {
                            ok &= page_matches(&page, &model, next);
                            next += page.len();
                        })
                        .unwrap();
                    prop_assert!(ok);
                    prop_assert_eq!(next as u64, ((hi + 1) * tpp as u64).min(len));
                    prop_assert_eq!(visited, next as u64 - lo * tpp as u64);
                    reads += hi - lo + 1;
                }
                5 if len > 0 => {
                    let rid = x % len;
                    let col = (x >> 32) as usize % arity;
                    let got = heap.value(Rid(rid), col).unwrap();
                    prop_assert!(same(&[got], &model[rid as usize][col..col + 1]));
                }
                _ => {
                    prop_assert!(heap.peek(Rid(len)).is_err());
                    let past = Rid(len + x % 3);
                    prop_assert!(heap.restore_row(disk.as_ref(), past, &row(arity, x)).is_err());
                    let past_end = heap.read_run_visit(disk.as_ref(), 0, pages, |_| {});
                    prop_assert!(past_end.is_err());
                }
            }
            prop_assert_eq!(heap.len(), model.len() as u64);
            prop_assert_eq!(heap.is_empty(), model.is_empty());
            prop_assert_eq!(heap.num_pages(), (model.len() as u64).div_ceil(tpp as u64));
        }

        // Every slot, through the uncharged page walk and through `peek`.
        let mut next = 0usize;
        let mut ok = true;
        for page in heap.pages() {
            ok &= page_matches(&page, &model, next);
            next += page.len();
        }
        prop_assert!(ok);
        prop_assert_eq!(next, model.len());
        for (i, want) in model.iter().enumerate() {
            prop_assert!(same(&heap.peek(Rid(i as u64)).unwrap(), want));
        }
        let io = disk.stats();
        prop_assert_eq!(io.seeks + io.seq_reads, reads, "page reads charged");
        prop_assert_eq!(io.page_writes, writes, "page writes charged");
    }
}
