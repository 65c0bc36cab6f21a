//! Property test: the batch materialiser builds exactly the rows that
//! were stored.
//!
//! Each case bulk-loads a random typed heap — one to five columns of any
//! type, each with NULLs at its own rate or none at all (so both the
//! bitmap and the no-bitmap loops run), `-0.0` and NaNs of several
//! payloads, `i64`/`i32` extremes — on pages of 1–9 slots, spanning up
//! to about three and a half [`SEGMENT_PAGES`] segments with a partial
//! tail page, and appends a few rows past the load. Every page is then
//! materialised through dense (every slot), sparse (a random subset) and
//! empty selections, and:
//!
//! * [`PageRef::rows_into`] appends, after the rows already in its
//!   output, one row per selected slot equal, value for value and float
//!   bits included, to the row stored there, to [`PageRef::row`] of the
//!   slot and to [`PageRef::value`] of each column;
//! * [`PageRef::append_cols`] onto rows that already hold a prefix keeps
//!   each prefix and appends the same values.
//!
//! Case count is `HEAP_PROP_CASES` (default 96), the setting of the other
//! page-level property tests, so CI raises them together.

mod typed_rows;

use cm_storage::{Column, DiskSim, HeapFile, PageRef, Row, Schema, Value, SEGMENT_PAGES};
use proptest::prelude::*;
use std::sync::Arc;
use typed_rows::{same, value, Rng, TYPES};

fn cases() -> ProptestConfig {
    let cases = std::env::var("HEAP_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96);
    ProptestConfig::with_cases(cases)
}

fn same_row(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
}

/// The selections a page is materialised through: every slot, a random
/// subset in slot order, and none.
fn selections(rng: &mut Rng, len: usize) -> [Vec<u32>; 3] {
    let keep = 1 + rng.below(4);
    let sparse = (0..len as u32)
        .filter(|_| rng.below(keep + 1) != 0)
        .collect();
    [(0..len as u32).collect(), sparse, Vec::new()]
}

/// Check every selection of `page` against `stored`, the rows the heap
/// was given, indexed by RID.
fn check_page(rng: &mut Rng, page: PageRef<'_>, stored: &[Row]) {
    let first = page.first_rid().0 as usize;
    for sel in selections(rng, page.len()) {
        let want: Vec<&Row> = sel.iter().map(|&s| &stored[first + s as usize]).collect();
        let marker = vec![Value::str("already here")];
        let mut got = vec![marker.clone()];
        page.rows_into(&sel, &mut got);
        prop_assert_eq!(got.len(), 1 + sel.len());
        prop_assert_eq!(&got[0], &marker, "rows_into keeps the rows before it");
        for ((row, &s), want) in got[1..].iter().zip(&sel).zip(&want) {
            prop_assert!(
                same_row(row, want),
                "slot {} at {}: {:?} vs {:?}",
                s,
                first,
                row,
                want
            );
            prop_assert!(same_row(row, &page.row(s as usize)));
            for (c, v) in row.iter().enumerate() {
                prop_assert!(same(v, &page.value(s as usize, c)));
            }
        }
        let mut wide: Vec<Row> = sel.iter().map(|&s| vec![Value::Int(s.into())]).collect();
        page.append_cols(&sel, &mut wide);
        for ((row, &s), want) in wide.iter().zip(&sel).zip(&want) {
            prop_assert_eq!(
                &row[0],
                &Value::Int(s.into()),
                "append_cols keeps the prefix"
            );
            prop_assert!(same_row(&row[1..], want));
        }
    }
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn batches_materialise_the_stored_rows(
        seed in any::<u64>(),
        arity in 1usize..6,
        tpp in 1usize..10,
        loaded_pages in 0usize..(3 * SEGMENT_PAGES + SEGMENT_PAGES / 2),
        partial in 0usize..9,
        appended in 0usize..20,
    ) {
        let mut rng = Rng(seed);
        let types: Vec<_> = (0..arity).map(|_| rng.pick(&TYPES)).collect();
        // Per column: no NULLs, or one in 2..=8.
        let nulls: Vec<usize> =
            (0..arity).map(|_| if rng.below(3) == 0 { 0 } else { 2 + rng.below(7) }).collect();
        let cols = types.iter().enumerate().map(|(i, &ty)| Column::new(format!("c{i}"), ty));
        let schema = Arc::new(Schema::new(cols.collect()));
        let row = |rng: &mut Rng| -> Row {
            types.iter().zip(&nulls).map(|(&ty, &n)| value(rng, ty, 40, n)).collect()
        };

        let loaded = loaded_pages * tpp + partial % tpp;
        let mut stored: Vec<Row> = (0..loaded).map(|_| row(&mut rng)).collect();
        let disk = DiskSim::with_defaults();
        let mut heap = HeapFile::bulk_load(&disk, schema, stored.clone(), tpp).unwrap();
        for _ in 0..appended {
            let r = row(&mut rng);
            heap.append_row(disk.as_ref(), &r).unwrap();
            stored.push(r);
        }
        for page in heap.pages() {
            check_page(&mut rng, page, &stored);
        }
    }
}
