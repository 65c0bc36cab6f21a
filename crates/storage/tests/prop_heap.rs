//! Differential test of [`HeapFile`]'s page-contiguous storage against
//! the plain `Vec<Row>` it replaced: random `bulk_load` / `append` /
//! `delete` / `restore_row` / `append_tombstone` sequences, read back
//! through `peek`, `read_page`, `read_run_visit` and `iter`, must agree
//! with the model slot for slot and charge the same page I/O. Arity 1,
//! an empty initial heap and a partial tail page are all in the
//! generator's range.

use cm_storage::{Column, DiskSim, HeapFile, Rid, Row, Schema, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn schema(arity: usize) -> Arc<Schema> {
    let cols = [
        Column::new("s", ValueType::Str),
        Column::new("i", ValueType::Int),
        Column::new("d", ValueType::Date),
    ];
    Arc::new(Schema::new(cols[..arity].to_vec()))
}

/// A live row (first column never NULL, so it is never mistaken for a
/// tombstone) drawn from a small string dictionary.
fn live_row(arity: usize, seed: u64) -> Row {
    let full = [
        Value::str(format!("s{}", seed % 7)),
        if seed.is_multiple_of(5) { Value::Null } else { Value::Int(seed as i64 % 100) },
        Value::Date((seed % 1000) as i32),
    ];
    full[..arity].to_vec()
}

fn is_tombstone(row: &[Value]) -> bool {
    row.iter().all(Value::is_null)
}

fn model_page(model: &[Row], tpp: usize, page: u64) -> &[Row] {
    let lo = page as usize * tpp;
    &model[lo..(lo + tpp).min(model.len())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn heap_matches_vec_of_rows_model(
        wide in any::<bool>(),
        tpp in 1usize..6,
        loaded in 0usize..20,
        ops in prop::collection::vec((0u8..7, any::<u64>()), 0..80),
    ) {
        let arity = if wide { 3 } else { 1 };
        let disk = DiskSim::with_defaults();
        let mut model: Vec<Row> = (0..loaded as u64).map(|i| live_row(arity, i * 31)).collect();
        let mut heap = HeapFile::bulk_load(&disk, schema(arity), model.clone(), tpp).unwrap();
        let (mut reads, mut writes) = (0u64, 0u64);
        let null_row = vec![Value::Null; arity];

        for (op, x) in ops {
            let len = model.len() as u64;
            let pages = len.div_ceil(tpp as u64);
            match op {
                0 => {
                    let rid = heap.append(disk.as_ref(), live_row(arity, x)).unwrap();
                    prop_assert_eq!(rid, Rid(len));
                    model.push(live_row(arity, x));
                    writes += 1;
                }
                1 if len > 0 => {
                    let rid = x % len;
                    let old = heap.delete(disk.as_ref(), Rid(rid)).unwrap();
                    prop_assert_eq!(&old, &model[rid as usize]);
                    model[rid as usize] = null_row.clone();
                    writes += 1;
                }
                2 if len > 0 && is_tombstone(&model[(x % len) as usize]) => {
                    let rid = x % len;
                    heap.restore_row(disk.as_ref(), Rid(rid), live_row(arity, x)).unwrap();
                    model[rid as usize] = live_row(arity, x);
                    writes += 1;
                }
                3 => {
                    prop_assert_eq!(heap.append_tombstone(), Rid(len));
                    model.push(null_row.clone());
                }
                4 => {
                    // One page past the end must be refused, uncharged.
                    let page = x % (pages + 1);
                    match heap.read_page(disk.as_ref(), page) {
                        Ok(rows) => {
                            let rows: Vec<&[Value]> = rows.collect();
                            prop_assert_eq!(rows, model_page(&model, tpp, page));
                            reads += 1;
                        }
                        Err(_) => prop_assert_eq!(page, pages),
                    }
                }
                5 if pages > 0 => {
                    let lo = x % pages;
                    let hi = lo + (x >> 32) % (pages - lo);
                    // The prefetch hint (any column set, even one the
                    // schema lacks) changes nothing that is observable.
                    let touch: [Option<&[usize]>; 4] = [None, Some(&[]), Some(&[0]), Some(&[2, 9])];
                    let touch = touch[(x >> 48) as usize % 4];
                    let mut next = lo * tpp as u64;
                    let visited = heap
                        .read_run_visit(disk.as_ref(), lo, hi, touch, |rid, row| {
                            assert_eq!(rid, Rid(next));
                            assert_eq!(row, model[next as usize].as_slice());
                            next += 1;
                        })
                        .unwrap();
                    prop_assert_eq!(next, ((hi + 1) * tpp as u64).min(len));
                    prop_assert_eq!(visited, next - lo * tpp as u64);
                    reads += hi - lo + 1;
                }
                _ => {
                    prop_assert!(heap.peek(Rid(len)).is_err());
                    prop_assert!(heap.delete(disk.as_ref(), Rid(len + x % 3)).is_err());
                    let past_end = heap.read_run_visit(disk.as_ref(), 0, pages, None, |_, _| {});
                    prop_assert!(past_end.is_err());
                }
            }
            prop_assert_eq!(heap.len(), model.len() as u64);
            prop_assert_eq!(heap.is_empty(), model.is_empty());
            prop_assert_eq!(heap.num_pages(), (model.len() as u64).div_ceil(tpp as u64));
        }

        let seen: Vec<(Rid, &[Value])> = heap.iter().collect();
        prop_assert_eq!(seen.len(), model.len());
        for ((rid, row), (i, want)) in seen.into_iter().zip(model.iter().enumerate()) {
            prop_assert_eq!(rid, Rid(i as u64));
            prop_assert_eq!(row, want.as_slice());
            prop_assert_eq!(heap.peek(rid).unwrap(), want.as_slice());
        }
        let io = disk.stats();
        prop_assert_eq!(io.seeks + io.seq_reads, reads, "page reads charged");
        prop_assert_eq!(io.page_writes, writes, "page writes charged");
    }
}
