//! The row image a checkpoint once took of a heap, kept as a model:
//! every slot in RID order as `Some(row)` while it holds a row, `None`
//! when it does not. [`restore`] builds a table from it as the engine
//! once did, bulk-loading an all-NULL placeholder for each `None`.
//! Included by the test files that compare against it as a module.

use cm_query::Table;
use cm_storage::{DiskSim, HeapFile, Row, Schema, Value};
use std::sync::Arc;

/// `slots` bulk-loaded, an all-NULL row standing in for each `None`,
/// and the liveness bitmap that marks the `Some`s.
pub fn heap(
    disk: &DiskSim,
    schema: Arc<Schema>,
    slots: Vec<Option<Row>>,
    tups_per_page: usize,
) -> (HeapFile, Vec<u64>) {
    let mut live = vec![0u64; slots.len().div_ceil(64)];
    for (r, slot) in slots.iter().enumerate() {
        live[r / 64] |= u64::from(slot.is_some()) << (r % 64);
    }
    let arity = schema.arity();
    let rows = slots.into_iter().map(|s| s.unwrap_or_else(|| vec![Value::Null; arity]));
    let heap = HeapFile::bulk_load(disk, schema, rows.collect(), tups_per_page).unwrap();
    (heap, live)
}

/// The table the row image restores to.
pub fn restore(
    disk: &DiskSim,
    schema: Arc<Schema>,
    slots: Vec<Option<Row>>,
    tups_per_page: usize,
    clustered_col: usize,
    bucket_target: u64,
    sorted_len: u64,
) -> Table {
    let (heap, live) = heap(disk, schema, slots, tups_per_page);
    Table::restore(disk, heap, &live, clustered_col, bucket_target, sorted_len)
}
