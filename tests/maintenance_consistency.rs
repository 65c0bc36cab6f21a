//! Integration: INSERT/DELETE maintenance keeps every access structure
//! consistent — queries through any path remain correct after arbitrary
//! batches, the maintained CM equals a freshly rebuilt one, and the cost
//! asymmetry of Experiment 3 (CMs cheap, B+Trees expensive) holds through
//! the full Table/BufferPool/WAL stack.

use cm_core::{CmSpec, CorrelationMap};
use cm_datagen::ebay::{self, ebay, EbayConfig};
use cm_query::{AccessPath, ExecContext, Pred, Query, Table};
use cm_storage::{BufferPool, DiskSim, LogWrite, Rid, Wal};

fn small_table(disk: &std::sync::Arc<DiskSim>, seed: u64) -> (Table, ebay::EbayData) {
    let data = ebay(EbayConfig { categories: 200, min_items: 5, max_items: 12, seed });
    let t = Table::build(disk, data.schema.clone(), data.rows.clone(), 90, ebay::COL_CATID, 450)
        .unwrap();
    (t, data)
}

#[test]
fn queries_stay_correct_across_insert_batches() {
    let disk = DiskSim::with_defaults();
    let (mut t, mut data) = small_table(&disk, 11);
    let sec = t.add_secondary(&disk, "price", vec![ebay::COL_PRICE]);
    let cm = t.add_cm("price_cm", CmSpec::single_pow2(ebay::COL_PRICE, 12));
    let pool = BufferPool::new(disk.clone(), 256);
    let mut wal = Wal::new(disk.clone());
    let q = Query::single(Pred::between(ebay::COL_PRICE, 100_000i64, 300_000i64));

    for batch_no in 0..5u64 {
        for row in data.insert_batch(300, batch_no) {
            t.insert_row(&pool, Some(&mut wal), &row).unwrap();
        }
        wal.commit();
        let ctx = ExecContext::cold(&disk);
        let matched = |path| t.exec_batches(&ctx, path, &q, |_, _| {}).unwrap().matched;
        let truth = matched(AccessPath::FullScan);
        assert_eq!(matched(AccessPath::SecondarySorted(sec)), truth, "batch {batch_no}");
        assert_eq!(matched(AccessPath::CmScan(cm)), truth, "batch {batch_no}");
    }
}

#[test]
fn deletes_retract_from_every_structure() {
    let disk = DiskSim::with_defaults();
    let (mut t, _) = small_table(&disk, 12);
    let sec = t.add_secondary(&disk, "price", vec![ebay::COL_PRICE]);
    let cm = t.add_cm("price_cm", CmSpec::single_pow2(ebay::COL_PRICE, 10));
    let q = Query::single(Pred::between(ebay::COL_PRICE, 0i64, 1_000_000i64));
    let ctx = ExecContext::cold(&disk);
    let matched = |t: &Table, path| t.exec_batches(&ctx, path, &q, |_, _| {}).unwrap().matched;
    let before = matched(&t, AccessPath::FullScan);

    // Delete every 7th row.
    let victims: Vec<Rid> = (0..t.heap().len()).step_by(7).map(Rid).collect();
    for &rid in &victims {
        t.delete_row(disk.as_ref(), None, rid).unwrap();
    }
    let truth = matched(&t, AccessPath::FullScan);
    assert_eq!(before - victims.len() as u64, truth);
    assert_eq!(matched(&t, AccessPath::SecondarySorted(sec)), truth);
    assert_eq!(matched(&t, AccessPath::CmScan(cm)), truth);
}

#[test]
fn maintained_cm_equals_rebuilt_cm_through_table_api() {
    let disk = DiskSim::with_defaults();
    let (mut t, mut data) = small_table(&disk, 13);
    let cm = t.add_cm("price_cm", CmSpec::single_pow2(ebay::COL_PRICE, 12));

    // Mix of inserts and deletes through the Table API.
    for row in data.insert_batch(500, 0) {
        t.insert_row(disk.as_ref(), None, &row).unwrap();
    }
    for rid in (0..t.heap().len()).step_by(13).map(Rid) {
        t.delete_row(disk.as_ref(), None, rid).unwrap();
    }

    // Rebuild a CM from the surviving rows and compare.
    let mut rebuilt = CorrelationMap::new("rebuilt", CmSpec::single_pow2(ebay::COL_PRICE, 12));
    for rid in t.live_rids(0) {
        rebuilt.insert(&t.heap().peek(rid).unwrap(), rid, t.dir());
    }
    let maintained = t.cm(cm);
    assert_eq!(maintained.num_keys(), rebuilt.num_keys());
    assert_eq!(maintained.num_pairs(), rebuilt.num_pairs());
    let a: Vec<_> = maintained.iter().collect();
    let b: Vec<_> = rebuilt.iter().collect();
    assert_eq!(a, b);
}

#[test]
fn btree_maintenance_costs_scale_with_index_count_cms_do_not() {
    // The Experiment 3 asymmetry, end to end.
    let measure = |n_sec: usize, n_cm: usize| -> f64 {
        let disk = DiskSim::with_defaults();
        let (mut t, mut data) = small_table(&disk, 14);
        for i in 0..n_sec {
            t.add_secondary(&disk, format!("idx{i}"), vec![1 + (i % 6)]);
        }
        for i in 0..n_cm {
            t.add_cm(format!("cm{i}"), CmSpec::single_raw(1 + (i % 6)));
        }
        let pool = BufferPool::new(disk.clone(), 128);
        let mut wal = Wal::new(disk.clone());
        disk.reset();
        for row in data.insert_batch(2_000, 1) {
            // Stand-in for the typed heap record the engine layer logs
            // per insert (constant across configurations, so the
            // asymmetry below is purely structure maintenance).
            wal.append_sized(64);
            t.insert_row(&pool, Some(&mut wal), &row).unwrap();
        }
        wal.commit();
        pool.flush_all();
        disk.stats().elapsed_ms
    };
    let base = measure(0, 0);
    let five_btrees = measure(5, 0);
    let five_cms = measure(0, 5);
    assert!(
        five_btrees > 2.0 * base,
        "B+Trees inflate maintenance: {five_btrees} vs base {base}"
    );
    assert!(
        five_cms < 1.5 * base,
        "CMs barely inflate maintenance: {five_cms} vs base {base}"
    );
    assert!(five_btrees > 2.0 * five_cms);
}

#[test]
fn wal_records_grow_with_structure_count() {
    let disk = DiskSim::with_defaults();
    let (mut t, mut data) = small_table(&disk, 15);
    t.add_cm("cm1", CmSpec::single_raw(1));
    t.add_cm("cm2", CmSpec::single_raw(2));
    t.add_secondary(&disk, "idx", vec![ebay::COL_PRICE]);
    let mut wal = Wal::new(disk.clone());
    let batch = data.insert_batch(10, 2);
    for row in batch {
        t.insert_row(disk.as_ref(), Some(&mut wal), &row).unwrap();
    }
    // 1 index + 2 CMs = 3 maintenance records per insert (the heap row
    // itself is the caller's typed `LogPayload::Insert` record).
    assert_eq!(wal.records(), 30);
    let io = wal.commit();
    assert!(io.page_writes >= 1);
    // Their volume is priced by the flush but never written: recovery
    // rebuilds structures from the heap.
    assert_eq!(wal.durable_bytes(), 0);
}

#[test]
fn clustered_index_and_directory_track_appends() {
    let disk = DiskSim::with_defaults();
    let (mut t, mut data) = small_table(&disk, 16);
    let len_before = t.heap().len();
    let buckets_before = t.dir().num_buckets();
    for row in data.insert_batch(2_000, 3) {
        t.insert_row(disk.as_ref(), None, &row).unwrap();
    }
    assert_eq!(t.heap().len(), len_before + 2_000);
    assert!(t.dir().num_buckets() > buckets_before, "tail buckets opened");
    assert_eq!(t.dir().heap_len(), t.heap().len());
    // Every appended rid resolves to a bucket.
    let last = Rid(t.heap().len() - 1);
    let b = t.dir().bucket_of(last);
    let (lo, hi) = t.dir().rid_range(b);
    assert!(lo <= last.0 && last.0 < hi);
}
