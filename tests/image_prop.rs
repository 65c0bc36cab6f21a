//! Property test: a checkpoint image that copies a shard's typed column
//! vectors restores, and recovers, exactly the table the row image it
//! replaced did.
//!
//! Each case loads a random typed table — NULLs in every column type,
//! `-0.0` and NaNs of several payloads, `i64`/`i32` extremes — into an
//! engine of 1–3 shards, with MVCC on or off, on pages of 1–9 slots and
//! up to about three and a third [`SEGMENT_PAGES`] segments a shard (so
//! images share, and writes copy, whole and partial segments), adds CMs and B+Trees, and
//! runs random writes: an appended unsorted tail, committed deletes
//! (physical, or ended versions under MVCC), vacuum passes, and an open
//! session whose inserts and deletes are not committed. It then takes a
//! checkpoint, writes a little more, and crashes at the durable
//! boundary. Against that state it checks:
//!
//! * the image of every shard restores ([`HeapFile::from_image`] +
//!   [`Table::restore`]) to the table the row image of the same moment
//!   restores to ([`row_image::restore`], every slot that is not
//!   current a NULL placeholder): every column word and null bit of
//!   every slot that holds a row, bit for bit (a string by its text,
//!   since the image keeps the heap's dictionary codes), stamps, page
//!   horizons, clustered-index ranges and the bucket directory — a slot
//!   that holds no row keeps stale values in the image, which nothing
//!   reads;
//! * [`Engine::recover`] from the image and from the row image, made a
//!   [`ShardImage`] of its own, leaves the same tables — the above plus
//!   every CM and B+Tree — and the same [`RecoveryReport`], field by
//!   field;
//! * an image allocates within 10 % of its heap's column, bitmap and
//!   count bytes ([`ShardImage::bytes`]).
//!
//! Case count is `HEAP_PROP_CASES` (default 96), the setting of the other
//! page-level property tests, so CI raises them together.

mod row_image;
mod typed_rows;

use cm_core::{BucketSpec, CmAttr, CmKeyPart, CmSpec};
use cm_engine::{CrashState, DurableImage, Engine, EngineConfig, RecoveryReport, ShardImage};
use cm_index::SecondaryIndex;
use cm_query::Table;
use cm_storage::{
    Column, ColumnSlice, DiskSim, HeapFile, Rid, Row, Schema, ValueType, SEGMENT_PAGES,
};
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

const TABLE: &str = "t";

/// Every slot of every shard as the row image took it: `Some(row)`
/// while the slot's version is current.
fn row_images(engine: &Engine) -> Vec<Vec<Option<Row>>> {
    let mut shards = Vec::new();
    engine
        .with_each_shard(TABLE, |_, t| {
            let slot = |rid| t.is_current(rid).then(|| t.heap().peek(rid).unwrap());
            shards.push((0..t.heap().len()).map(Rid).map(slot).collect());
        })
        .unwrap();
    shards
}

/// Bytes of `heap`'s typed vectors, null bitmaps, per-page null counts
/// and dictionary string list.
fn heap_bytes(heap: &HeapFile) -> usize {
    let words = heap.tups_per_page().div_ceil(64);
    let per_slot: usize = heap
        .schema()
        .columns()
        .iter()
        .map(|c| match c.ty {
            ValueType::Int | ValueType::Float => 8,
            ValueType::Date | ValueType::Str => 4,
        })
        .sum();
    let per_page = heap.schema().arity() * (words * 8 + 4);
    heap.len() as usize * per_slot
        + heap.num_pages() as usize * per_page
        + heap.dict().len() * std::mem::size_of::<Arc<str>>()
}

/// `a` and `b` hold the same liveness, the same stored values and nulls
/// in every slot that holds a row, and locate rows alike. A slot that
/// holds no row keeps whatever values it last held, so its values (and
/// the per-page null counts they enter) are not compared.
fn same_heap_and_layout(a: &Table, b: &Table, what: &str) {
    let (ha, hb) = (a.heap(), b.heap());
    assert_eq!(
        (ha.len(), ha.num_pages(), ha.tups_per_page()),
        (hb.len(), hb.num_pages(), hb.tups_per_page()),
        "{what}: heap shape"
    );
    let arity = ha.schema().arity();
    for (pa, pb) in ha.pages().zip(hb.pages()) {
        let p = ha.page_of(pa.first_rid());
        assert_eq!(a.horizon(p), b.horizon(p), "{what}: horizon of page {p}");
        for col in 0..arity {
            for slot in (0..pa.len()).filter(|&s| a.is_tombstone(pa.rid(s as u32)) == Ok(false)) {
                let at = format!("{what}: page {p} col {col}: rid {:?}", pa.rid(slot as u32));
                assert_eq!(
                    pa.is_null(slot, col),
                    pb.is_null(slot, col),
                    "{at}: null bit"
                );
                match (pa.column(col), pb.column(col)) {
                    (ColumnSlice::Int(x), ColumnSlice::Int(y)) => {
                        assert_eq!(x[slot], y[slot], "{at}")
                    }
                    (ColumnSlice::Date(x), ColumnSlice::Date(y)) => {
                        assert_eq!(x[slot], y[slot], "{at}")
                    }
                    (ColumnSlice::Float(x), ColumnSlice::Float(y)) => {
                        assert_eq!(x[slot].to_bits(), y[slot].to_bits(), "{at}")
                    }
                    // Codes may differ; a NULL's filler may not.
                    (ColumnSlice::Str(x), ColumnSlice::Str(y)) if pa.is_null(slot, col) => {
                        assert_eq!(x[slot], y[slot], "{at}")
                    }
                    (ColumnSlice::Str(_), ColumnSlice::Str(_)) => {
                        assert_eq!(pa.value(slot, col), pb.value(slot, col), "{at}")
                    }
                    (x, y) => panic!("{at}: column types {x:?} vs {y:?}"),
                }
            }
        }
    }
    for rid in (0..ha.len()).map(Rid) {
        assert_eq!(a.stamp_of(rid), b.stamp_of(rid), "{what}: stamp of {rid:?}");
    }
    let (ca, cb) = (a.clustered(), b.clustered());
    assert_eq!(
        (ca.col(), ca.height(), ca.distinct_values()),
        (cb.col(), cb.height(), cb.distinct_values()),
        "{what}: clustered index"
    );
    for rid in a.live_rids(0) {
        let v = ha.value(rid, a.clustered_col()).unwrap();
        let range = |t: &Table| t.clustered().rid_range_uncharged(&v, &v);
        assert_eq!(range(a), range(b), "{what}: clustered range of {v:?}");
    }
    let (da, db) = (a.dir(), b.dir());
    assert_eq!((da.heap_len(), da.target()), (db.heap_len(), db.target()), "{what}: directory");
    assert!(da.iter().eq(db.iter()), "{what}: bucket directory");
}

/// [`same_heap_and_layout`], plus every CM and B+Tree.
fn same_table(a: &Table, b: &Table, what: &str) {
    same_heap_and_layout(a, b, what);
    assert_eq!(a.cms().len(), b.cms().len(), "{what}: CMs");
    for (ca, cb) in a.cms().iter().zip(b.cms()) {
        assert_eq!((ca.name(), ca.spec()), (cb.name(), cb.spec()), "{what}: CM");
        assert_eq!(
            (ca.num_keys(), ca.num_pairs(), ca.size_bytes()),
            (cb.num_keys(), cb.num_pairs(), cb.size_bytes()),
            "{what}: CM {}",
            ca.name()
        );
        for ((ka, ba), (kb, bb)) in ca.iter().zip(cb.iter()) {
            let same_key = ka.len() == kb.len()
                && ka.iter().zip(kb.iter()).all(|(x, y)| match (x, y) {
                    (CmKeyPart::Raw(x), CmKeyPart::Raw(y)) => same(x, y),
                    _ => x == y,
                });
            assert!(same_key, "{what}: CM {} key {ka:?} vs {kb:?}", ca.name());
            assert_eq!(ba, bb, "{what}: CM {} buckets of {ka:?}", ca.name());
        }
    }
    assert_eq!(a.secondaries().len(), b.secondaries().len(), "{what}: B+Trees");
    for (ia, ib) in a.secondaries().iter().zip(b.secondaries()) {
        let (ta, tb) = (ia.tree(), ib.tree());
        let index = |i: &SecondaryIndex| (i.name().to_string(), i.cols().to_vec(), i.entries());
        assert_eq!(index(ia), index(ib), "{what}: B+Tree");
        assert_eq!(
            (ta.node_count(), ta.height(), ta.len()),
            (tb.node_count(), tb.height(), tb.len()),
            "{what}: B+Tree {}",
            ia.name()
        );
        for ((la, ka, pa), (lb, kb, pb)) in ta.iter().zip(tb.iter()) {
            let same_key = ka.values().iter().zip(kb.values()).all(|(x, y)| same(x, y));
            assert!(same_key && la == lb, "{what}: B+Tree {} key {ka:?} vs {kb:?}", ia.name());
            assert_eq!(pa, pb, "{what}: postings of {ka:?}");
            assert_eq!(ta.probe_path(ka), tb.probe_path(kb), "{what}: path of {ka:?}");
        }
    }
}

/// Field by field, the simulated time bit for bit.
fn same_report(a: &RecoveryReport, b: &RecoveryReport) {
    assert_eq!(
        (a.log_bytes, a.valid_bytes, a.torn, a.records, a.redone, a.undone),
        (b.log_bytes, b.valid_bytes, b.torn, b.records, b.redone, b.undone),
        "recovery report"
    );
    assert_eq!(
        (a.committed_txns, a.uncommitted_txns, a.redo_lsn, a.sim_ms.to_bits()),
        (b.committed_txns, b.uncommitted_txns, b.redo_lsn, b.sim_ms.to_bits()),
        "recovery report"
    );
}

/// One random write: an autocommit insert or delete, a write in the
/// open `session`, or a vacuum pass.
fn write(engine: &Arc<Engine>, session: &cm_engine::Session, rng: &mut Rng, row: Row) {
    let victim = |rng: &mut Rng| {
        let shard = rng.below(engine.num_shards());
        let len = engine.with_shard(TABLE, shard, |t| t.heap().len()).ok()?;
        (len > 0).then(|| Rid::sharded(shard, Rid(rng.below(len as usize) as u64)))
    };
    // Deletes of slots that are not current fail, as they should.
    match rng.below(10) {
        0..=2 => drop(engine.insert(TABLE, row)),
        3..=5 => drop(victim(rng).map(|rid| engine.delete(TABLE, rid))),
        6 => drop(session.insert(TABLE, row)),
        7 | 8 => drop(victim(rng).map(|rid| session.delete(TABLE, rid))),
        _ => drop(engine.vacuum()),
    }
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn column_images_restore_and_recover_what_row_images_did(
        seed in any::<u64>(),
        pages in 0usize..3 * SEGMENT_PAGES + 24,
        partial in 0usize..10,
        tpp in 1usize..10,
        spread in 1usize..40,
        null_every in 0usize..6,
        shards in 1usize..4,
        mvcc in any::<bool>(),
    ) {
        // About `pages` pages a shard: the router splits the keys evenly.
        let rows = pages * tpp * shards + partial % tpp;
        let mut rng = Rng(seed);
        let ncols = 2 + rng.below(3);
        let types: Vec<ValueType> = (0..ncols).map(|_| rng.pick(&TYPES)).collect();
        let schema = Arc::new(Schema::new(
            types.iter().enumerate().map(|(i, &ty)| Column::new(format!("c{i}"), ty)).collect(),
        ));
        let row = |rng: &mut Rng| -> Row {
            types.iter().map(|&ty| value(rng, ty, spread, null_every)).collect()
        };
        let config = EngineConfig { shards, mvcc, checkpoint_every: 0, ..EngineConfig::default() };
        let engine = Engine::new(config.clone());
        let cc = rng.below(ncols);
        engine.create_table(TABLE, schema.clone(), cc, tpp, 1 + rng.below(8) as u64).unwrap();
        engine.load(TABLE, (0..rows).map(|_| row(&mut rng)).collect()).unwrap();
        for i in 0..rng.below(3) {
            let col = rng.below(ncols);
            let bucket = match rng.below(3) {
                0 => BucketSpec::None,
                1 => BucketSpec::pow2(rng.below(12) as u32),
                _ => BucketSpec::EquiWidth { origin: -1.5, width: rng.pick(&[0.25, 3.0, 1e6]) },
            };
            let spec = CmSpec::new(vec![CmAttr { col, bucket }]);
            engine.create_cm(TABLE, format!("cm{i}"), spec).unwrap();
        }
        for i in 0..rng.below(3) {
            let cols = (0..1 + rng.below(2)).map(|_| rng.below(ncols)).collect();
            engine.create_btree(TABLE, format!("ix{i}"), cols).unwrap();
        }
        let session = engine.session();
        for _ in 0..rng.below(40) {
            let r = row(&mut rng);
            write(&engine, &session, &mut rng, r);
        }

        // The row image of the moment the checkpoint images.
        let rows_then = row_images(&engine);
        let mut bytes_then = Vec::new();
        engine.with_each_shard(TABLE, |_, t| bytes_then.push(heap_bytes(t.heap()))).unwrap();
        engine.checkpoint();
        for _ in 0..rng.below(8) {
            let r = row(&mut rng);
            write(&engine, &session, &mut rng, r);
        }
        if rng.below(2) == 0 {
            session.commit();
        }
        let state = engine.crash_state(None);
        prop_assert_eq!(state.image.tables.len(), 1, "the checkpoint image survives the cut");
        let ti = &state.image.tables[0];
        prop_assert_eq!(ti.shards.len(), rows_then.len());

        let mut model = ti.clone();
        for (i, (si, slots)) in ti.shards.iter().zip(rows_then).enumerate() {
            let what = format!("shard {i} of {shards} (mvcc {mvcc})");
            prop_assert!(
                si.bytes() <= bytes_then[i] * 11 / 10 + 8,
                "{}: image {} bytes, heap {}",
                what,
                si.bytes(),
                bytes_then[i]
            );
            // Restore one table from each image.
            let disk = DiskSim::with_defaults();
            let heap = HeapFile::from_image(&disk, schema.clone(), si.heap.clone());
            let got = Table::restore(&disk, heap, &si.live, cc, ti.bucket_target, si.base_len);
            let (target, base_len) = (ti.bucket_target, si.base_len);
            let want =
                row_image::restore(&disk, schema.clone(), slots.clone(), tpp, cc, target, base_len);
            same_heap_and_layout(&got, &want, &what);
            // The row image as an image of its own, for the model engine.
            let scratch = DiskSim::with_defaults();
            let (heap, live) = row_image::heap(&scratch, schema.clone(), slots, tpp);
            model.shards[i] = ShardImage { heap: heap.image(), live, base_len };
        }

        let model_state = CrashState {
            image: Arc::new(DurableImage { tables: vec![model] }),
            redo_lsn: state.redo_lsn,
            log: state.log.clone(),
        };
        let (got, got_report) = Engine::recover(config.clone(), &state).unwrap();
        let (want, want_report) = Engine::recover(config, &model_state).unwrap();
        same_report(&got_report, &want_report);
        got.with_each_shard(TABLE, |i, a| {
            let what = format!("recovered shard {i}");
            want.with_shard(TABLE, i, |b| same_table(a, b, &what)).unwrap();
        })
        .unwrap();
        prop_assert_eq!(got.num_shards(), want.num_shards());
    }
}
