//! Snapshot-isolation oracle: property tests that pit MVCC readers
//! against committing writers and a vacuum pass.
//!
//! * **Never-torn reads** — a concurrent reader must see, for every
//!   category, exactly the full row set of *one* committed generation:
//!   each writer transaction replaces a category wholesale (categorical
//!   `delete_where` + a fresh batch of inserts, one commit), so any mix
//!   of two generations — or a partial one — in a single query result is
//!   an isolation violation.
//! * **GC safety** — a vacuum pass must never physically reclaim a row
//!   version that a still-open snapshot can see, no matter how many
//!   committed deletes have accumulated around the pin.
//!
//! Case count is `MVCC_PROP_CASES` (default 16) so CI smoke jobs can run
//! a reduced sweep.

use cm_engine::{Engine, EngineConfig};
use cm_query::{Pred, Query};
use cm_storage::{Column, Rid, Row, Schema, Value, ValueType, LIVE_TS};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn cases() -> ProptestConfig {
    let cases = std::env::var("MVCC_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    ProptestConfig::with_cases(cases)
}

const CATS: i64 = 8;
const INIT_PER_CAT: i64 = 25;

/// Generation marker: generation `g`, row `j` carries price
/// `g * 1_000 + j`, so a result set's generation is `price / 1_000`.
fn gen_rows(cat: i64, generation: i64, size: i64) -> Vec<Row> {
    (0..size)
        .map(|j| vec![Value::Int(cat), Value::Int(generation * 1_000 + j)])
        .collect()
}

fn mvcc_engine(shards: usize, gc_every: u64) -> Arc<Engine> {
    let engine = Engine::new(EngineConfig {
        mvcc: true,
        gc_every,
        shards,
        ..EngineConfig::default()
    });
    let schema = Arc::new(Schema::new(vec![
        Column::new("catid", ValueType::Int),
        Column::new("price", ValueType::Int),
    ]));
    engine.create_table("items", schema, 0, 20, 100).unwrap();
    let rows: Vec<Row> =
        (0..CATS).flat_map(|c| gen_rows(c, 0, INIT_PER_CAT)).collect();
    engine.load("items", rows).unwrap();
    engine
}

proptest! {
    #![proptest_config(cases())]

    /// Writers replace whole categories transactionally; a concurrent
    /// reader must always observe one complete generation per category.
    #[test]
    fn concurrent_reader_sees_whole_transactions_only(
        // (category, new generation size) per writer transaction.
        txns in prop::collection::vec((0..CATS, 1i64..40), 4..24),
        shards in 1usize..3,
        gc_auto in any::<bool>(),
    ) {
        let engine = mvcc_engine(shards, if gc_auto { 16 } else { 0 });
        // Per category: generation marker -> full row count. Generation
        // markers are 1-based global transaction indices; the preload is
        // generation 0 everywhere.
        let mut gen_size: Vec<std::collections::HashMap<i64, i64>> =
            vec![[(0i64, INIT_PER_CAT)].into_iter().collect(); CATS as usize];
        let mut last_gen = vec![0i64; CATS as usize];
        for (g, (cat, size)) in txns.iter().enumerate() {
            gen_size[*cat as usize].insert(g as i64 + 1, *size);
            last_gen[*cat as usize] = g as i64 + 1;
        }
        let done = AtomicBool::new(false);
        let torn: parking_lot::Mutex<Option<String>> = parking_lot::Mutex::new(None);
        std::thread::scope(|scope| {
            let writer = engine.clone();
            let txns = &txns;
            let done_ref = &done;
            scope.spawn(move || {
                let session = writer.session();
                for (g, (cat, size)) in txns.iter().enumerate() {
                    session
                        .delete_where("items", &Query::single(Pred::eq(0, *cat)))
                        .unwrap();
                    for row in gen_rows(*cat, g as i64 + 1, *size) {
                        session.insert("items", row).unwrap();
                    }
                    session.commit();
                }
                done_ref.store(true, Ordering::Release);
            });
            let gen_size = &gen_size;
            let torn = &torn;
            let reader = engine.clone();
            scope.spawn(move || {
                let session = reader.session();
                let mut cat = 0i64;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let out = session
                        .execute_collect("items", &Query::single(Pred::eq(0, cat)))
                        .unwrap();
                    let rows = out.rows.unwrap();
                    // All rows must belong to one generation, and be all
                    // of it.
                    let gens: std::collections::HashSet<i64> = rows
                        .iter()
                        .map(|r| match r[1] {
                            Value::Int(p) => p / 1_000,
                            _ => -1,
                        })
                        .collect();
                    let violation = if gens.len() > 1 {
                        Some(format!("cat {cat}: generations mixed: {gens:?}"))
                    } else if let Some(&g) = gens.iter().next() {
                        let expect = gen_size[cat as usize].get(&g).copied();
                        (expect != Some(rows.len() as i64)).then(|| {
                            format!(
                                "cat {cat}: generation {g} has {} rows, expected {expect:?}",
                                rows.len()
                            )
                        })
                    } else {
                        // Empty result: only legal mid-flight (between a
                        // purge commit and nothing? never — replacement
                        // is atomic), so an empty set is always torn.
                        Some(format!("cat {cat}: empty result"))
                    };
                    if violation.is_some() {
                        *torn.lock() = violation;
                        return;
                    }
                    cat = (cat + 1) % CATS;
                    if finished {
                        return;
                    }
                }
            });
        });
        prop_assert_eq!(torn.into_inner(), None);
        // Quiesced state equals the oracle: the last generation per cat.
        for c in 0..CATS {
            let out = engine
                .execute("items", &Query::single(Pred::eq(0, c)))
                .unwrap();
            let last = gen_size[c as usize][&last_gen[c as usize]];
            prop_assert_eq!(out.run.matched, last as u64, "cat {} final state", c);
        }
        // After the run, a vacuum pass leaves the same visible state.
        engine.vacuum().unwrap();
        for c in 0..CATS {
            let out = engine
                .execute("items", &Query::single(Pred::eq(0, c)))
                .unwrap();
            let last = gen_size[c as usize][&last_gen[c as usize]];
            prop_assert_eq!(out.run.matched, last as u64);
        }
    }

    /// Vacuum never reclaims a version a live snapshot still sees, and
    /// reclaims exactly the ones none does once the pin drops.
    #[test]
    fn vacuum_spares_every_version_a_pinned_snapshot_sees(
        before_pin in prop::collection::vec(0..CATS, 0..4),
        after_pin in prop::collection::vec(0..CATS, 1..4),
    ) {
        let engine = mvcc_engine(1, 0);
        let mv = engine.mvcc_state().unwrap().clone();
        for cat in &before_pin {
            engine
                .delete_where("items", &Query::single(Pred::eq(0, *cat)))
                .unwrap();
        }
        let purged_before: std::collections::HashSet<i64> =
            before_pin.iter().copied().collect();
        let visible_at_pin = (CATS - purged_before.len() as i64) * INIT_PER_CAT;
        let pin = mv.begin();
        for cat in &after_pin {
            engine
                .delete_where("items", &Query::single(Pred::eq(0, *cat)))
                .unwrap();
        }
        engine.vacuum().unwrap();
        // Every version the pin sees still has its bytes: walk the heap
        // stamps under the pin's visibility rule.
        let mut seen = 0i64;
        engine
            .with_each_shard("items", |_, t| {
                for rid in (0..t.heap().len()).map(Rid) {
                    let (b, e) = t.stamp_of(rid);
                    if pin.sees(b, e) {
                        assert!(
                            !t.is_tombstone(rid).unwrap(),
                            "vacuum reclaimed a pinned version at rid {}",
                            rid.0
                        );
                        seen += 1;
                    }
                }
            })
            .unwrap();
        prop_assert_eq!(seen, visible_at_pin, "the pin's view is intact");
        // Once the pin closes, the dead tail is fully reclaimable.
        drop(pin);
        engine.vacuum().unwrap();
        let mut dead = 0u64;
        engine
            .with_each_shard("items", |_, t| {
                for rid in (0..t.heap().len()).map(Rid) {
                    let (_, e) = t.stamp_of(rid);
                    if e != LIVE_TS && !t.is_tombstone(rid).unwrap() {
                        dead += 1;
                    }
                }
            })
            .unwrap();
        prop_assert_eq!(dead, 0, "no unreclaimed dead versions after the pin closed");
    }
}
