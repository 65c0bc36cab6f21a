//! Kill–replay crash harness: run a mixed workload, kill the engine at
//! an arbitrary byte of its log stream, recover, and check the survivor
//! against an oracle with **committed-prefix semantics** — every
//! transaction whose commit record survived the cut is fully present,
//! every other transaction fully absent.
//!
//! The kill point sweeps the whole appended stream, so the cases cover:
//!
//! * cuts before anything durable (recovery = the load-time base image);
//! * cuts mid-frame (torn tails the decoder must detect by checksum and
//!   truncate);
//! * cuts mid-transaction (undo must roll the tail back with the logged
//!   before-images);
//! * cuts mid-checkpoint (the half-written image must be ignored — its
//!   `CheckpointEnd` did not survive — and an earlier image used);
//! * cuts after a design change (the rebuilt engine must carry the
//!   secondary structures and keep them queryable).
//!
//! Deletes come three ways: a session's `delete_where` (one record per
//! shard leg), a session's delete by rid of a row it inserted, and an
//! autocommit delete by rid of a preloaded row.
//!
//! The workload also inserts rows whose values are all NULL: a slot's
//! liveness is its stamp, never its values, so such a row must survive
//! checkpoint images and restarts like any other. The survivor is read
//! with an unpredicated scan, which must skip exactly the dead slots.
//!
//! Case count is `CRASH_PROP_CASES` (default 32) so CI smoke jobs can
//! run a reduced sweep.

use cm_engine::{Engine, EngineConfig};
use cm_query::{Pred, Query};
use cm_storage::{
    decode_stream, Column, LogPayload, Rid, Row, Schema, Value, ValueType, AUTOCOMMIT_TXN,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

fn cases() -> ProptestConfig {
    let cases = std::env::var("CRASH_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    ProptestConfig::with_cases(cases)
}

const CATS: i64 = 30;

/// 600 preloaded rows over 30 categories, prices below 10_000 so the
/// workload's inserts (100_000 and up) never collide with them.
fn preloaded_engine(config: EngineConfig) -> Arc<Engine> {
    let engine = Engine::new(config);
    let schema = Arc::new(Schema::new(vec![
        Column::new("catid", ValueType::Int),
        Column::new("price", ValueType::Int),
    ]));
    engine.create_table("items", schema, 0, 20, 100).unwrap();
    let rows: Vec<Row> = (0..600i64)
        .map(|i| {
            let cat = i % CATS;
            vec![Value::Int(cat), Value::Int(cat * 100 + (i * 7) % 100)]
        })
        .collect();
    engine.load("items", rows).unwrap();
    engine
}

/// All live rows, sorted: an unpredicated scan skips dead slots.
fn live_rows(engine: &Engine) -> Vec<Row> {
    let mut rows = engine.execute_collect("items", &Query::default()).unwrap().rows.unwrap();
    rows.sort();
    rows
}

/// Every live row with its shard-tagged rid, in rid order.
fn live_with_rids(engine: &Engine) -> Vec<(Rid, Row)> {
    let mut out = Vec::new();
    engine
        .with_each_shard("items", |s, t| {
            for rid in t.live_rids(0) {
                out.push((Rid::sharded(s, rid), t.heap().peek(rid).unwrap()));
            }
        })
        .unwrap();
    out
}

/// Drop the rows of category `cat` from a list of rows a script may
/// still delete by rid, once a purge took them.
fn purge(rows: &mut Vec<(Rid, Row)>, cat: i64) {
    rows.retain(|(_, row)| row[0] != Value::Int(cat));
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn killed_engine_recovers_the_committed_prefix(
        ops in prop::collection::vec(0u8..15, 10..80),
        cut_frac in 0u64..1001,
        shards in 1u8..3,
        ckpt_every in 0u64..40,
        mvcc in any::<bool>(),
    ) {
        // The sweep runs both heap disciplines: classic single-version
        // (physical deletes) and MVCC (end-stamped versions, commit
        // timestamps in the log, checkpoint images recording ended
        // versions as dead slots). Committed-prefix semantics must hold
        // identically.
        let config = EngineConfig {
            shards: shards as usize,
            checkpoint_every: ckpt_every,
            mvcc,
            ..EngineConfig::default()
        };
        let engine = preloaded_engine(config.clone());

        // Oracle basis: the post-load state, keyed by (shard, rid) —
        // exactly how log records address rows.
        let mut preloaded = live_with_rids(&engine);
        let base: BTreeMap<(u16, u64), Row> = preloaded
            .iter()
            .map(|(rid, row)| ((rid.shard_index() as u16, rid.local().0), row.clone()))
            .collect();

        // Scripted mixed workload on one session: inserts, targeted and
        // categorical deletes, deletes by rid (the session's own rows and
        // autocommitted preloaded ones), commits, explicit checkpoints,
        // and one mid-script design change. `inserted` and `preloaded`
        // hold the rows no delete has taken yet.
        let session = engine.session();
        let mut seq = 0i64;
        let mut inserted: Vec<(Rid, Row)> = Vec::new();
        let mut created_btree = false;
        for (k, op) in ops.iter().enumerate() {
            match op {
                0..=5 => {
                    let row = vec![Value::Int((seq * 13) % CATS), Value::Int(100_000 + seq)];
                    inserted.push((session.insert("items", row.clone()).unwrap(), row));
                    seq += 1;
                }
                6 | 7 => {
                    // Delete one known inserted row, or purge a preloaded
                    // category once none remain.
                    if let Some((_, row)) = inserted.pop() {
                        session
                            .delete_where("items", &Query::single(Pred::eq(1, row[1].clone())))
                            .unwrap();
                    } else {
                        let cat = (k as i64) % CATS;
                        session.delete_where("items", &Query::single(Pred::eq(0, cat))).unwrap();
                        purge(&mut preloaded, cat);
                    }
                }
                13 => {
                    if let Some((rid, row)) = inserted.pop() {
                        prop_assert_eq!(session.delete("items", rid).unwrap(), row);
                    }
                }
                14 => {
                    if let Some((rid, row)) = preloaded.pop() {
                        prop_assert_eq!(engine.delete("items", rid).unwrap(), row);
                    }
                }
                8 | 9 => {
                    session.commit();
                }
                10 => {
                    engine.checkpoint();
                }
                11 => {
                    // A row whose values are all NULL is still a row.
                    session.insert("items", vec![Value::Null, Value::Null]).unwrap();
                }
                _ => {
                    if !created_btree {
                        engine.create_btree("items", "price_ix", vec![1]).unwrap();
                        created_btree = true;
                    } else {
                        let cat = (k as i64 * 7) % CATS;
                        session.delete_where("items", &Query::single(Pred::eq(0, cat))).unwrap();
                        purge(&mut preloaded, cat);
                        purge(&mut inserted, cat);
                    }
                }
            }
        }

        // Kill: cut the appended stream anywhere (including offset 0 and
        // mid-frame positions).
        let full = engine.appended_log().len() as u64;
        let cut = full * cut_frac / 1000;
        let state = engine.crash_state(Some(cut));

        // Oracle: replay only committed transactions' records, in order,
        // over the base — the semantics recovery must reproduce.
        let decoded = decode_stream(&state.log);
        let mut committed: HashSet<u64> = HashSet::new();
        committed.insert(AUTOCOMMIT_TXN);
        for rec in &decoded.records {
            if matches!(rec.payload, LogPayload::Commit { .. }) {
                committed.insert(rec.txn);
            }
        }
        let mut oracle = base;
        let mut surviving_designs = 0usize;
        for rec in &decoded.records {
            if !committed.contains(&rec.txn) {
                continue;
            }
            match &rec.payload {
                LogPayload::Insert { shard, rid, row, .. } => {
                    oracle.insert((*shard, *rid), row.clone());
                }
                LogPayload::DeleteSet { shard, victims, .. } => {
                    for (rid, _) in victims {
                        oracle.remove(&(*shard, *rid));
                    }
                }
                LogPayload::DesignChange { .. } => surviving_designs += 1,
                _ => {}
            }
        }
        let mut expect: Vec<Row> = oracle.into_values().collect();
        expect.sort();

        let (recovered, report) = Engine::recover(config.clone(), &state).unwrap();
        prop_assert_eq!(
            live_rows(&recovered),
            expect,
            "cut {cut}/{full} torn={} redo_lsn={}",
            report.torn,
            report.redo_lsn
        );
        prop_assert!(report.valid_bytes <= cut);

        // The design change survives exactly when its record did.
        let info = recovered.table_info("items").unwrap();
        prop_assert_eq!(
            info.secondaries,
            usize::from(surviving_designs > 0),
            "design records surviving the cut: {surviving_designs}"
        );

        // The survivor is a working engine: point query + fresh write.
        let out = recovered
            .execute("items", &Query::single(Pred::eq(0, 11i64)))
            .unwrap();
        prop_assert!(out.run.matched <= 620);
        recovered
            .insert("items", vec![Value::Int(3), Value::Int(777_777)])
            .unwrap();
        let hit = recovered
            .execute("items", &Query::single(Pred::eq(1, 777_777i64)))
            .unwrap();
        prop_assert_eq!(hit.run.matched, 1);
    }

    #[test]
    fn recovered_engines_survive_a_second_crash(
        ops in prop::collection::vec(0u8..12, 8..30),
        cut_frac in 0u64..1001,
    ) {
        // Crash–recover–mutate–crash–recover: the recovered engine's
        // fresh log and reinstalled base image must compose.
        let config = EngineConfig::default();
        let engine = preloaded_engine(config.clone());
        let mut preloaded = live_with_rids(&engine);
        let mut inserted: Vec<(Rid, Row)> = Vec::new();
        let session = engine.session();
        for (i, op) in ops.iter().enumerate() {
            match op {
                0..=5 => {
                    let row = vec![Value::Int(i as i64 % CATS), Value::Int(200_000 + i as i64)];
                    inserted.push((session.insert("items", row.clone()).unwrap(), row));
                }
                6 | 7 => {
                    let cat = (i as i64 * 3) % CATS;
                    session.delete_where("items", &Query::single(Pred::eq(0, cat))).unwrap();
                    purge(&mut preloaded, cat);
                    purge(&mut inserted, cat);
                }
                8 => {
                    if let Some((rid, row)) = inserted.pop() {
                        prop_assert_eq!(session.delete("items", rid).unwrap(), row);
                    }
                }
                9 => {
                    if let Some((rid, row)) = preloaded.pop() {
                        prop_assert_eq!(engine.delete("items", rid).unwrap(), row);
                    }
                }
                _ => {
                    session.commit();
                }
            }
        }
        let full = engine.appended_log().len() as u64;
        let state = engine.crash_state(Some(full * cut_frac / 1000));
        let (mid, _) = Engine::recover(config.clone(), &state).unwrap();

        // Mutate the survivor — an insert, a session delete by rid and
        // an autocommitted one — commit, crash again at the durable point.
        let s2 = mid.session();
        s2.insert("items", vec![Value::Int(5), Value::Int(300_000)]).unwrap();
        let live = live_with_rids(&mid);
        for (n, (rid, row)) in live.iter().rev().take(2).enumerate() {
            let gone = if n == 0 { s2.delete("items", *rid) } else { mid.delete("items", *rid) };
            prop_assert_eq!(&gone.unwrap(), row);
        }
        s2.commit();
        let expect = live_rows(&mid);
        let state2 = mid.crash_state(None);
        let (last, _) = Engine::recover(config, &state2).unwrap();
        prop_assert_eq!(live_rows(&last), expect);
    }
}

/// Undoing an uncommitted delete writes no heap segment: the deleted
/// slot still holds the before-image it is restored to, so recovery
/// only restamps it, and the recovered heap keeps sharing every segment
/// with the checkpoint image it was restored from — while the undo's
/// page write is still charged.
#[test]
fn undoing_a_delete_leaves_the_image_shared() {
    for mvcc in [false, true] {
        let config = EngineConfig { shards: 1, mvcc, ..EngineConfig::default() };
        let engine = Engine::new(config.clone());
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("name", ValueType::Str),
        ]));
        // 4-slot pages: 2 000 rows are eight segments.
        engine.create_table("items", schema, 0, 4, 16).unwrap();
        let rows = (0..2000i64).map(|i| vec![Value::Int(i), Value::str(format!("n{}", i % 9))]);
        engine.load("items", rows.collect()).unwrap();
        let before = live_rows(&engine);

        // An uncommitted delete in the first segment, imaged dead by a
        // checkpoint; the crash keeps the delete's record and the image.
        let session = engine.session();
        let gone = session.delete_where("items", &Query::single(Pred::eq(0, 5i64))).unwrap();
        assert_eq!(gone.len(), 1);
        engine.checkpoint();
        let state = engine.crash_state(None);
        drop(session);

        let (recovered, report) = Engine::recover(config, &state).unwrap();
        assert_eq!(report.undone, 1, "mvcc={mvcc}");
        assert!(report.sim_ms > 0.0);
        assert_eq!(live_rows(&recovered), before, "mvcc={mvcc}");
        let image = &state.image.tables[0].shards[0].heap;
        let apart = recovered.with_shard("items", 0, |t| image.bytes_apart_from(t.heap())).unwrap();
        assert_eq!(apart, 0, "mvcc={mvcc}: the undo copied a segment");
    }
}
