//! Property test: a page's visibility horizon lets
//! [`Table::retain_visible`] skip the stamps of a page only where the
//! per-slot rule would keep every slot anyway.
//!
//! Random scripts mutate a table's stamps the ways the engine does —
//! autocommit and pending inserts, `set_begin_stamp` (a fresh timestamp
//! or a transaction's pending mark), `end_version` (committed or
//! pending), `delete_row` (a vacuum reclaim or a locking-mode delete),
//! `reinstate_row` (recovery), `append_placeholder`, transaction commits
//! and `resolve_stamps` (vacuum's rewrite) — while snapshots are taken
//! along the way, so they read at timestamps below, at and past the
//! horizons. After every step, on every page:
//!
//! * `retain_visible` at each held snapshot, at a fresh one, and with no
//!   snapshot keeps exactly the slots `Snapshot::sees` (or "the stamp is
//!   not `(0, 0)`") keeps;
//! * a page whose horizon is not [`NOT_ALL_VISIBLE`] holds only live,
//!   plainly committed, unended versions begun at or before it, and free
//!   slots only if its horizon is [`HOLDS_FREE_SLOTS`].
//!
//! At the end every open transaction commits and `resolve_stamps` runs:
//! on the quiescent table every page of live committed rows must then be
//! all-visible, and every page of such rows and free slots must be one
//! vacuum passes over, so a horizon stuck at [`NOT_ALL_VISIBLE`] fails
//! too.
//!
//! A second property checks that heap slots are write-once: a heap image
//! taken of a table of up to three [`SEGMENT_PAGES`] segments, then
//! random locking deletes, MVCC ends, vacuum passes (stamp rewrite plus
//! reclaim) and appends, must still share every segment below the first
//! one the appends wrote — and, when no append has written an image's
//! partial tail segment, every segment — so a delete, an end or a vacuum
//! copies none.
//!
//! Case count is `HEAP_PROP_CASES` (default 96), the setting of the other
//! page-level property tests, so CI raises them together.

use cm_query::{Table, HOLDS_FREE_SLOTS, NOT_ALL_VISIBLE};
use cm_storage::{
    is_pending, pending_stamp, Column, DiskSim, HeapImage, MvccState, Rid, Row, Schema, Snapshot,
    Value, ValueType, LIVE_TS, SEGMENT_PAGES,
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

/// SplitMix64: one seed drives a whole script.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn row(i: u64) -> Row {
    vec![Value::Int(i as i64 % 17), Value::str(format!("r{}", i % 5))]
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("k", ValueType::Int),
        Column::new("v", ValueType::Str),
    ]))
}

/// Bytes segment `seg` of a heap of `len` [`schema`] slots takes: an
/// `i64` and a `u32` code per slot, and per page and column the null
/// bitmap words and a null count.
fn segment_bytes(tpp: usize, len: usize, seg: usize) -> usize {
    let seg_slots = SEGMENT_PAGES * tpp;
    let slots = len
        .min((seg + 1) * seg_slots)
        .saturating_sub(seg * seg_slots);
    slots * (8 + 4) + slots.div_ceil(tpp) * 2 * (tpp.div_ceil(64) * 8 + 4)
}

const DEAD: (u64, u64) = (0, 0);

/// `retain_visible` against the per-slot rule, and the horizon invariant,
/// on every page of `t`.
fn check(t: &Table, disk: &DiskSim, snaps: &[Snapshot]) {
    for p in 0..t.heap().num_pages() {
        let page = t.heap().read_page(disk, p).unwrap();
        let all: Vec<u32> = (0..page.len() as u32).collect();
        let stamp = |s: u32| t.stamp_of(page.rid(s));
        for snap in snaps.iter().map(Some).chain([None]) {
            let mut got = all.clone();
            t.retain_visible(snap, page, &mut got);
            let want: Vec<u32> = all
                .iter()
                .copied()
                .filter(|&s| match snap {
                    Some(snap) => snap.sees(stamp(s).0, stamp(s).1),
                    None => stamp(s) != DEAD,
                })
                .collect();
            prop_assert_eq!(
                &got,
                &want,
                "page {} at {:?}, horizon {}",
                p,
                snap.map(Snapshot::ts),
                t.horizon(p)
            );
        }
        let horizon = t.horizon(p);
        if horizon != NOT_ALL_VISIBLE {
            for s in all {
                let (begin, end) = stamp(s);
                let settled = if (begin, end) == DEAD {
                    horizon == HOLDS_FREE_SLOTS
                } else {
                    end == LIVE_TS && !is_pending(begin) && begin <= horizon
                };
                prop_assert!(
                    settled,
                    "page {} horizon {} over slot {} stamped ({}, {})",
                    p,
                    horizon,
                    s,
                    begin,
                    end
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn retain_visible_keeps_what_the_per_slot_rule_keeps(
        seed in any::<u64>(),
        loaded in 0usize..90,
        tpp in 1usize..12,
        steps in 0usize..80,
    ) {
        let mut rng = Rng(seed);
        let disk = DiskSim::with_defaults();
        let io = disk.as_ref();
        let rows = (0..loaded as u64).map(row).collect();
        let mut t = Table::build(&disk, schema(), rows, tpp, 0, 4).unwrap();
        let mv = Arc::new(MvccState::new());
        let mut open: Vec<u64> = Vec::new();
        let mut next_txn = 1u64;
        let mut snaps: Vec<Snapshot> = vec![mv.begin()];
        check(&t, &disk, &snaps);
        for step in 0..steps {
            let len = t.heap().len();
            let pick = |rng: &mut Rng, want: &dyn Fn(Rid) -> bool| {
                let found: Vec<Rid> = (0..len).map(Rid).filter(|&r| want(r)).collect();
                (!found.is_empty()).then(|| found[rng.below(found.len())])
            };
            // A transaction to write under: an open one, or a new one.
            let mut txn = |rng: &mut Rng, open: &mut Vec<u64>| {
                if open.is_empty() || rng.below(3) == 0 {
                    open.push(next_txn);
                    next_txn += 1;
                }
                open[rng.below(open.len())]
            };
            match rng.below(11) {
                0 | 1 => {
                    let rid = t.insert_row(io, None, &row(rng.next())).unwrap();
                    t.set_begin_stamp(rid, mv.next_ts());
                }
                2 => {
                    let rid = t.insert_row(io, None, &row(rng.next())).unwrap();
                    t.set_begin_stamp(rid, pending_stamp(txn(&mut rng, &mut open)));
                }
                3 => {
                    // Re-stamp any slot's begin: a fresh timestamp or a mark.
                    if let Some(rid) = pick(&mut rng, &|_| true) {
                        let begin = if rng.below(2) == 0 {
                            mv.next_ts()
                        } else {
                            pending_stamp(txn(&mut rng, &mut open))
                        };
                        t.set_begin_stamp(rid, begin);
                    }
                }
                4 | 5 => {
                    if let Some(rid) = pick(&mut rng, &|r| t.is_current(r)) {
                        let end = if rng.below(2) == 0 {
                            mv.next_ts()
                        } else {
                            pending_stamp(txn(&mut rng, &mut open))
                        };
                        t.end_version(io, rid, end).unwrap();
                    }
                }
                6 => {
                    if let Some(rid) = pick(&mut rng, &|r| !t.is_tombstone(r).unwrap()) {
                        t.delete_row(io, None, rid).unwrap();
                    }
                }
                7 => {
                    if let Some(rid) = pick(&mut rng, &|r| t.is_tombstone(r).unwrap()) {
                        t.reinstate_row(io, rid, row(rng.next())).unwrap();
                    }
                }
                8 => {
                    t.append_placeholder();
                }
                9 => {
                    if !open.is_empty() {
                        let txn = open.swap_remove(rng.below(open.len()));
                        mv.commit_txn(txn);
                    }
                }
                _ => {
                    t.resolve_stamps(|stamp| mv.resolve(stamp));
                }
            }
            if step % 3 == 0 {
                snaps.push(mv.begin());
                if snaps.len() > 6 {
                    snaps.remove(rng.below(snaps.len()));
                }
            }
            snaps.push(mv.begin());
            check(&t, &disk, &snaps);
            snaps.pop();
        }

        // Quiescent: every transaction commits and vacuum rewrites the
        // stamps. A page whose every slot now holds a live committed row
        // must be all-visible, at a horizon no snapshot waits on.
        for txn in open.drain(..) {
            mv.commit_txn(txn);
        }
        t.resolve_stamps(|stamp| mv.resolve(stamp));
        let now = mv.begin();
        check(&t, &disk, std::slice::from_ref(&now));
        for p in 0..t.heap().num_pages() {
            let (lo, hi) = t.heap().page_rid_range(p);
            let live = |r: u64| {
                let (begin, end) = t.stamp_of(Rid(r));
                end == LIVE_TS && !is_pending(begin)
            };
            if (lo.0..hi.0).all(live) {
                prop_assert!(t.horizon(p) <= now.ts(), "page {} stuck at {}", p, t.horizon(p));
            } else if (lo.0..hi.0).all(|r| live(r) || t.stamp_of(Rid(r)) == DEAD) {
                prop_assert_eq!(t.horizon(p), HOLDS_FREE_SLOTS, "page {} left to vacuum", p);
            }
        }
    }
}

/// An image under test: the image, the heap length it was taken at, and
/// whether an append has come since.
struct Taken {
    image: HeapImage,
    len: usize,
    appended: bool,
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn deletes_ends_and_vacuums_leave_every_segment_shared(
        seed in any::<u64>(),
        loaded_pages in 0usize..3 * SEGMENT_PAGES,
        tpp in 1usize..6,
        steps in 0usize..60,
    ) {
        let mut rng = Rng(seed);
        let disk = DiskSim::with_defaults();
        let io = disk.as_ref();
        let loaded = (loaded_pages * tpp + rng.below(tpp)) as u64;
        let rows = (0..loaded).map(row).collect();
        let mut t = Table::build(&disk, schema(), rows, tpp, 0, 4).unwrap();
        let mv = Arc::new(MvccState::new());
        let take = |t: &Table| Taken {
            image: t.heap().image(),
            len: t.heap().len() as usize,
            appended: false,
        };
        let mut images = vec![take(&t)];
        for _ in 0..steps {
            let current: Vec<Rid> =
                (0..t.heap().len()).map(Rid).filter(|&r| t.is_current(r)).collect();
            let victim =
                |rng: &mut Rng| (!current.is_empty()).then(|| current[rng.below(current.len())]);
            match rng.below(8) {
                0 | 1 => {
                    // A locking-mode delete.
                    if let Some(rid) = victim(&mut rng) {
                        t.delete_row(io, None, rid).unwrap();
                    }
                }
                2 | 3 => {
                    // An MVCC delete, committed or still pending.
                    if let Some(rid) = victim(&mut rng) {
                        let end = if rng.below(3) == 0 { pending_stamp(1) } else { mv.next_ts() };
                        t.end_version(io, rid, end).unwrap();
                    }
                }
                4 => {
                    // A vacuum pass: rewrite the stamps, reclaim what ended.
                    if rng.below(2) == 0 {
                        mv.commit_txn(1);
                    }
                    t.resolve_stamps(|stamp| mv.resolve(stamp));
                    for rid in t.reclaimable(mv.now()) {
                        t.delete_row(io, None, rid).unwrap();
                    }
                }
                5 => {
                    t.insert_row(io, None, &row(rng.next())).unwrap();
                    images.iter_mut().for_each(|i| i.appended = true);
                }
                _ => {
                    if images.len() < 4 {
                        images.push(take(&t));
                    }
                }
            }
            // Only an append writes, and only the image's tail segment.
            let seg_slots = SEGMENT_PAGES * tpp;
            for (i, taken) in images.iter().enumerate() {
                let tail_written = taken.appended && taken.len % seg_slots != 0;
                let want = if tail_written {
                    segment_bytes(tpp, taken.len, taken.len / seg_slots)
                } else {
                    0
                };
                prop_assert_eq!(
                    taken.image.bytes_apart_from(t.heap()),
                    want,
                    "image {} of {} slots",
                    i,
                    taken.len
                );
            }
        }
    }
}
