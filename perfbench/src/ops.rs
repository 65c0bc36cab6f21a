//! Operation classes, the seeded op scripts, and the queries behind them.
//!
//! A script is a fixed list of operations: its length and mix are the
//! constants below (frozen in the README), its keys come from the seed.
//! Rounds are never sized by the clock; only their number is.

use crate::data::{Items, Lineitem, Scale};
use crate::rng::{Fnv, Rng};
use cm_datagen::{ebay, tpch};
use cm_engine::{AggFunc, AggSpec, JoinQuery};
use cm_query::{Pred, Query};
use cm_storage::Value;

pub const ITEMS: &str = "items";
pub const LINEITEM: &str = "lineitem";

/// What gets its own latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `ItemID = k` through the B+Tree.
    Point,
    /// `ItemID IN (4 keys)` through the B+Tree (sorted scan).
    MultiPoint,
    /// `CAT5 = v` through the CM on CAT5.
    Cat5Eq,
    /// `Price BETWEEN lo AND lo+1000` through the CM on Price.
    PriceRange,
    /// Seven days of shipdate through the CM on shipdate.
    ShipRange,
    /// `ship_dim ⋈ lineitem`: the probe is clamped to CM buckets.
    JoinClamp,
    /// `part_dim ⋈ lineitem`: hash probe over a full scan.
    JoinHash,
    /// COUNT, SUM(extendedprice) by (shipmode, returnflag), full scan.
    Agg,
    Insert,
    /// One 128-row `insert_many` (commits itself).
    InsertMany,
    /// `delete_where` on a 256-key ItemID range.
    Delete,
    /// `commit` with pending records.
    Commit,
    Vacuum,
}

impl Class {
    pub const ALL: [Class; 13] = [
        Class::Point,
        Class::MultiPoint,
        Class::Cat5Eq,
        Class::PriceRange,
        Class::ShipRange,
        Class::JoinClamp,
        Class::JoinHash,
        Class::Agg,
        Class::Insert,
        Class::InsertMany,
        Class::Delete,
        Class::Commit,
        Class::Vacuum,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::MultiPoint => "multipoint",
            Class::Cat5Eq => "cat5_eq",
            Class::PriceRange => "price_range",
            Class::ShipRange => "ship_range",
            Class::JoinClamp => "join_clamp",
            Class::JoinHash => "join_hash",
            Class::Agg => "agg",
            Class::Insert => "insert",
            Class::InsertMany => "insert_many",
            Class::Delete => "delete",
            Class::Commit => "commit",
            Class::Vacuum => "vacuum",
        }
    }

    pub fn index(self) -> usize {
        Class::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every class is listed")
    }

    pub fn is_read(self) -> bool {
        self.index() <= Class::Agg.index()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Point(i64),
    MultiPoint([i64; 4]),
    /// Index into the dataset's cold CAT5 values.
    Cat5(usize),
    /// Lower bound of the price range.
    Price(i64),
    /// First shipdate of the range.
    Ship(i32),
    JoinShip,
    JoinPart,
    Agg,
    /// Index into the round's row pool.
    Insert(usize),
    /// `(first, len)` in the round's row pool.
    InsertMany(usize, usize),
    Commit,
    /// First ItemID of the deleted range.
    Delete(i64),
    Vacuum,
}

/// ItemIDs removed by one `Delete` of `write_churn`.
pub const DELETE_SPAN: i64 = 256;
/// Rows the `mixed_2s` writer keeps live: once it has inserted this many
/// it deletes its oldest row after every insert, so the unclustered tail
/// of the heap stays a few buckets long and the reader's CM-guided ranges
/// stay CM-guided.
pub const WRITER_LIVE_ROWS: i64 = 512;
/// Inserts between two commits.
pub const COMMIT_EVERY: usize = 8;

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Point(_) => Class::Point,
            Op::MultiPoint(_) => Class::MultiPoint,
            Op::Cat5(_) => Class::Cat5Eq,
            Op::Price(_) => Class::PriceRange,
            Op::Ship(_) => Class::ShipRange,
            Op::JoinShip => Class::JoinClamp,
            Op::JoinPart => Class::JoinHash,
            Op::Agg => Class::Agg,
            Op::Insert(_) => Class::Insert,
            Op::InsertMany(..) => Class::InsertMany,
            Op::Commit => Class::Commit,
            Op::Delete(_) => Class::Delete,
            Op::Vacuum => Class::Vacuum,
        }
    }

    fn digest_into(&self, h: &mut Fnv) {
        h.u64(self.class().index() as u64);
        match self {
            Op::Point(k) | Op::Price(k) | Op::Delete(k) => h.u64(*k as u64),
            Op::MultiPoint(ks) => ks.iter().for_each(|k| h.u64(*k as u64)),
            Op::Cat5(i) | Op::Insert(i) => h.u64(*i as u64),
            Op::Ship(d) => h.u64(*d as u64),
            Op::InsertMany(a, n) => {
                h.u64(*a as u64);
                h.u64(*n as u64);
            }
            Op::JoinShip | Op::JoinPart | Op::Agg | Op::Commit | Op::Vacuum => {}
        }
    }
}

pub fn script_digest(ops: &[Op]) -> u64 {
    let mut h = Fnv::default();
    h.u64(ops.len() as u64);
    ops.iter().for_each(|op| op.digest_into(&mut h));
    h.finish()
}

// ---- queries ----------------------------------------------------------

/// The query behind a read on `items`.
pub fn items_query(items: &Items, op: &Op) -> Query {
    match op {
        Op::Point(k) => point_query(*k),
        Op::MultiPoint(ks) => Query::single(Pred::is_in(
            ebay::COL_ITEMID,
            ks.iter().map(|k| Value::Int(*k)).collect(),
        )),
        Op::Cat5(i) => Query::single(Pred::eq(ebay::COL_CAT5, items.cat5_value(*i).clone())),
        Op::Price(lo) => Query::single(Pred::between(ebay::COL_PRICE, *lo, lo + Items::PRICE_SPAN)),
        other => unreachable!("{other:?} is not a read on items"),
    }
}

pub fn point_query(id: i64) -> Query {
    Query::single(Pred::eq(ebay::COL_ITEMID, id))
}

pub fn ship_query(lo: i32) -> Query {
    Query::single(Pred::between(
        tpch::COL_SHIPDATE,
        Value::Date(lo),
        Value::Date(lo + Lineitem::RANGE_DAYS - 1),
    ))
}

pub fn delete_query(lo: i64) -> Query {
    Query::single(Pred::between(ebay::COL_ITEMID, lo, lo + DELETE_SPAN - 1))
}

pub fn agg_spec() -> AggSpec {
    AggSpec::new(
        vec![tpch::COL_SHIPMODE, tpch::COL_RETURNFLAG],
        vec![AggFunc::Count, AggFunc::Sum(tpch::COL_EXTENDEDPRICE)],
    )
}

/// `lineitem ⋈ dim` on the dimension's key column: `(dim table, lineitem
/// column, join)`.
pub fn join_of(op: &Op, li: &Lineitem) -> (&'static str, usize, JoinQuery) {
    match op {
        Op::JoinShip => (
            li.ship_dim.name,
            tpch::COL_SHIPDATE,
            JoinQuery::on(tpch::COL_SHIPDATE, 0),
        ),
        Op::JoinPart => (
            li.part_dim.name,
            tpch::COL_PARTKEY,
            JoinQuery::on(tpch::COL_PARTKEY, 0),
        ),
        other => unreachable!("{other:?} is not a join"),
    }
}

// ---- scripts ----------------------------------------------------------

/// The `lookup_cold` read mix (also `mixed_2s`'s reader): of every ten
/// operations six are point reads, one a four-key IN, two CAT5
/// equalities and one a price range, in a fixed interleaving; only the
/// keys are drawn from the seed, so every seed runs the same mix.
pub fn lookup_script(items: &Items, ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::derive(seed, 0x100C);
    let n = items.base_len() as u64;
    (0..ops)
        .map(|i| match i % 10 {
            3 => Op::MultiPoint(std::array::from_fn(|_| rng.below(n) as i64)),
            1 | 6 => Op::Cat5(rng.below(items.cold_cat5_values() as u64) as usize),
            8 => {
                // Keep the whole range inside one 4096-wide CM bucket.
                let bucket = rng.below(1_000_000 / Items::PRICE_BUCKET as u64) as i64;
                let room = (Items::PRICE_BUCKET - Items::PRICE_SPAN) as u64;
                Op::Price(bucket * Items::PRICE_BUCKET + rng.below(room) as i64)
            }
            _ => Op::Point(rng.below(n) as i64),
        })
        .collect()
}

/// The `scan_warm` mix: per 20 ops, 16 shipdate ranges, 2 clamped joins,
/// 1 hash join, 1 grouped aggregate, evenly interleaved.
pub fn scan_script(li: &Lineitem, ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::derive(seed, 0x5CA7);
    let (lo, hi) = li.ship_span();
    (0..ops)
        .map(|i| match i % 20 {
            4 | 14 => Op::JoinShip,
            9 => Op::JoinPart,
            19 => Op::Agg,
            _ => Op::Ship(lo + rng.below((hi - lo + 1) as u64) as i32),
        })
        .collect()
}

/// Sizes of one `write_churn` round.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSize {
    pub inserts: usize,
    pub batches: usize,
    pub batch_rows: usize,
    pub deletes: usize,
}

impl ChurnSize {
    pub fn of(scale: Scale) -> ChurnSize {
        ChurnSize {
            inserts: scale.n(4096, 256),
            batches: scale.n(16, 2),
            batch_rows: 128,
            deletes: scale.n(8, 1),
        }
    }

    pub fn rows(&self) -> usize {
        self.inserts + self.batches * self.batch_rows
    }
}

/// One `write_churn` round over a pool of `size.rows()` fresh rows:
/// single inserts with a commit every eight, then the batches, then the
/// deletes (each followed by a commit) over the oldest inserted ids not
/// yet deleted, then a vacuum. `delete_from` advances past what this
/// round deletes.
pub fn churn_script(size: ChurnSize, delete_from: &mut i64) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..size.inserts {
        ops.push(Op::Insert(i));
        if (i + 1) % COMMIT_EVERY == 0 {
            ops.push(Op::Commit);
        }
    }
    if !size.inserts.is_multiple_of(COMMIT_EVERY) {
        ops.push(Op::Commit);
    }
    for b in 0..size.batches {
        ops.push(Op::InsertMany(
            size.inserts + b * size.batch_rows,
            size.batch_rows,
        ));
    }
    for _ in 0..size.deletes {
        ops.push(Op::Delete(*delete_from));
        ops.push(Op::Commit);
        *delete_from += DELETE_SPAN;
    }
    ops.push(Op::Vacuum);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale { smoke: true };

    #[test]
    fn scripts_repeat_per_seed_and_diverge_across_seeds() {
        let (items, _) = Items::generate(SMOKE, 1);
        let a = lookup_script(&items, 500, 11);
        assert_eq!(a, lookup_script(&items, 500, 11));
        assert_eq!(
            script_digest(&a),
            script_digest(&lookup_script(&items, 500, 11))
        );
        assert_ne!(
            script_digest(&a),
            script_digest(&lookup_script(&items, 500, 12))
        );
        let li = Lineitem::generate(SMOKE, 1);
        let s = scan_script(&li, 200, 11);
        assert_eq!(script_digest(&s), script_digest(&scan_script(&li, 200, 11)));
        assert_ne!(script_digest(&s), script_digest(&scan_script(&li, 200, 12)));
    }

    #[test]
    fn lookup_mix_is_six_one_two_one_and_price_ranges_stay_in_one_bucket() {
        let (items, _) = Items::generate(SMOKE, 1);
        let script = lookup_script(&items, 1000, 5);
        let count = |c: Class| script.iter().filter(|op| op.class() == c).count();
        assert_eq!(
            (
                count(Class::Point),
                count(Class::MultiPoint),
                count(Class::Cat5Eq),
                count(Class::PriceRange)
            ),
            (600, 100, 200, 100)
        );
        for op in &script {
            if let Op::Price(lo) = op {
                assert_eq!(
                    lo / Items::PRICE_BUCKET,
                    (lo + Items::PRICE_SPAN) / Items::PRICE_BUCKET
                );
            }
        }
    }

    #[test]
    fn scan_mix_is_sixteen_two_one_one() {
        let li = Lineitem::generate(SMOKE, 1);
        let script = scan_script(&li, 80, 5);
        let count = |c: Class| script.iter().filter(|op| op.class() == c).count();
        assert_eq!(
            (
                count(Class::ShipRange),
                count(Class::JoinClamp),
                count(Class::JoinHash),
                count(Class::Agg)
            ),
            (64, 8, 4, 4)
        );
    }

    #[test]
    fn churn_round_commits_every_eight_and_deletes_advance() {
        let size = ChurnSize {
            inserts: 20,
            batches: 2,
            batch_rows: 4,
            deletes: 2,
        };
        let mut from = 1000;
        let ops = churn_script(size, &mut from);
        assert_eq!(from, 1000 + 2 * DELETE_SPAN);
        let count = |c: Class| ops.iter().filter(|op| op.class() == c).count();
        assert_eq!(count(Class::Insert), 20);
        assert_eq!(
            count(Class::Commit),
            3 + 2,
            "20 inserts need 3 commits, each delete one"
        );
        assert_eq!(ops[8], Op::Commit);
        assert_eq!(ops.last(), Some(&Op::Vacuum));
        assert!(ops.contains(&Op::InsertMany(24, 4)));
        assert!(ops.contains(&Op::Delete(1000 + DELETE_SPAN)));
        assert_eq!(size.rows(), 28);
    }

    #[test]
    fn class_names_are_unique_and_reads_come_first() {
        let mut names: Vec<&str> = Class::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Class::ALL.len());
        assert!(Class::Agg.is_read() && !Class::Insert.is_read());
    }
}
