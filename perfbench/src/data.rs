//! Generated inputs and the benchmark's own model of them.
//!
//! The engine receives only rows generated here from the seed. Beside
//! each dataset the benchmark keeps what it needs to say, without asking
//! the engine, which rows an operation must return: a hash per row and
//! small indexes over the predicated columns. A result is compared by
//! row count and an order-independent digest (wrapping sum of row hashes).

use crate::rng::{Fnv, Rng};
use cm_datagen::ebay::{self, ebay, EbayConfig, EbayData};
use cm_datagen::tpch::{self, tpch_lineitem, TpchConfig};
use cm_storage::{Column, Row, Schema, Value, ValueType};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Full scale is what `BENCHMARK.json` runs; smoke scale exists so the
/// tests and `--smoke` finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn n(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Heap tuples per page, as the repository's experiments size them.
pub const EBAY_TPP: usize = 90;
pub const TPCH_TPP: usize = 60;

/// Hash one row: type-tagged FNV-1a over its values.
pub fn hash_row(row: &[Value]) -> u64 {
    let mut h = Fnv::default();
    for v in row {
        match v {
            Value::Null => h.bytes(&[0]),
            Value::Int(i) => {
                h.bytes(&[1]);
                h.bytes(&i.to_le_bytes());
            }
            Value::Float(f) => {
                h.bytes(&[2]);
                h.bytes(&f.get().to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                h.bytes(&[3]);
                h.u64(s.len() as u64);
                h.bytes(s.as_bytes());
            }
            Value::Date(d) => {
                h.bytes(&[4]);
                h.bytes(&d.to_le_bytes());
            }
        }
    }
    h.finish()
}

/// What an operation must return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    pub count: u64,
    pub digest: u64,
}

impl Expect {
    pub fn add(&mut self, hash: u64) {
        self.count += 1;
        self.digest = self.digest.wrapping_add(hash);
    }

    pub fn of_rows(rows: &[Row]) -> Expect {
        let mut e = Expect::default();
        for row in rows {
            e.add(hash_row(row));
        }
        e
    }
}

/// eBay `ITEMS` (clustered on CATID) and the model of its base rows.
/// ItemIDs are dense, so `ItemID == index` into the per-row tables.
pub struct Items {
    pub schema: Arc<Schema>,
    /// Base rows in generation order (`rows[i]` has ItemID `i`).
    pub rows: Vec<Row>,
    hashes: Vec<u64>,
    /// CAT5 names that cover at most [`Items::COLD_CATS`] categories,
    /// each with the ItemIDs carrying it. Hot names cover up to ~150
    /// scattered categories, which the planner (rightly) sends to a full
    /// scan; mixing both would make the class bimodal.
    cold_cat5: Vec<(Value, Vec<u32>)>,
    /// `(Price, ItemID)` ascending.
    by_price: Vec<(i64, u32)>,
    pub base_digest: u64,
}

impl Items {
    pub const COLD_CATS: usize = 8;
    /// Width of a `Price BETWEEN lo AND lo + PRICE_SPAN` read.
    pub const PRICE_SPAN: i64 = 1000;
    /// The Price CM buckets by 2^12; ranges are drawn inside one bucket
    /// so every one of them is a CM-guided scan of similar size.
    pub const PRICE_BUCKET: i64 = 4096;

    /// The base data and, apart from it, the source of rows to insert.
    pub fn generate(scale: Scale, seed: u64) -> (Items, InsertRows) {
        let mut gen = ebay(EbayConfig {
            categories: scale.n(2_000, 200),
            min_items: scale.n(100, 20),
            max_items: scale.n(200, 40),
            seed,
        });
        let rows = std::mem::take(&mut gen.rows);
        let hashes: Vec<u64> = rows.iter().map(|r| hash_row(r)).collect();
        let base_digest = hashes.iter().fold(0u64, |d, h| d.wrapping_add(*h));

        let mut cats_of: HashMap<Arc<str>, usize> = HashMap::new();
        for path in &gen.category_paths {
            if let Some(name) = &path[4] {
                *cats_of.entry(name.clone()).or_default() += 1;
            }
        }
        // BTreeMap: the value list (and so every script) is ordered by
        // name, not by hash-map iteration order.
        let mut postings: BTreeMap<Arc<str>, Vec<u32>> = BTreeMap::new();
        let mut by_price = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row[ebay::COL_ITEMID],
                Value::Int(i as i64),
                "ItemIDs are dense"
            );
            by_price.push((
                row[ebay::COL_PRICE].as_int().expect("Price is Int"),
                i as u32,
            ));
            if let Value::Str(name) = &row[ebay::COL_CAT5] {
                if cats_of[name] <= Self::COLD_CATS {
                    postings.entry(name.clone()).or_default().push(i as u32);
                }
            }
        }
        by_price.sort_unstable();
        let cold_cat5 = postings
            .into_iter()
            .map(|(k, v)| (Value::Str(k), v))
            .collect();
        let items = Items {
            schema: gen.schema.clone(),
            rows,
            hashes,
            cold_cat5,
            by_price,
            base_digest,
        };
        (
            items,
            InsertRows {
                gen,
                seed,
                batches: 0,
            },
        )
    }

    pub fn base_len(&self) -> usize {
        self.rows.len()
    }

    pub fn cold_cat5_values(&self) -> usize {
        self.cold_cat5.len()
    }

    pub fn cat5_value(&self, idx: usize) -> &Value {
        &self.cold_cat5[idx].0
    }

    pub fn expect_ids(&self, ids: impl IntoIterator<Item = i64>) -> Expect {
        let mut e = Expect::default();
        for id in ids {
            if let Some(h) = usize::try_from(id).ok().and_then(|i| self.hashes.get(i)) {
                e.add(*h);
            }
        }
        e
    }

    pub fn expect_cat5(&self, idx: usize) -> Expect {
        let mut e = Expect::default();
        for &id in &self.cold_cat5[idx].1 {
            e.add(self.hashes[id as usize]);
        }
        e
    }

    pub fn expect_price(&self, lo: i64, hi: i64) -> Expect {
        let start = self.by_price.partition_point(|&(p, _)| p < lo);
        let mut e = Expect::default();
        for &(_, id) in self.by_price[start..].iter().take_while(|&&(p, _)| p <= hi) {
            e.add(self.hashes[id as usize]);
        }
        e
    }

    /// Digest of everything the engine is given at load.
    pub fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.rows.len() as u64);
        h.u64(self.base_digest);
        h.finish()
    }
}

/// Fresh rows for the write workloads: every batch continues the ItemID
/// sequence and is seeded differently.
pub struct InsertRows {
    gen: EbayData,
    seed: u64,
    batches: u64,
}

impl InsertRows {
    /// `n` rows with the next ItemIDs (random categories).
    pub fn draw(&mut self, n: usize) -> Vec<Row> {
        self.batches += 1;
        self.gen.insert_batch(n, self.seed ^ (self.batches << 32))
    }

    pub fn next_id(&self) -> i64 {
        self.gen.next_item_id
    }

    /// Hand back the ids of drawn rows that were never inserted, so
    /// inserted ItemIDs stay dense.
    pub fn rewind(&mut self, next: i64) {
        assert!(next <= self.gen.next_item_id, "ids only go back");
        self.gen.next_item_id = next;
    }
}

/// The rows a write workload has added on top of the base data, with
/// which of them are still live. Base rows are never deleted.
#[derive(Debug, Default)]
pub struct Churn {
    first_id: i64,
    /// Index = ItemID − `first_id`: the row's hash and whether it is
    /// live. `None` where an id was skipped (a failed insert).
    slots: Vec<Option<(u64, bool)>>,
    live: Expect,
}

impl Churn {
    pub fn new(first_id: i64) -> Churn {
        Churn {
            first_id,
            ..Churn::default()
        }
    }

    pub fn insert(&mut self, row: &[Value]) {
        let id = row[ebay::COL_ITEMID].as_int().expect("ItemID is Int");
        let slot = usize::try_from(id - self.first_id).expect("inserted ids follow the base data");
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        let h = hash_row(row);
        self.slots[slot] = Some((h, true));
        self.live.add(h);
    }

    /// Delete `lo..=hi`; returns how many live rows went.
    pub fn delete_range(&mut self, lo: i64, hi: i64) -> u64 {
        let mut gone = 0;
        for id in lo.max(self.first_id)..=hi.min(self.next_id() - 1) {
            match &mut self.slots[(id - self.first_id) as usize] {
                Some((h, live)) if *live => {
                    *live = false;
                    self.live.count -= 1;
                    self.live.digest = self.live.digest.wrapping_sub(*h);
                    gone += 1;
                }
                _ => {}
            }
        }
        gone
    }

    /// `Some(hash)` for a live inserted row, `None` for any other id.
    pub fn get(&self, id: i64) -> Option<u64> {
        let (h, live) = (*self.slots.get(usize::try_from(id - self.first_id).ok()?)?)?;
        live.then_some(h)
    }

    /// Ids handed out so far (live, deleted or skipped).
    pub fn inserted(&self) -> usize {
        self.slots.len()
    }

    pub fn first_id(&self) -> i64 {
        self.first_id
    }

    /// The id the next inserted row must carry to keep ids dense.
    pub fn next_id(&self) -> i64 {
        self.first_id + self.slots.len() as i64
    }

    /// Live inserted rows (count and digest).
    pub fn live(&self) -> Expect {
        self.live
    }
}

/// TPC-H `lineitem` (clustered on receiptdate), two dimension tables,
/// and the expected result of each read the workload issues.
pub struct Lineitem {
    pub schema: Arc<Schema>,
    pub rows: Vec<Row>,
    pub ship_dim: Dim,
    pub part_dim: Dim,
    /// `(shipdate, row hash)` ascending by date.
    by_ship: Vec<(i32, u64)>,
    /// Rows of the grouped aggregate, ascending by group key.
    pub agg_rows: Vec<Row>,
    pub join_ship: Expect,
    pub join_part: Expect,
    digest: u64,
}

/// A two-column dimension table `(key, note)`.
pub struct Dim {
    pub name: &'static str,
    pub schema: Arc<Schema>,
    pub rows: Vec<Row>,
}

impl Lineitem {
    /// Days covered by one shipdate range read.
    pub const RANGE_DAYS: i32 = 7;
    const SHIP_KEYS: usize = 12;
    const PART_KEYS: usize = 6;

    pub fn generate(scale: Scale, seed: u64) -> Lineitem {
        let parts = scale.n(10_000, 500) as i64;
        let data = tpch_lineitem(TpchConfig {
            rows: scale.n(200_000, 8_000),
            parts,
            suppliers: scale.n(500, 50) as i64,
            seed,
        });
        // Ship dates spread evenly over the data's span (a seeded offset
        // moves them all), so every seed joins about as many rows.
        let dates = || {
            data.rows
                .iter()
                .map(|r| r[tpch::COL_SHIPDATE].as_date().expect("shipdate"))
        };
        let (first, last) = (dates().min().unwrap_or(0), dates().max().unwrap_or(0));
        let step = ((last - first) / Self::SHIP_KEYS as i32).max(1);
        let offset = Rng::derive(seed, 0x5817).below(step as u64) as i32;
        let ship_keys: Vec<Value> = (0..Self::SHIP_KEYS as i32)
            .map(|i| Value::Date(first + offset + i * step))
            .collect();
        let part_keys: Vec<Value> = (0..Self::PART_KEYS as i64)
            .map(|i| Value::Int((i * 157 + 11) % parts))
            .collect();
        let dim = |name, col, ty, keys: &[Value]| Dim {
            name,
            schema: Arc::new(Schema::new(vec![
                Column::new(col, ty),
                Column::new("note", ValueType::Int),
            ])),
            rows: keys
                .iter()
                .enumerate()
                .map(|(i, k)| vec![k.clone(), Value::Int(i as i64)])
                .collect(),
        };
        let ship_dim = dim("ship_dim", "shipdate", ValueType::Date, &ship_keys);
        let part_dim = dim("part_dim", "partkey", ValueType::Int, &part_keys);

        let mut by_ship = Vec::with_capacity(data.rows.len());
        let mut groups: BTreeMap<(Value, Value), (i64, f64)> = BTreeMap::new();
        let (mut join_ship, mut join_part) = (Expect::default(), Expect::default());
        let mut digest = 0u64;
        for row in &data.rows {
            let h = hash_row(row);
            digest = digest.wrapping_add(h);
            by_ship.push((
                row[tpch::COL_SHIPDATE].as_date().expect("shipdate is Date"),
                h,
            ));
            let g = groups
                .entry((
                    row[tpch::COL_SHIPMODE].clone(),
                    row[tpch::COL_RETURNFLAG].clone(),
                ))
                .or_default();
            g.0 += 1;
            // extendedprice is an integer-valued float well below 2^53,
            // so the sum is exact in any order.
            g.1 += row[tpch::COL_EXTENDEDPRICE]
                .as_float()
                .expect("extendedprice is Float");
            // A joined row is the lineitem row followed by the dimension row.
            for (dim, col, acc) in [
                (&ship_dim, tpch::COL_SHIPDATE, &mut join_ship),
                (&part_dim, tpch::COL_PARTKEY, &mut join_part),
            ] {
                for d in dim.rows.iter().filter(|d| d[0] == row[col]) {
                    let mut joined = row.clone();
                    joined.extend_from_slice(d);
                    acc.add(hash_row(&joined));
                }
            }
        }
        by_ship.sort_unstable();
        let agg_rows = groups
            .into_iter()
            .map(|((mode, flag), (n, sum))| vec![mode, flag, Value::Int(n), Value::float(sum)])
            .collect();
        Lineitem {
            schema: data.schema,
            rows: data.rows,
            ship_dim,
            part_dim,
            by_ship,
            agg_rows,
            join_ship,
            join_part,
            digest,
        }
    }

    /// First and last shipdate a range read may start at.
    pub fn ship_span(&self) -> (i32, i32) {
        let lo = self.by_ship.first().map_or(0, |s| s.0);
        let hi = self.by_ship.last().map_or(0, |s| s.0);
        (lo, (hi - Self::RANGE_DAYS).max(lo))
    }

    pub fn expect_ship(&self, lo: i32, hi: i32) -> Expect {
        let start = self.by_ship.partition_point(|&(d, _)| d < lo);
        let mut e = Expect::default();
        for &(_, h) in self.by_ship[start..].iter().take_while(|&&(d, _)| d <= hi) {
            e.add(h);
        }
        e
    }

    pub fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.rows.len() as u64);
        h.u64(self.digest);
        for dim in [&self.ship_dim, &self.part_dim] {
            h.u64(Expect::of_rows(&dim.rows).digest);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale { smoke: true };

    #[test]
    fn items_model_agrees_with_a_brute_force_scan() {
        let (items, _) = Items::generate(SMOKE, 3);
        assert!(items.cold_cat5_values() > 10);
        let brute = |pred: &dyn Fn(&Row) -> bool| {
            let rows: Vec<Row> = items.rows.iter().filter(|r| pred(r)).cloned().collect();
            Expect::of_rows(&rows)
        };
        let v = items.cat5_value(4).clone();
        assert_eq!(items.expect_cat5(4), brute(&|r| r[ebay::COL_CAT5] == v));
        assert!(items.expect_cat5(4).count > 0);
        let (lo, hi) = (200_000, 260_000);
        let in_range = |r: &Row| (lo..=hi).contains(&r[ebay::COL_PRICE].as_int().unwrap());
        assert_eq!(items.expect_price(lo, hi), brute(&in_range));
        assert_eq!(items.expect_ids([5, 9, -1, 1 << 40]).count, 2);
        let total = brute(&|_| true);
        assert_eq!(
            (total.count, total.digest),
            (items.base_len() as u64, items.base_digest)
        );
    }

    #[test]
    fn same_seed_same_digest_and_seeds_differ() {
        assert_eq!(
            Items::generate(SMOKE, 3).0.input_digest(),
            Items::generate(SMOKE, 3).0.input_digest()
        );
        assert_ne!(
            Items::generate(SMOKE, 3).0.input_digest(),
            Items::generate(SMOKE, 4).0.input_digest()
        );
        assert_eq!(
            Lineitem::generate(SMOKE, 3).input_digest(),
            Lineitem::generate(SMOKE, 3).input_digest()
        );
        assert_ne!(
            Lineitem::generate(SMOKE, 3).input_digest(),
            Lineitem::generate(SMOKE, 4).input_digest()
        );
    }

    #[test]
    fn churn_tracks_live_rows() {
        let (items, mut inserts) = Items::generate(SMOKE, 3);
        let first = inserts.next_id();
        assert_eq!(first, items.base_len() as i64);
        let mut churn = Churn::new(first);
        let batch = inserts.draw(10);
        for row in &batch {
            churn.insert(row);
        }
        assert_eq!(churn.live(), Expect::of_rows(&batch));
        assert_eq!(churn.delete_range(first + 2, first + 4), 3);
        assert_eq!(
            churn.delete_range(first + 4, first + 5),
            1,
            "deleted rows are not counted twice"
        );
        assert_eq!(churn.get(first + 3), None);
        assert_eq!(churn.get(first + 6), Some(hash_row(&batch[6])));
        let mut live = batch.clone();
        live.drain(2..6);
        assert_eq!(churn.live(), Expect::of_rows(&live));
    }

    #[test]
    fn lineitem_expectations_are_nonempty() {
        let li = Lineitem::generate(SMOKE, 3);
        let (lo, _) = li.ship_span();
        assert!(li.expect_ship(lo + 200, lo + 206).count > 0);
        assert!(li.join_ship.count > 0 && li.join_part.count > 0);
        assert_eq!(li.agg_rows.len(), 21, "7 ship modes x 3 return flags");
    }
}
