//! Property test: the column kernels select exactly what
//! `Query::matches` accepts.
//!
//! Random heaps of every column type — NULLs in each at a per-case rate
//! (none at all, so the kernels' no-bitmap paths run too), `Float` `-0.0`
//! and NaN payloads among the values — are filtered page by page with a
//! compiled [`PageFilter`], and every selection vector must equal the
//! page's materialised rows filtered with `Query::matches`. Queries mix
//! `Eq`, `In` and `Between` over literals of every type, NULL literals,
//! strings the heap's dictionary lacks, and string ranges. `narrow` on a
//! sparse pre-selection must agree too.
//!
//! The consumers of those selections are checked on the same heaps: each
//! page is folded by a [`BatchAgg`] and probed by a [`KeyProbe`] once as
//! a dense batch (every slot) and once as two sparse halves, and both
//! must equal [`AggState::observe`] and [`JoinHashTable::probe`] on the
//! page's materialised rows — groups, float sums to the bit, and every
//! probe hit with its partners. `Int`s next to `i64::MAX` and `i64::MIN`
//! now and then make integer sums overflow, so the fold's widening to
//! `f64` is compared too.
//!
//! Case count is `HEAP_PROP_CASES` (default 96), the heap property
//! test's setting, so CI raises both together.

use cm_query::{
    AggFunc, AggSpec, AggState, BatchAgg, JoinHashTable, PageFilter, Pred, PredOp, Query,
};
use cm_storage::{Column, DiskSim, HeapFile, PageRef, Rid, Row, Schema, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn cases() -> ProptestConfig {
    let cases = std::env::var("HEAP_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96);
    ProptestConfig::with_cases(cases)
}

const TYPES: [ValueType; 4] = [ValueType::Int, ValueType::Date, ValueType::Float, ValueType::Str];

/// Floats whose order and equality are the delicate ones.
const FLOATS: [f64; 8] = [f64::NEG_INFINITY, -2.5, -0.0, 0.0, 1.0, 1.5, f64::INFINITY, f64::NAN];

/// Strings a heap may store; `"zz"` is only ever a literal.
const STRS: [&str; 5] = ["", "a", "b", "m", "c"];

/// SplitMix64: one seed drives a whole case. `nulls` is the case's NULL
/// rate: none, one value in five, or one in two.
struct Rng {
    state: u64,
    nulls: usize,
}

impl Rng {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A stored value of type `ty`, NULL at the case's rate.
    fn value(&mut self, ty: ValueType) -> Value {
        let null = match self.nulls {
            0 => false,
            1 => self.below(5) == 0,
            _ => self.below(2) == 0,
        };
        if null {
            return Value::Null;
        }
        match ty {
            // Now and then a value next to an end of `i64`, so integer
            // sums overflow and widen to floats.
            ValueType::Int => match self.below(20) {
                0 => Value::Int(i64::MAX - self.below(3) as i64),
                1 => Value::Int(i64::MIN + self.below(3) as i64),
                _ => Value::Int(self.below(7) as i64 - 3),
            },
            ValueType::Date => Value::Date(self.below(7) as i32 - 3),
            ValueType::Float => {
                let f = FLOATS[self.below(FLOATS.len())];
                // Another NaN payload now and then.
                let f = if f.is_nan() && self.below(2) == 0 { -f64::NAN } else { f };
                Value::float(f)
            }
            ValueType::Str => Value::str(STRS[self.below(STRS.len())]),
        }
    }

    /// A literal of any type: usually `ty`'s, sometimes another's, a
    /// NULL, or a string no row holds.
    fn literal(&mut self, ty: ValueType) -> Value {
        match self.below(8) {
            0 => Value::Null,
            1 => Value::str("zz"),
            2 | 3 => {
                let other = TYPES[self.below(4)];
                self.value(other)
            }
            _ => match self.value(ty) {
                Value::Null => Value::Int(1),
                v => v,
            },
        }
    }

    fn pred(&mut self, col: usize, ty: ValueType) -> Pred {
        let op = match self.below(3) {
            0 => PredOp::Eq(self.literal(ty)),
            1 => PredOp::In((0..self.below(4)).map(|_| self.literal(ty)).collect()),
            _ => PredOp::Between(self.literal(ty), self.literal(ty)),
        };
        Pred { col, op }
    }
}

/// Result rows with each `Float` as its exact bits: what a fold must
/// reproduce, `-0.0` and NaN payloads included.
fn exact(rows: Vec<Row>) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("F{:016x}", f.0.to_bits()),
        v => format!("{v:?}"),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

/// `page`'s slots as one dense batch and as two sparse halves.
fn batches(page: PageRef<'_>) -> [Vec<Vec<u32>>; 2] {
    let n = page.len() as u32;
    [
        vec![(0..n).collect()],
        vec![(0..n / 2).collect(), (n / 2..n).collect()],
    ]
}

/// A random aggregate over the heap's columns: up to three group-by
/// columns; `COUNT`, `SUM` of a numeric column, `MIN` and `MAX`.
fn random_spec(rng: &mut Rng, types: &[ValueType]) -> AggSpec {
    let group_by = (0..rng.below(4)).map(|_| rng.below(types.len())).collect();
    let numeric: Vec<usize> = (0..types.len())
        .filter(|&c| types[c] != ValueType::Str)
        .collect();
    let aggs = (0..1 + rng.below(3))
        .map(|_| match rng.below(4) {
            0 => AggFunc::Count,
            1 => AggFunc::Sum(numeric[rng.below(numeric.len())]),
            2 => AggFunc::Min(rng.below(types.len())),
            _ => AggFunc::Max(rng.below(types.len())),
        })
        .collect();
    AggSpec::new(group_by, aggs)
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn kernels_select_what_query_matches_accepts(
        seed in any::<u64>(),
        rows in 0usize..160,
        tpp in 1usize..70,
        nulls in 0usize..3,
    ) {
        let mut rng = Rng { state: seed, nulls };
        let disk = DiskSim::with_defaults();
        // A column of each type, in a seeded order, plus an extra column.
        let mut types = TYPES.to_vec();
        types.push(TYPES[rng.below(4)]);
        for i in (1..types.len()).rev() {
            types.swap(i, rng.below(i + 1));
        }
        let cols = types.iter().enumerate().map(|(i, &ty)| Column::new(format!("c{i}"), ty));
        let schema = Arc::new(Schema::new(cols.collect()));
        let data: Vec<Row> =
            (0..rows).map(|_| types.iter().map(|&ty| rng.value(ty)).collect()).collect();
        let heap = HeapFile::bulk_load(&disk, schema, data, tpp).unwrap();
        // Sixteen queries of zero to three conjuncts over the one heap.
        for _ in 0..16 {
            let q = Query::new(
                (0..rng.below(4))
                    .map(|_| {
                        let col = rng.below(types.len());
                        rng.pred(col, types[col])
                    })
                    .collect(),
            );
            let mut filter = PageFilter::compile(&q, &heap).unwrap();
            let mut sparse = Vec::new();
            for p in 0..heap.num_pages() {
                let page = heap.read_page(disk.as_ref(), p).unwrap();
                let want: Vec<u32> =
                    (0..page.len() as u32).filter(|&s| q.matches(&page.row(s as usize))).collect();
                let sel = filter.select(page).clone();
                prop_assert_eq!(&sel, &want, "{:?}", q);
                // A pre-selection of every other slot narrows the same way.
                sparse.clear();
                sparse.extend((0..page.len() as u32).filter(|s| s % 2 == 1));
                filter.narrow(page, &mut sparse);
                let odd: Vec<u32> = want.iter().copied().filter(|s| s % 2 == 1).collect();
                prop_assert_eq!(&sparse, &odd, "{:?}", q);
            }
        }

        // Four folds and four probes over the heap, each run on dense
        // batches and on sparse halves.
        for _ in 0..4 {
            let spec = random_spec(&mut rng, &types);
            let mut want = AggState::new(&spec);
            (0..heap.len()).for_each(|r| want.observe(&heap.peek(Rid(r)).unwrap()));
            let want = exact(want.finish());
            for split in 0..2 {
                let mut fold = BatchAgg::new(&spec);
                for p in 0..heap.num_pages() {
                    let page = heap.read_page(disk.as_ref(), p).unwrap();
                    batches(page)[split].iter().for_each(|sel| fold.fold(page, sel));
                }
                let got = exact(fold.finish().finish());
                prop_assert_eq!(&got, &want, "{:?}, split {}", &spec, split);
            }

            let col = rng.below(types.len());
            let mut ht = JoinHashTable::new();
            for i in 0..1 + rng.below(6) {
                ht.insert(&rng.literal(types[col]), vec![Value::Int(i as i64)]);
            }
            let keys = ht.key_probe(&heap, col);
            for p in 0..heap.num_pages() {
                let page = heap.read_page(disk.as_ref(), p).unwrap();
                let want: Vec<(u32, Vec<u32>)> = (0..page.len() as u32)
                    .map(|s| (s, ht.probe(&page.value(s as usize, col)).to_vec()))
                    .filter(|(_, rows)| !rows.is_empty())
                    .collect();
                for sels in batches(page) {
                    let (mut got, mut hits) = (Vec::new(), Vec::new());
                    for sel in &sels {
                        keys.hits(page, sel, &mut hits);
                        let found = hits.iter().map(|&(s, w)| (s, keys.partners(w).to_vec()));
                        got.extend(found.filter(|(_, rows)| !rows.is_empty()));
                    }
                    prop_assert_eq!(&got, &want, "column {} of {:?}", col, types[col]);
                }
            }
        }
    }
}

#[test]
fn mixed_type_literals_keep_value_semantics() {
    // On an Int column of i % 4 over 100 rows: equality is type-strict,
    // a range compares Int and Float numerically.
    let disk = DiskSim::with_defaults();
    let schema = Arc::new(Schema::new(vec![Column::new("k", ValueType::Int)]));
    let data: Vec<Row> = (0..100).map(|i| vec![Value::Int(i % 4)]).collect();
    let heap = HeapFile::bulk_load(&disk, schema, data, 16).unwrap();
    let count = |q: Query| {
        let mut filter = PageFilter::compile(&q, &heap).unwrap();
        (0..heap.num_pages())
            .map(|p| filter.select(heap.read_page(disk.as_ref(), p).unwrap()).len())
            .sum::<usize>()
    };
    assert_eq!(count(Query::single(Pred::eq(0, Value::float(1.0)))), 0);
    assert_eq!(count(Query::single(Pred::between(0, Value::Int(1), Value::float(2.5)))), 50);
}
