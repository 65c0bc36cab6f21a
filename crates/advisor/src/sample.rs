//! One live-row sample and one soft-FD strength estimate.
//!
//! Every advisor scores a candidate key by its soft-FD strength against
//! a dependent attribute, `c_per_u = D(key, dependent) / D(key)` — for a
//! CM design the dependent is the clustered bucket, for discovery and
//! clustering another column. The paper takes both distinct counts from
//! the Adaptive Estimator over one ~30 k-row random sample (§4.2,
//! §6.1.3). [`Sample::live`] draws that sample once, over the slots that
//! hold a row; [`Sample::strength`] is the one estimate every advisor
//! calls.

use cm_core::BucketSpec;
use cm_query::Table;
use cm_stats::{estimate_distinct, FreqTable, ReservoirSampler};
use cm_storage::Rid;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Seed of every advisor sample: the same table always yields the same
/// sample, so every report is reproducible.
const SEED: u64 = 0xAD71;

/// FNV-1a offset basis and prime: the fold of a composite key's part
/// hashes into one key hash.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Golden-ratio multiplier that mixes the dependent into a
/// `(key, dependent)` pair hash.
const GOLDEN: u64 = 0x9E3779B97F4A7C15;

/// A uniform random sample of a table's live rows.
pub struct Sample<'t> {
    table: &'t Table,
    rids: Vec<Rid>,
    population: u64,
}

impl<'t> Sample<'t> {
    /// Reservoir-sample up to `size` of `table`'s live rows (RID order in,
    /// fixed seed). The live row count is kept as the estimator's
    /// population.
    pub fn live(table: &'t Table, size: usize) -> Self {
        let mut reservoir = ReservoirSampler::new(size, SEED);
        for rid in table.live_rids(0) {
            reservoir.observe(rid);
        }
        let population = reservoir.seen();
        Sample {
            table,
            rids: reservoir.into_sample(),
            population,
        }
    }

    /// The sampled table.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// The sampled RIDs.
    pub fn rids(&self) -> &[Rid] {
        &self.rids
    }

    /// Live rows in the table when it was sampled.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// The hash of `spec`'s key part of column `col`, per sampled row.
    pub fn key_parts(&self, col: usize, spec: &BucketSpec) -> Vec<u64> {
        let heap = self.table.heap();
        self.rids
            .iter()
            .map(|&rid| {
                let mut h = DefaultHasher::new();
                spec.key_part(&heap.value(rid, col).expect("sampled rid valid"))
                    .hash(&mut h);
                h.finish()
            })
            .collect()
    }

    /// The hash of column `col`'s raw value, per sampled row.
    pub fn column(&self, col: usize) -> Vec<u64> {
        self.key_parts(col, &BucketSpec::None)
    }

    /// The clustered bucket of every sampled row.
    pub fn clustered_buckets(&self) -> Vec<u64> {
        self.rids
            .iter()
            .map(|&rid| u64::from(self.table.dir().bucket_of(rid)))
            .collect()
    }

    /// Soft-FD strength of the key whose per-row part hashes are
    /// `det_parts` against the per-row `dependent`:
    /// `(c_per_u, d_keys)` with `c_per_u = D(key, dependent) / D(key)`,
    /// both counts estimated over the live population and
    /// `D(key, dependent) >= D(key)`.
    pub fn strength(&self, det_parts: &[&[u64]], dependent: &[u64]) -> (f64, f64) {
        let mut keys = FreqTable::new();
        let mut pairs = FreqTable::new();
        for (i, &dep) in dependent.iter().enumerate() {
            let key = det_parts
                .iter()
                .fold(FNV_OFFSET, |h, part| (h ^ part[i]).wrapping_mul(FNV_PRIME));
            keys.observe(key);
            pairs.observe(key ^ dep.wrapping_mul(GOLDEN));
        }
        let d_keys = self.estimate(&keys).max(1.0);
        let d_pairs = self.estimate(&pairs).max(d_keys);
        (d_pairs / d_keys, d_keys)
    }

    /// Estimated distinct values of one column's per-row hashes.
    pub fn distinct(&self, hashes: &[u64]) -> f64 {
        let mut keys = FreqTable::new();
        for &h in hashes {
            keys.observe(h);
        }
        self.estimate(&keys).max(1.0)
    }

    fn estimate(&self, sample: &FreqTable<u64>) -> f64 {
        estimate_distinct(
            self.population,
            self.rids.len() as u64,
            &sample.freq_of_freq(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_storage::{Column, DiskSim, Schema, Value, ValueType};
    use std::sync::Arc;

    /// `u` softly determines the clustered `c`: each `u` value spans one
    /// or two `c` values; `noise` is independent.
    fn soft_fd(disk: &DiskSim) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("c", ValueType::Int),
            Column::new("u", ValueType::Int),
            Column::new("noise", ValueType::Int),
        ]));
        let rows = (0..6_000i64)
            .map(|i| {
                let u = i % 700;
                let c = u / 3 + (i / 700 % 2) * (u % 5 / 4);
                vec![Value::Int(c), Value::Int(u), Value::Int(i * 37 % 101)]
            })
            .collect();
        Table::build(disk, schema, rows, 40, 0, 50).unwrap()
    }

    #[test]
    fn a_full_sample_reproduces_the_exact_strength() {
        let disk = DiskSim::with_defaults();
        let mut t = soft_fd(&disk);
        t.analyze_cols(&[1, 2]);
        let sample = Sample::live(&t, 10_000);
        assert_eq!(sample.rids().len() as u64, sample.population());
        let dep = sample.column(0);
        for col in [1, 2] {
            let (c_per_u, d_keys) = sample.strength(&[&sample.column(col)], &dep);
            let exact = &t.col_stats(col).unwrap().corr;
            assert_eq!(d_keys, exact.distinct_u as f64, "col {col}");
            let want = exact.c_per_u;
            assert!(
                (c_per_u - want).abs() < 1e-12,
                "col {col}: {c_per_u} vs {want}"
            );
        }
        let soft = t.col_stats(1).unwrap().corr.c_per_u;
        assert!(soft > 1.0 && soft < 2.0, "a soft, not hard, FD: {soft}");
    }

    #[test]
    fn a_sample_after_deletes_holds_only_live_rows() {
        let disk = DiskSim::with_defaults();
        let mut t = soft_fd(&disk);
        let doomed: Vec<Rid> = (0..t.heap().len())
            .filter(|i| i % 3 != 1)
            .map(Rid)
            .collect();
        for &rid in &doomed {
            t.delete_row(disk.as_ref(), None, rid).unwrap();
        }
        let live = t.heap().len() - doomed.len() as u64;
        for size in [500, 10_000] {
            let sample = Sample::live(&t, size);
            assert_eq!(sample.population(), live);
            assert_eq!(sample.rids().len() as u64, live.min(size as u64));
            assert!(sample
                .rids()
                .iter()
                .all(|&rid| !t.is_tombstone(rid).unwrap()));
        }
    }
}
