//! Soft functional dependency discovery (the paper's first contribution).
//!
//! "We describe a set of algorithms to search for soft functional
//! dependencies that can be exploited at query execution time" — more
//! general than BHUNT (categorical domains participate, not just
//! algebraic relations over ordered domains) and able to identify
//! **multi-attribute** FDs where a *pair* `(A1, A2)` determines `B` far
//! better than either attribute alone (the paper's
//! `(longitude, latitude) → zipcode`).
//!
//! The search follows the CORDS-style recipe the paper builds on:
//! candidate determinants are scored by the soft-FD strength
//! `c_per_u = D(det, dep) / D(det)` estimated from one shared random
//! sample with the Adaptive Estimator; a dependency is *soft* when the
//! strength is close to 1 and *exploitable* when, additionally, the
//! dependent attribute's value groups are not so large that locality is
//! useless (`c_tups` must be a small fraction of the table — the §5.3
//! gender caveat).

use cm_query::Table;
use cm_stats::{estimate_distinct, EstimatorKind, FreqTable, ReservoirSampler};
use cm_storage::Rid;

/// One discovered soft functional dependency `determinant → dependent`.
#[derive(Debug, Clone)]
pub struct SoftFd {
    /// Determinant columns (one or two).
    pub determinant: Vec<usize>,
    /// Dependent column.
    pub dependent: usize,
    /// Estimated strength: average distinct dependent values per
    /// determinant value (1.0 = hard FD).
    pub c_per_u: f64,
    /// Estimated distinct determinant values.
    pub distinct_det: f64,
    /// For two-attribute determinants: how much tighter the pair is than
    /// its best single attribute (`best_single_c_per_u / pair_c_per_u`);
    /// 1.0 for single-attribute FDs.
    pub pair_gain: f64,
}

impl SoftFd {
    /// Human-readable rendering against a schema.
    pub fn describe(&self, schema: &cm_storage::Schema) -> String {
        let det: Vec<&str> =
            self.determinant.iter().map(|&c| schema.col_name(c)).collect();
        format!(
            "({}) -> {}  [c_per_u = {:.2}, gain = {:.1}x]",
            det.join(", "),
            schema.col_name(self.dependent),
            self.c_per_u,
            self.pair_gain
        )
    }
}

/// Discovery tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Sample size for the estimators (paper/CORDS: ~30k).
    pub sample_size: usize,
    /// A dependency is reported when `c_per_u <= strength_threshold`.
    pub strength_threshold: f64,
    /// Prune trivial determinants: a column whose distinct count is below
    /// this cannot usefully localize access (the §5.3 gender caveat,
    /// applied to the determinant side).
    pub min_determinant_distinct: f64,
    /// A pair is only reported when it tightens the best single attribute
    /// by at least this factor (otherwise the single FD suffices).
    pub min_pair_gain: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            sample_size: 30_000,
            strength_threshold: 8.0,
            min_determinant_distinct: 8.0,
            min_pair_gain: 4.0,
            seed: 0xD15C,
        }
    }
}

/// Search for soft FDs `determinant ⊆ candidates → dependent`.
///
/// Considers every single candidate column and every candidate pair,
/// estimating strengths from one shared sample. Results are sorted by
/// strength (tightest first); pairs appear only when they beat their best
/// constituent by [`DiscoveryConfig::min_pair_gain`].
pub fn discover_soft_fds(
    table: &Table,
    candidates: &[usize],
    dependent: usize,
    config: &DiscoveryConfig,
) -> Vec<SoftFd> {
    // Shared sample.
    let mut reservoir = ReservoirSampler::new(config.sample_size, config.seed);
    for rid in (0..table.heap().len()).map(Rid) {
        reservoir.observe(rid);
    }
    let sample: Vec<Rid> = reservoir.into_sample();
    let n_total = table.heap().len();
    let r = sample.len() as u64;

    // Pre-hash each candidate column and the dependent over the sample.
    let hash_col = |col: usize| -> Vec<u64> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        sample
            .iter()
            .map(|&rid| {
                let mut h = DefaultHasher::new();
                table.heap().value(rid, col).expect("sampled rid valid").hash(&mut h);
                h.finish()
            })
            .collect()
    };
    let dep_hashes = hash_col(dependent);
    let cand_hashes: Vec<Vec<u64>> = candidates.iter().map(|&c| hash_col(c)).collect();

    // Strength of an arbitrary determinant given its per-row hashes.
    let strength = |det: &[&Vec<u64>]| -> (f64, f64) {
        let mut keys = FreqTable::new();
        let mut pairs = FreqTable::new();
        for i in 0..dep_hashes.len() {
            let mut h = 0xcbf29ce484222325u64;
            for part in det {
                h ^= part[i];
                h = h.wrapping_mul(0x100000001b3);
            }
            keys.observe(h);
            pairs.observe(h ^ dep_hashes[i].wrapping_mul(0x9E3779B97F4A7C15));
        }
        let d_keys =
            estimate_distinct(EstimatorKind::Adaptive, n_total, r, &keys.freq_of_freq()).max(1.0);
        let d_pairs =
            estimate_distinct(EstimatorKind::Adaptive, n_total, r, &pairs.freq_of_freq())
                .max(d_keys);
        (d_pairs / d_keys, d_keys)
    };

    let mut out: Vec<SoftFd> = Vec::new();
    let mut single_strength: Vec<(f64, f64)> = Vec::with_capacity(candidates.len());
    for (i, &col) in candidates.iter().enumerate() {
        if col == dependent {
            single_strength.push((f64::INFINITY, 0.0));
            continue;
        }
        let (c_per_u, d_keys) = strength(&[&cand_hashes[i]]);
        single_strength.push((c_per_u, d_keys));
        if c_per_u <= config.strength_threshold && d_keys >= config.min_determinant_distinct {
            out.push(SoftFd {
                determinant: vec![col],
                dependent,
                c_per_u,
                distinct_det: d_keys,
                pair_gain: 1.0,
            });
        }
    }
    // Pairs: only meaningful when the pair is substantially tighter than
    // its best constituent.
    for i in 0..candidates.len() {
        for j in (i + 1)..candidates.len() {
            if candidates[i] == dependent || candidates[j] == dependent {
                continue;
            }
            let best_single = single_strength[i].0.min(single_strength[j].0);
            if best_single <= config.strength_threshold {
                // A good single FD exists; the pair adds bookkeeping only.
                continue;
            }
            let (c_per_u, d_keys) = strength(&[&cand_hashes[i], &cand_hashes[j]]);
            let gain = best_single / c_per_u.max(1e-9);
            if c_per_u <= config.strength_threshold
                && gain >= config.min_pair_gain
                && d_keys >= config.min_determinant_distinct
            {
                out.push(SoftFd {
                    determinant: vec![candidates[i], candidates[j]],
                    dependent,
                    c_per_u,
                    distinct_det: d_keys,
                    pair_gain: gain,
                });
            }
        }
    }
    out.sort_by(|a, b| a.c_per_u.total_cmp(&b.c_per_u));
    out
}

/// Convenience: discover FDs from every non-clustered column (and their
/// pairs) to the table's clustered attribute — the exploitable direction
/// for CMs.
pub fn discover_for_clustered(table: &Table, config: &DiscoveryConfig) -> Vec<SoftFd> {
    let dep = table.clustered_col();
    let candidates: Vec<usize> =
        (0..table.heap().schema().arity()).filter(|&c| c != dep).collect();
    discover_soft_fds(table, &candidates, dep, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_storage::{Column, DiskSim, Schema, Value, ValueType};
    use std::sync::Arc;

    /// Table with: a strong single FD (u1 -> c), a pair FD ((x, y) -> c
    /// where each alone is weak), and an unrelated noise column.
    fn demo(disk: &DiskSim) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("c", ValueType::Int),
            Column::new("u1", ValueType::Int),
            Column::new("x", ValueType::Int),
            Column::new("y", ValueType::Int),
            Column::new("noise", ValueType::Int),
        ]));
        let mut rows = Vec::new();
        for i in 0..30_000i64 {
            let c = i % 900; // 900 clustered values, c = x*30 + y
            rows.push(vec![
                Value::Int(c),
                Value::Int(c * 2 + (i % 2)), // u1 -> c nearly 1:1
                Value::Int(c / 30),          // x: 30 values, weak alone
                Value::Int(c % 30),          // y: 30 values, weak alone
                Value::Int((i * 31) % 997),  // noise
            ]);
        }
        Table::build(disk, schema, rows, 50, 0, 100).unwrap()
    }

    fn config() -> DiscoveryConfig {
        DiscoveryConfig { sample_size: 8_000, ..DiscoveryConfig::default() }
    }

    #[test]
    fn finds_strong_single_fd() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let fds = discover_soft_fds(&t, &[1, 4], 0, &config());
        assert!(
            fds.iter().any(|f| f.determinant == vec![1] && f.c_per_u < 2.0),
            "u1 -> c must be discovered: {fds:?}"
        );
        assert!(
            !fds.iter().any(|f| f.determinant == vec![4]),
            "noise must not be reported: {fds:?}"
        );
    }

    #[test]
    fn finds_multi_attribute_fd_where_singles_fail() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let fds = discover_soft_fds(&t, &[2, 3], 0, &config());
        // Neither x nor y alone qualifies (each maps to 30 c values)...
        assert!(!fds.iter().any(|f| f.determinant.len() == 1), "{fds:?}");
        // ...but the pair does, with a large gain.
        let pair = fds
            .iter()
            .find(|f| f.determinant == vec![2, 3])
            .expect("pair (x, y) -> c discovered");
        assert!(pair.c_per_u < 2.0, "pair strength {}", pair.c_per_u);
        assert!(pair.pair_gain > 5.0, "gain {}", pair.pair_gain);
    }

    #[test]
    fn pairs_not_reported_when_single_suffices() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let fds = discover_soft_fds(&t, &[1, 2], 0, &config());
        // u1 alone is strong, so (u1, x) must not be emitted.
        assert!(fds.iter().all(|f| f.determinant.len() == 1), "{fds:?}");
    }

    #[test]
    fn results_sorted_by_strength() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let fds = discover_for_clustered(&t, &config());
        for w in fds.windows(2) {
            assert!(w[0].c_per_u <= w[1].c_per_u);
        }
        assert!(!fds.is_empty());
    }

    #[test]
    fn describe_renders() {
        let disk = DiskSim::with_defaults();
        let t = demo(&disk);
        let fds = discover_soft_fds(&t, &[2, 3], 0, &config());
        let s = fds[0].describe(t.heap().schema());
        assert!(s.contains("(x, y) -> c"), "{s}");
    }

    #[test]
    fn few_valued_determinants_are_pruned() {
        // A 2-valued column "determines" nothing useful even if c_per_u
        // is low relative to its cardinality.
        let disk = DiskSim::with_defaults();
        let schema = Arc::new(Schema::new(vec![
            Column::new("c", ValueType::Int),
            Column::new("flag", ValueType::Int),
        ]));
        let rows = (0..5000i64)
            .map(|i| vec![Value::Int(i % 2), Value::Int(i % 2)])
            .collect();
        let t = Table::build(&disk, schema, rows, 50, 0, 100).unwrap();
        let fds = discover_soft_fds(&t, &[1], 0, &config());
        assert!(fds.is_empty(), "{fds:?}");
    }
}
