//! Unclustered-attribute bucketing (paper §5.4, §6.1.2).
//!
//! Bucketing "truncates" ranges of a many-valued attribute into a single
//! CM key, trading false positives for size: only the lower bound of each
//! interval is stored. Categorical (few-valued) attributes stay unbucketed
//! — the paper's Table 4 shows the advisor emitting `mode` and `type`
//! without bucketing while sweeping `psfMag_g` through widths `2^2..2^16`.

use cm_storage::Value;

use std::sync::Arc;

/// How one CM key attribute is bucketed.
#[derive(Debug, Clone, PartialEq)]
pub enum BucketSpec {
    /// Keep raw values (categorical / few-valued attributes).
    None,
    /// Equi-width numeric bucketing: value `v` maps to bucket
    /// `floor((v - origin) / width)`. Only the bucket ordinal (equivalent
    /// to the interval's lower bound) is stored.
    EquiWidth {
        /// Domain origin (bucket 0 starts here).
        origin: f64,
        /// Bucket width (> 0).
        width: f64,
    },
    /// Variable-width (equi-depth) bucketing for skewed distributions —
    /// the extension the paper sketches in its future work ("consider
    /// variable-width buckets that pack more predicated attribute values
    /// into a bucket"): bucket `i` covers `[bounds[i], bounds[i+1])`,
    /// with the first/last buckets open-ended. Boundaries are typically
    /// derived from a sample quantile sweep
    /// ([`BucketSpec::equi_depth_from_sample`]).
    EquiDepth {
        /// Ascending interior boundaries (bucket count = len + 1).
        bounds: Arc<[f64]>,
    },
}

impl BucketSpec {
    /// Integer truncation by `2^level`, the paper's bucket-level scheme
    /// for integer domains (Experiment 2 sweeps `level` as
    /// "2^level tuples / bucket").
    pub fn pow2(level: u32) -> Self {
        BucketSpec::EquiWidth { origin: 0.0, width: (1u64 << level) as f64 }
    }

    /// Equi-width bucketing that covers `[lo, hi]` with `count` buckets —
    /// how the advisor derives widths for real-valued domains such as
    /// SDSS `ra` / `dec`.
    pub fn covering(lo: f64, hi: f64, count: u32) -> Self {
        assert!(count > 0, "bucket count must be positive");
        assert!(hi >= lo, "domain must be non-empty");
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        BucketSpec::EquiWidth { origin: lo, width: span / count as f64 }
    }

    /// Equi-depth bucketing fitted to a sample: boundaries are the sample
    /// quantiles, so each bucket holds roughly the same number of *rows*
    /// regardless of skew. The sample need not be sorted.
    pub fn equi_depth_from_sample(sample: &[f64], buckets: u32) -> Self {
        assert!(buckets >= 1, "bucket count must be positive");
        let mut sorted: Vec<f64> = sample.iter().copied().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let mut bounds = Vec::with_capacity(buckets.saturating_sub(1) as usize);
        for i in 1..buckets as usize {
            if sorted.is_empty() {
                break;
            }
            let idx = (i * sorted.len() / buckets as usize).min(sorted.len() - 1);
            let b = sorted[idx];
            if bounds.last().is_none_or(|&last| b > last) {
                bounds.push(b);
            }
        }
        BucketSpec::EquiDepth { bounds: bounds.into() }
    }

    /// Whether this spec buckets at all.
    pub fn is_bucketed(&self) -> bool {
        matches!(self, BucketSpec::EquiWidth { .. } | BucketSpec::EquiDepth { .. })
    }

    /// Map a value to its CM key part.
    ///
    /// Non-numeric values under a bucketed spec keep their raw form: the
    /// paper only buckets ordered numeric domains (BHUNT's limitation
    /// that CMs lift is precisely that categorical values need no
    /// bucketing to participate).
    pub fn key_part(&self, v: &Value) -> CmKeyPart {
        match self {
            BucketSpec::None => CmKeyPart::Raw(v.clone()),
            _ => match self.bucket_of(v) {
                Some(b) => CmKeyPart::Bucket(b),
                None => CmKeyPart::Raw(v.clone()),
            },
        }
    }

    /// Bucket ordinal of a numeric value (`None` for non-numeric input or
    /// an unbucketed spec).
    pub fn bucket_of(&self, v: &Value) -> Option<i64> {
        v.as_numeric().and_then(|x| self.ordinal(x))
    }

    /// Bucket ordinal of a numeric value given as its `f64` (what
    /// [`Value::as_numeric`] returns); `None` for an unbucketed spec.
    #[inline]
    pub fn ordinal(&self, x: f64) -> Option<i64> {
        match self {
            BucketSpec::None => None,
            BucketSpec::EquiWidth { origin, width } => Some(((x - origin) / width).floor() as i64),
            BucketSpec::EquiDepth { bounds } => Some(bounds.partition_point(|&b| b <= x) as i64),
        }
    }
}

/// One component of a CM key: either a raw categorical value or a bucket
/// ordinal (the interval's lower bound, per §5.4: "we only need to store
/// the lower bounds of the intervals").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmKeyPart {
    /// Unbucketed value.
    Raw(Value),
    /// Bucket ordinal under the attribute's [`BucketSpec`].
    Bucket(i64),
}

impl CmKeyPart {
    /// Approximate stored size in bytes (bucket ordinals store one i64
    /// lower bound).
    pub fn size_bytes(&self) -> usize {
        match self {
            CmKeyPart::Raw(v) => v.size_bytes(),
            CmKeyPart::Bucket(_) => 8,
        }
    }
}

/// A full (possibly composite) CM key.
pub type CmKey = Box<[CmKeyPart]>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_truncation_matches_paper_example() {
        // §5.4 buckets 12.3°C into the 12–13° interval with width 1; with
        // pow2 widths, 4096-wide buckets group prices as in Experiment 1.
        let spec = BucketSpec::pow2(12); // width 4096
        assert_eq!(spec.bucket_of(&Value::Int(0)), Some(0));
        assert_eq!(spec.bucket_of(&Value::Int(4095)), Some(0));
        assert_eq!(spec.bucket_of(&Value::Int(4096)), Some(1));
        assert_eq!(spec.bucket_of(&Value::Int(-1)), Some(-1), "negatives floor");
    }

    #[test]
    fn float_temperatures_truncate() {
        let spec = BucketSpec::EquiWidth { origin: 0.0, width: 1.0 };
        assert_eq!(spec.key_part(&Value::float(12.3)), CmKeyPart::Bucket(12));
        assert_eq!(spec.key_part(&Value::float(12.7)), CmKeyPart::Bucket(12));
        assert_eq!(spec.key_part(&Value::float(14.4)), CmKeyPart::Bucket(14));
        assert_eq!(spec.key_part(&Value::float(17.8)), CmKeyPart::Bucket(17));
    }

    #[test]
    fn covering_spreads_domain() {
        // SDSS ra in [0, 360) with 2^12 buckets.
        let spec = BucketSpec::covering(0.0, 360.0, 1 << 12);
        assert_eq!(spec.bucket_of(&Value::float(0.0)), Some(0));
        let b_hi = spec.bucket_of(&Value::float(359.999)).unwrap();
        assert_eq!(b_hi, (1 << 12) - 1);
        // Monotone.
        let b1 = spec.bucket_of(&Value::float(100.0)).unwrap();
        let b2 = spec.bucket_of(&Value::float(200.0)).unwrap();
        assert!(b1 < b2);
    }

    #[test]
    fn unbucketed_keeps_raw_values() {
        let spec = BucketSpec::None;
        assert_eq!(spec.key_part(&Value::str("boston")), CmKeyPart::Raw(Value::str("boston")));
        assert_eq!(spec.key_part(&Value::Int(5)), CmKeyPart::Raw(Value::Int(5)));
        assert_eq!(spec.bucket_of(&Value::Int(5)), None);
        assert!(!spec.is_bucketed());
    }

    #[test]
    fn strings_pass_through_even_when_bucketed() {
        let spec = BucketSpec::pow2(4);
        assert_eq!(spec.key_part(&Value::str("MA")), CmKeyPart::Raw(Value::str("MA")));
    }

    #[test]
    fn dates_bucket_as_days() {
        // Month-ish buckets over dates (SQL Server's fixed scheme, which
        // the paper generalizes).
        let spec = BucketSpec::EquiWidth { origin: 0.0, width: 30.0 };
        assert_eq!(spec.bucket_of(&Value::Date(29)), Some(0));
        assert_eq!(spec.bucket_of(&Value::Date(30)), Some(1));
    }

    #[test]
    fn key_part_ordering_is_consistent_per_kind() {
        assert!(CmKeyPart::Bucket(1) < CmKeyPart::Bucket(2));
        assert!(CmKeyPart::Raw(Value::str("a")) < CmKeyPart::Raw(Value::str("b")));
    }

    #[test]
    fn size_accounting() {
        assert_eq!(CmKeyPart::Bucket(7).size_bytes(), 8);
        assert_eq!(CmKeyPart::Raw(Value::str("abc")).size_bytes(), 4);
    }

    #[test]
    #[should_panic(expected = "bucket count must be positive")]
    fn covering_rejects_zero_count() {
        BucketSpec::covering(0.0, 1.0, 0);
    }

    #[test]
    fn equi_depth_balances_skewed_sample() {
        // Heavy skew: 90% of mass at small values, a long tail above.
        let mut sample = Vec::new();
        for i in 0..900 {
            sample.push((i % 10) as f64);
        }
        for i in 0..100 {
            sample.push(1000.0 + i as f64 * 100.0);
        }
        let spec = BucketSpec::equi_depth_from_sample(&sample, 8);
        // Count rows per bucket: no bucket should hold more than ~3x the
        // fair share (equi-width would put 90% into one bucket).
        let mut counts = std::collections::HashMap::new();
        for &x in &sample {
            *counts.entry(spec.bucket_of(&Value::float(x)).unwrap()).or_insert(0u32) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(
            max <= 3 * (sample.len() as u32 / 8),
            "max bucket {max} of {} rows across {} buckets",
            sample.len(),
            counts.len()
        );
        assert!(spec.is_bucketed());
    }

    #[test]
    fn equi_depth_is_monotone_and_total() {
        let sample: Vec<f64> = (0..1000).map(|i| (i * i) as f64).collect();
        let spec = BucketSpec::equi_depth_from_sample(&sample, 16);
        let mut last = i64::MIN;
        for i in 0..1000 {
            let b = spec.bucket_of(&Value::float((i * i) as f64)).unwrap();
            assert!(b >= last, "bucket ids non-decreasing in value");
            last = b;
        }
        // Values outside the sampled domain still bucket (first/last are
        // open-ended).
        assert_eq!(spec.bucket_of(&Value::float(-1e12)), Some(0));
        assert!(spec.bucket_of(&Value::float(1e12)).unwrap() >= 15);
    }

    #[test]
    fn equi_depth_with_few_distinct_values_dedups_bounds() {
        let sample = vec![5.0; 100];
        let spec = BucketSpec::equi_depth_from_sample(&sample, 8);
        // All mass on one value: at most one distinct boundary survives.
        if let BucketSpec::EquiDepth { bounds } = &spec {
            assert!(bounds.len() <= 1);
        } else {
            panic!("expected EquiDepth");
        }
        assert!(spec.bucket_of(&Value::float(5.0)).is_some());
    }

    #[test]
    fn equi_depth_key_part_passes_strings_through() {
        let spec = BucketSpec::equi_depth_from_sample(&[1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(spec.key_part(&Value::str("MA")), CmKeyPart::Raw(Value::str("MA")));
        assert!(matches!(spec.key_part(&Value::float(1.5)), CmKeyPart::Bucket(_)));
    }
}
