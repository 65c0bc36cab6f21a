//! Frequency tables over samples.

use std::collections::HashMap;
use std::hash::Hash;

/// Counts occurrences of sampled keys and derives the frequency-of-
/// frequency profile (`f_j` = number of keys seen exactly `j` times) that
/// the sample-based distinct-value estimators consume.
#[derive(Debug, Clone)]
pub struct FreqTable<K: Eq + Hash> {
    counts: HashMap<K, u64>,
}

impl<K: Eq + Hash> Default for FreqTable<K> {
    fn default() -> Self {
        FreqTable { counts: HashMap::new() }
    }
}

impl<K: Eq + Hash> FreqTable<K> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one observation.
    pub fn observe(&mut self, key: K) {
        *self.counts.entry(key).or_insert(0) += 1;
    }

    /// Frequency-of-frequency profile: `result[j]` = number of keys seen
    /// exactly `j + 1` times.
    pub fn freq_of_freq(&self) -> Vec<u64> {
        let max = self.counts.values().copied().max().unwrap_or(0) as usize;
        let mut f = vec![0u64; max];
        for &c in self.counts.values() {
            f[c as usize - 1] += 1;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_profile() {
        let mut t = FreqTable::new();
        for k in ["a", "b", "a", "c", "a", "b"] {
            t.observe(k);
        }
        // f_1 = 1 ("c"), f_2 = 1 ("b"), f_3 = 1 ("a"): 3 keys, 6 rows.
        assert_eq!(t.freq_of_freq(), vec![1, 1, 1]);
    }

    #[test]
    fn empty_table() {
        let t: FreqTable<u32> = FreqTable::new();
        assert!(t.freq_of_freq().is_empty());
    }

    #[test]
    fn all_unique() {
        let mut t = FreqTable::new();
        for i in 0..10u32 {
            t.observe(i);
        }
        assert_eq!(t.freq_of_freq(), vec![10], "ten singletons");
    }
}
