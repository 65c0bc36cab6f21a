//! Clustered-attribute bucketing (paper §6.1.1).
//!
//! A many-valued clustered key would blow up the CM (each unclustered
//! value maps to many clustered values) and the rewritten queries (huge
//! `IN` lists). The paper's fix is a *bucket ID column*: during the
//! statistics scan, tuples are assigned to buckets of roughly `b` tuples,
//! extending each bucket until the clustered value changes so that **no
//! clustered value is split across buckets**. CMs then map unclustered
//! keys to bucket IDs, and a bucket resolves to one contiguous page range
//! — false positives cost only sequential I/O (Table 3).

use cm_storage::{null_bit, HeapFile, Rid};

/// The bucket-ID assignment over a clustered heap.
#[derive(Debug, Clone)]
pub struct BucketDirectory {
    /// `starts[i]` is the first RID of bucket `i`; bucket `i` covers
    /// `[starts[i], starts[i+1])` with the last bucket ending at
    /// `heap_len`.
    starts: Vec<u64>,
    heap_len: u64,
    tups_per_page: usize,
    target: u64,
    /// The sum over buckets of the pages each spans (a page two buckets
    /// share counts for both), kept by [`BucketDirectory::note_append`]
    /// so the planner's [`BucketDirectory::avg_pages_per_bucket`] is O(1).
    span_pages: u64,
}

impl BucketDirectory {
    /// Build over a heap clustered on `col` whose every slot is live,
    /// targeting `b` tuples per bucket (paper: "assigning tuples to
    /// bucket i ... once it has read b tuples ... continues until the
    /// value of the clustered attribute is no longer v"): the whole heap
    /// is the sorted prefix of [`BucketDirectory::restore`].
    pub fn build(heap: &HeapFile, col: usize, target_tuples_per_bucket: u64) -> Self {
        Self::restore(heap, col, target_tuples_per_bucket, heap.len(), |_| true)
    }

    /// A directory with exactly one bucket per page — the degenerate
    /// configuration used when comparing bucket sizes (Table 3, row 1).
    pub fn per_page(heap: &HeapFile, col: usize) -> Self {
        Self::build(heap, col, heap.tups_per_page() as u64)
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u32 {
        self.starts.len() as u32
    }

    /// Target tuples per bucket this directory was built with.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// The bucket containing a RID.
    ///
    /// # Panics
    /// Panics if the directory is empty or `rid` precedes the first
    /// bucket.
    pub fn bucket_of(&self, rid: Rid) -> u32 {
        debug_assert!(rid.0 < self.heap_len, "rid within heap");
        (self.starts.partition_point(|&s| s <= rid.0) - 1) as u32
    }

    /// RID range `[start, end)` of a bucket.
    pub fn rid_range(&self, bucket: u32) -> (u64, u64) {
        let i = bucket as usize;
        let start = self.starts[i];
        let end = self.starts.get(i + 1).copied().unwrap_or(self.heap_len);
        (start, end)
    }

    /// Inclusive page range a bucket occupies.
    pub fn page_range(&self, bucket: u32) -> (u64, u64) {
        let (start, end) = self.rid_range(bucket);
        let tpp = self.tups_per_page as u64;
        (start / tpp, (end - 1) / tpp)
    }

    /// Average heap pages per bucket — the `pages_per_group` input of the
    /// CM cost model.
    pub fn avg_pages_per_bucket(&self) -> f64 {
        if self.num_buckets() == 0 {
            return 0.0;
        }
        self.span_pages as f64 / self.num_buckets() as f64
    }

    /// The pages each bucket spans, summed bucket by bucket.
    fn count_span_pages(&self) -> u64 {
        (0..self.num_buckets())
            .map(|b| {
                let (lo, hi) = self.page_range(b);
                hi - lo + 1
            })
            .sum()
    }

    /// Register a heap append. Appended tuples extend the final bucket
    /// until it reaches the target size, then open fresh tail buckets —
    /// clustering degrades at the tail, exactly as for a once-`CLUSTER`ed
    /// table, but every RID keeps a valid bucket.
    pub fn note_append(&mut self, rid: Rid) {
        debug_assert_eq!(rid.0, self.heap_len, "appends are sequential");
        let opens = match self.starts.last() {
            None => true,
            Some(&last_start) => rid.0 - last_start >= self.target,
        };
        if opens {
            // A new bucket spans the page it opens on, shared or not.
            self.starts.push(rid.0);
            self.span_pages += 1;
        } else if rid.0.is_multiple_of(self.tups_per_page as u64) {
            // The last bucket grows onto a new page.
            self.span_pages += 1;
        }
        self.heap_len = rid.0 + 1;
    }

    /// Build a directory over a heap whose first `sorted_len` slots were
    /// bulk-loaded clustered on `col` and whose later slots were appended
    /// through [`BucketDirectory::note_append`]; `live` says which slots
    /// hold a row. The sorted prefix runs the paper's algorithm over its
    /// live rows, telling values apart by their column words (NULL by its
    /// bit), so no value is built. A dead slot counts toward its bucket's
    /// size but never closes a bucket, because its value is not a row's.
    /// The tail replays the append arithmetic. Every RID gets a valid,
    /// contiguous bucket, and on a heap no delete has touched this is
    /// exactly the directory the live table maintains.
    pub fn restore(
        heap: &HeapFile,
        col: usize,
        target: u64,
        sorted_len: u64,
        live: impl Fn(Rid) -> bool,
    ) -> Self {
        assert!(target > 0, "bucket target must be positive");
        let sorted_len = sorted_len.min(heap.len());
        let mut starts = Vec::new();
        if sorted_len > 0 {
            starts.push(0);
        }
        // Set, to the word of its last row (`None` for NULL), once the
        // open bucket holds `target` slots: the bucket closes at the next
        // live row with a different value.
        let mut boundary: Option<Option<u64>> = None;
        for page in heap.pages().take_while(|p| p.first_rid().0 < sorted_len) {
            let (words, nulls) = (page.column(col), page.nulls(col));
            for slot in 0..page.len() {
                let rid = page.rid(slot as u32);
                if rid.0 >= sorted_len || !live(rid) {
                    continue;
                }
                let word = (!nulls.is_some_and(|n| null_bit(n, slot))).then(|| words.word(slot));
                if boundary.is_some_and(|b| b != word) {
                    starts.push(rid.0);
                    boundary = None;
                }
                let start = *starts.last().expect("opened above");
                if boundary.is_none() && rid.0 - start + 1 >= target {
                    boundary = Some(word);
                }
            }
        }
        let mut dir = BucketDirectory {
            starts,
            heap_len: sorted_len,
            tups_per_page: heap.tups_per_page(),
            target,
            span_pages: 0,
        };
        dir.span_pages = dir.count_span_pages();
        for rid in sorted_len..heap.len() {
            dir.note_append(Rid(rid));
        }
        dir
    }

    /// Total rows covered.
    pub fn heap_len(&self) -> u64 {
        self.heap_len
    }

    /// Iterate bucket ids with their RID ranges.
    pub fn iter(&self) -> impl Iterator<Item = (u32, (u64, u64))> + '_ {
        (0..self.num_buckets()).map(|b| (b, self.rid_range(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_storage::{Column, DiskSim, Schema, Value, ValueType};
    use std::sync::Arc;

    fn heap_with_keys(disk: &DiskSim, keys: &[i64], tpp: usize) -> HeapFile {
        let schema = Arc::new(Schema::new(vec![Column::new("k", ValueType::Int)]));
        let rows = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
        HeapFile::bulk_load(disk, schema, rows, tpp).unwrap()
    }

    #[test]
    fn buckets_respect_target_size() {
        let disk = DiskSim::with_defaults();
        // 100 distinct values, one tuple each.
        let keys: Vec<i64> = (0..100).collect();
        let heap = heap_with_keys(&disk, &keys, 10);
        let dir = BucketDirectory::build(&heap, 0, 10);
        assert_eq!(dir.num_buckets(), 10);
        for (b, (lo, hi)) in dir.iter() {
            assert_eq!(hi - lo, 10, "bucket {b} has exactly the target size");
        }
    }

    #[test]
    fn clustered_values_are_never_split() {
        let disk = DiskSim::with_defaults();
        // Runs of 7 equal values; target 10 forces boundary stretching.
        let keys: Vec<i64> = (0..210).map(|i| i / 7).collect();
        let heap = heap_with_keys(&disk, &keys, 10);
        let dir = BucketDirectory::build(&heap, 0, 10);
        for (_, (lo, hi)) in dir.iter() {
            // A bucket boundary must coincide with a value change.
            if lo > 0 {
                let before = heap.peek(Rid(lo - 1)).unwrap()[0].clone();
                let first = heap.peek(Rid(lo)).unwrap()[0].clone();
                assert_ne!(before, first, "bucket boundary inside a value run");
            }
            assert!(hi > lo);
        }
    }

    #[test]
    fn one_giant_value_forms_one_giant_bucket() {
        let disk = DiskSim::with_defaults();
        let keys = vec![42i64; 1000];
        let heap = heap_with_keys(&disk, &keys, 10);
        let dir = BucketDirectory::build(&heap, 0, 50);
        assert_eq!(dir.num_buckets(), 1, "cannot split the single value");
        assert_eq!(dir.rid_range(0), (0, 1000));
    }

    #[test]
    fn bucket_of_is_inverse_of_rid_range() {
        let disk = DiskSim::with_defaults();
        let keys: Vec<i64> = (0..500).map(|i| i / 3).collect();
        let heap = heap_with_keys(&disk, &keys, 16);
        let dir = BucketDirectory::build(&heap, 0, 20);
        for (b, (lo, hi)) in dir.iter() {
            assert_eq!(dir.bucket_of(Rid(lo)), b);
            assert_eq!(dir.bucket_of(Rid(hi - 1)), b);
        }
    }

    #[test]
    fn page_ranges_are_contiguous_and_cover_heap() {
        let disk = DiskSim::with_defaults();
        let keys: Vec<i64> = (0..1000).map(|i| i / 4).collect();
        let heap = heap_with_keys(&disk, &keys, 25);
        let dir = BucketDirectory::build(&heap, 0, 100);
        let (first_lo, _) = dir.page_range(0);
        assert_eq!(first_lo, 0);
        let (_, last_hi) = dir.page_range(dir.num_buckets() - 1);
        assert_eq!(last_hi, heap.num_pages() - 1);
    }

    #[test]
    fn avg_pages_tracks_target() {
        let disk = DiskSim::with_defaults();
        let keys: Vec<i64> = (0..10_000).collect();
        let heap = heap_with_keys(&disk, &keys, 100);
        // Target 1000 tuples/bucket = 10 pages/bucket (the §6.1.1 sweet
        // spot).
        let dir = BucketDirectory::build(&heap, 0, 1000);
        let avg = dir.avg_pages_per_bucket();
        assert!((9.0..=11.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn appends_extend_then_open_buckets() {
        let disk = DiskSim::with_defaults();
        let keys: Vec<i64> = (0..95).collect();
        let heap = heap_with_keys(&disk, &keys, 10);
        let mut dir = BucketDirectory::build(&heap, 0, 50);
        let before = dir.num_buckets();
        // Five appends top off the trailing bucket (45 → 50)...
        for r in 95..100 {
            dir.note_append(Rid(r));
        }
        assert_eq!(dir.num_buckets(), before);
        // ...the next append opens a new bucket.
        dir.note_append(Rid(100));
        assert_eq!(dir.num_buckets(), before + 1);
        assert_eq!(dir.bucket_of(Rid(100)), dir.num_buckets() - 1);
    }

    #[test]
    fn per_page_directory_matches_page_count() {
        let disk = DiskSim::with_defaults();
        let keys: Vec<i64> = (0..300).collect();
        let heap = heap_with_keys(&disk, &keys, 30);
        let dir = BucketDirectory::per_page(&heap, 0);
        assert_eq!(dir.num_buckets() as u64, heap.num_pages());
    }

    #[test]
    fn restore_matches_build_on_a_pristine_heap() {
        let disk = DiskSim::with_defaults();
        // A live table: 300 sorted rows built, then 90 appended.
        let keys: Vec<i64> = (0..390).map(|i| if i < 300 { i / 7 } else { i % 5 }).collect();
        let mut built = BucketDirectory::build(&heap_with_keys(&disk, &keys[..300], 10), 0, 25);
        for rid in 300..390 {
            built.note_append(Rid(rid));
        }
        let heap = heap_with_keys(&disk, &keys, 10);
        let restored = BucketDirectory::restore(&heap, 0, 25, 300, |_| true);
        assert_eq!(built.num_buckets(), restored.num_buckets());
        for (b, range) in built.iter() {
            assert_eq!(restored.rid_range(b), range);
        }
    }

    #[test]
    fn restore_covers_tombstones_and_appended_tail() {
        let disk = DiskSim::with_defaults();
        let mut keys: Vec<i64> = (0..100).map(|i| i / 4).collect();
        keys.extend(1000..1030);
        let heap = heap_with_keys(&disk, &keys, 10);
        // Kill a scattering of the sorted prefix; the tail was appended.
        // The dead slots keep their values: liveness is the caller's.
        let dead = [3u64, 4, 5, 39, 40, 41, 42, 43, 98];
        let live = |rid: Rid| !dead.contains(&rid.0);
        let dir = BucketDirectory::restore(&heap, 0, 20, 100, live);
        assert_eq!(dir.heap_len(), heap.len());
        // Every rid has a bucket and ranges tile the heap contiguously.
        let mut expect_lo = 0;
        for (b, (lo, hi)) in dir.iter() {
            assert_eq!(lo, expect_lo, "bucket {b} contiguous");
            assert!(hi > lo);
            for r in lo..hi {
                assert_eq!(dir.bucket_of(Rid(r)), b);
            }
            // A prefix bucket opens on a live row whose value differs
            // from the previous live row's.
            if lo > 0 && lo < 100 {
                assert!(live(Rid(lo)), "bucket {b} opens on a dead slot");
                let prev = (0..lo).rev().find(|&r| live(Rid(r))).unwrap();
                assert_ne!(keys[prev as usize], keys[lo as usize], "bucket {b} splits a value");
            }
            expect_lo = hi;
        }
        assert_eq!(expect_lo, heap.len());
    }

    #[test]
    fn running_page_total_matches_the_bucket_by_bucket_sum() {
        let disk = DiskSim::with_defaults();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let check = |dir: &BucketDirectory| {
            assert_eq!(dir.span_pages, dir.count_span_pages());
            let sum = dir.count_span_pages() as f64 / dir.num_buckets().max(1) as f64;
            let want = if dir.num_buckets() == 0 { 0.0 } else { sum };
            assert_eq!(dir.avg_pages_per_bucket().to_bits(), want.to_bits());
        };
        for _ in 0..200 {
            let tpp = 1 + next(12) as usize;
            // Runs of equal keys stretch buckets past their target, so
            // tail buckets open at any offset of a page.
            let keys: Vec<i64> = (0..next(300)).map(|i| (i / (1 + next(5))) as i64).collect();
            let heap = heap_with_keys(&disk, &keys, tpp);
            let mut dirs = vec![BucketDirectory::per_page(&heap, 0)];
            if !keys.is_empty() {
                let sorted = next(keys.len() as u64 + 1);
                let dead = next(7) + 2;
                let live = |rid: Rid| !rid.0.is_multiple_of(dead);
                dirs.push(BucketDirectory::restore(&heap, 0, 1 + next(40), sorted, live));
            }
            dirs.push(BucketDirectory::build(&heap, 0, 1 + next(40)));
            for mut dir in dirs {
                check(&dir);
                for rid in keys.len() as u64..keys.len() as u64 + next(200) {
                    dir.note_append(Rid(rid));
                    check(&dir);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bucket target must be positive")]
    fn zero_target_rejected() {
        let disk = DiskSim::with_defaults();
        let heap = heap_with_keys(&disk, &[1, 2, 3], 2);
        BucketDirectory::build(&heap, 0, 0);
    }
}
