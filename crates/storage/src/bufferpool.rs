//! Capacity-bounded buffer pool with dirty write-back.
//!
//! Experiment 3 of the paper hinges on buffer-pool mechanics: every extra
//! secondary B+Tree makes each INSERT dirty more pages than fit in RAM, so
//! evictions force random page writes and throughput collapses (29
//! tuples/s with 10 B+Trees vs. 900 with 10 CMs). CMs survive because they
//! are small enough to stay resident. [`BufferPool`] reproduces exactly
//! that mechanism: a cache of `(file, page)` frames evicted by a
//! second-chance clock (a hit sets the frame's reference bit; the hand
//! clears set bits and evicts the first clear frame it meets); hits are
//! free, misses charge a disk read, and evicting a dirty frame charges a
//! disk write.

use crate::disk::{DiskSim, FileId, IoStats, PageAccessor};
use crate::hash::FxHashMap;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Counters describing pool behaviour during a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses served from the pool.
    pub hits: u64,
    /// Accesses that had to read from disk.
    pub misses: u64,
    /// Dirty frames written back on eviction.
    pub dirty_evictions: u64,
    /// Clean frames dropped on eviction.
    pub clean_evictions: u64,
}

impl PoolStats {
    /// `self - earlier`, for snapshot-delta reporting.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            dirty_evictions: self.dirty_evictions - earlier.dirty_evictions,
            clean_evictions: self.clean_evictions - earlier.clean_evictions,
        }
    }

    /// Accumulate another stats delta into this one.
    pub fn add(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.dirty_evictions += other.dirty_evictions;
        self.clean_evictions += other.clean_evictions;
    }

    /// Fraction of accesses served without disk I/O (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    dirty: bool,
    /// Clock reference bit (second-chance eviction, like PostgreSQL's
    /// clock-sweep — cheap and scan-resistant enough for the experiments).
    referenced: bool,
}

struct PoolState {
    frames: FxHashMap<(FileId, u64), Frame>,
    /// Clock order of resident frames.
    clock: VecDeque<(FileId, u64)>,
    stats: PoolStats,
}

/// A page cache in front of the simulated disk.
pub struct BufferPool {
    disk: Arc<DiskSim>,
    capacity: usize,
    state: Mutex<PoolState>,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    pub fn new(disk: Arc<DiskSim>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        BufferPool {
            disk,
            capacity,
            state: Mutex::new(PoolState {
                frames: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
                clock: VecDeque::with_capacity(capacity),
                stats: PoolStats::default(),
            }),
        }
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().stats
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.state.lock().frames.len()
    }

    /// Drop every frame, writing dirty ones back (used between experiment
    /// trials to mimic the paper's cache flushing; returns the I/O charged).
    pub fn flush_all(&self) -> IoStats {
        let before = self.disk.stats();
        let mut st = self.state.lock();
        let mut dirty: Vec<(FileId, u64)> = st
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(k, _)| *k)
            .collect();
        // Background writer behaviour: flush in file/page order and write
        // each maximal contiguous run vectored, so checkpoint write-back
        // prices one seek per run — and stays that way even when other
        // sessions are hammering the same disk.
        dirty.sort();
        for file_group in dirty.chunk_by(|a, b| a.0 == b.0) {
            let file = file_group[0].0;
            let pages: Vec<u64> = file_group.iter().map(|&(_, p)| p).collect();
            crate::disk::for_each_page_run(&pages, |lo, hi| {
                self.disk.write_run(file, lo, hi);
            });
        }
        st.frames.clear();
        st.clock.clear();
        self.disk.stats().since(&before)
    }

    fn access(&self, file: FileId, page: u64, mark_dirty: bool) {
        self.access_run(file, page, page, mark_dirty);
    }

    /// Serve the contiguous run `lo..=hi` under **one** pool lock:
    /// resident pages are hits, each maximal non-resident sub-run is
    /// charged as a single vectored disk read (readahead), and the
    /// faulted frames are admitted with the usual clock eviction.
    ///
    /// The per-page behaviour (hit/miss classification, eviction victims,
    /// and — single-threaded — even the disk pricing) is bit-identical to
    /// calling [`BufferPool::read`]/[`BufferPool::write`] page by page;
    /// what the run adds is atomicity: neither the pool state nor the
    /// disk head can be interleaved by a concurrent session mid-run.
    fn access_run(&self, file: FileId, lo: u64, hi: u64, mark_dirty: bool) {
        assert!(lo <= hi, "run bounds inverted: {lo}..={hi}");
        let mut st = self.state.lock();
        // Start of the current miss sub-run whose disk read is deferred
        // (batched). Invariant: when `Some(s)`, every page in `s..=page`
        // is a miss of this run that has been counted but not charged.
        let mut pending: Option<u64> = None;
        for page in lo..=hi {
            if let Some(frame) = st.frames.get_mut(&(file, page)) {
                frame.referenced = true;
                frame.dirty |= mark_dirty;
                st.stats.hits += 1;
                if let Some(s) = pending.take() {
                    self.disk.read_run(file, s, page - 1);
                }
                continue;
            }
            st.stats.misses += 1;
            // Fault the page in (charged with its sub-run; a write to a
            // non-resident page still reads it first — read-modify-write
            // of a slotted page). Then make room.
            pending.get_or_insert(page);
            while st.frames.len() >= self.capacity {
                let victim = st
                    .clock
                    .pop_front()
                    .expect("clock queue tracks every resident frame");
                let frame = st.frames.get_mut(&victim).expect("clock entry is resident");
                if frame.referenced {
                    frame.referenced = false;
                    st.clock.push_back(victim);
                    continue;
                }
                let frame = st.frames.remove(&victim).expect("checked above");
                if frame.dirty {
                    st.stats.dirty_evictions += 1;
                    // The write-back splits the read run: charge the
                    // pending reads (whose fault-ins precede the
                    // eviction) before moving the head to the victim.
                    if let Some(s) = pending.take() {
                        self.disk.read_run(file, s, page);
                    }
                    self.disk.write(victim.0, victim.1);
                } else {
                    st.stats.clean_evictions += 1;
                }
            }
            st.frames.insert((file, page), Frame { dirty: mark_dirty, referenced: true });
            st.clock.push_back((file, page));
        }
        if let Some(s) = pending {
            self.disk.read_run(file, s, hi);
        }
    }
}

impl PageAccessor for BufferPool {
    fn read(&self, file: FileId, page: u64) {
        self.access(file, page, false);
    }

    fn write(&self, file: FileId, page: u64) {
        self.access(file, page, true);
    }

    fn read_run(&self, file: FileId, lo: u64, hi: u64) {
        self.access_run(file, lo, hi, false);
    }

    fn write_run(&self, file: FileId, lo: u64, hi: u64) {
        self.access_run(file, lo, hi, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_are_free() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 8);
        let f = disk.alloc_file();
        pool.read(f, 0);
        let after_first = disk.stats();
        pool.read(f, 0);
        pool.read(f, 0);
        assert_eq!(disk.stats(), after_first, "repeat reads never touch disk");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn capacity_bound_is_respected() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 4);
        let f = disk.alloc_file();
        for p in 0..20 {
            pool.read(f, p);
        }
        assert!(pool.resident() <= 4);
        assert_eq!(pool.stats().misses, 20);
    }

    #[test]
    fn clean_evictions_cost_nothing_extra() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 2);
        let f = disk.alloc_file();
        for p in 0..10 {
            pool.read(f, p);
        }
        assert_eq!(disk.stats().page_writes, 0);
        assert_eq!(pool.stats().clean_evictions, 8);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 2);
        let f = disk.alloc_file();
        pool.write(f, 0);
        pool.write(f, 1);
        // Fill past capacity with clean reads; the dirty frames must be
        // written out as they are evicted.
        for p in 2..6 {
            pool.read(f, p);
        }
        assert_eq!(pool.stats().dirty_evictions, 2);
        assert_eq!(disk.stats().page_writes, 2);
    }

    #[test]
    fn second_chance_protects_rereferenced_pages() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 3);
        let f = disk.alloc_file();
        pool.read(f, 0);
        pool.read(f, 1);
        pool.read(f, 2);
        // Fault page 3: the sweep clears all reference bits and evicts the
        // oldest frame (0). Clock order is now 1, 2, 3 with only 3 marked.
        pool.read(f, 3);
        // Re-reference 1 so it earns a second chance.
        pool.read(f, 1);
        // Fault page 4: the sweep skips 1 (referenced) and evicts 2.
        pool.read(f, 4);
        let before = disk.stats();
        pool.read(f, 1);
        assert_eq!(disk.stats(), before, "re-referenced page still resident");
        let after = disk.stats();
        pool.read(f, 2);
        assert_ne!(disk.stats(), after, "page 2 was the eviction victim");
    }

    #[test]
    fn flush_all_writes_dirty_frames_in_order() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 8);
        let f = disk.alloc_file();
        pool.write(f, 5);
        pool.write(f, 3);
        pool.write(f, 4);
        pool.read(f, 6);
        let io = pool.flush_all();
        assert_eq!(io.page_writes, 3);
        // 3,4,5 are contiguous: one seek then sequential.
        assert!((io.elapsed_ms - (5.5 + 2.0 * 0.078)).abs() < 1e-9);
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn read_run_splits_hits_and_miss_sub_runs() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 16);
        let f = disk.alloc_file();
        // Warm pages 3 and 4.
        pool.read(f, 3);
        pool.read(f, 4);
        let io_before = disk.stats();
        let ps_before = pool.stats();
        pool.read_run(f, 0, 9);
        let io = disk.stats().since(&io_before);
        let ps = pool.stats().since(&ps_before);
        assert_eq!((ps.hits, ps.misses), (2, 8));
        assert_eq!(io.pages(), 8, "resident pages charge nothing");
        // Two vectored miss sub-runs reach the disk: 0..=2 and 5..=9.
        // (0 is a backward seek, 5 continues from 2 as a read-through.)
        assert_eq!(io.seeks + io.seq_reads, 8);
        // A fully-resident run is all hits, no I/O.
        let before = disk.stats();
        pool.read_run(f, 0, 9);
        assert_eq!(disk.stats(), before);
        assert_eq!(pool.stats().since(&ps_before).hits, 2 + 10);
    }

    #[test]
    fn read_run_matches_per_page_pool_exactly() {
        // Hit/miss classification, eviction victims, disk page counts and
        // (single-threaded) pricing are identical to per-page access —
        // the vectored path changes atomicity, not behaviour.
        let run_disk = DiskSim::with_defaults();
        let page_disk = DiskSim::with_defaults();
        let run_pool = BufferPool::new(run_disk.clone(), 6);
        let page_pool = BufferPool::new(page_disk.clone(), 6);
        let fr = run_disk.alloc_file();
        let fp = page_disk.alloc_file();
        let sweeps: [(u64, u64, bool); 5] =
            [(0, 9, false), (4, 12, true), (2, 7, false), (0, 15, false), (5, 6, true)];
        for &(lo, hi, dirty) in &sweeps {
            if dirty {
                run_pool.write_run(fr, lo, hi);
                for p in lo..=hi {
                    page_pool.write(fp, p);
                }
            } else {
                run_pool.read_run(fr, lo, hi);
                for p in lo..=hi {
                    page_pool.read(fp, p);
                }
            }
            assert_eq!(run_pool.stats(), page_pool.stats(), "after {lo}..={hi}");
            let (a, b) = (run_disk.stats(), page_disk.stats());
            assert_eq!(
                (a.seeks, a.seq_reads, a.page_writes, a.write_seeks),
                (b.seeks, b.seq_reads, b.page_writes, b.write_seeks),
                "after {lo}..={hi}"
            );
            assert!((a.elapsed_ms - b.elapsed_ms).abs() < 1e-9, "after {lo}..={hi}");
        }
    }

    #[test]
    fn run_larger_than_capacity_still_admits_and_charges_once() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 4);
        let f = disk.alloc_file();
        pool.read_run(f, 0, 19);
        let s = disk.stats();
        assert_eq!(s.seeks, 1, "one vectored read for the whole run");
        assert_eq!(s.seq_reads, 19);
        assert!(pool.resident() <= 4);
        assert_eq!(pool.stats().misses, 20);
        assert_eq!(pool.stats().clean_evictions, 16);
    }

    #[test]
    fn flush_all_writes_runs_not_frames() {
        // Regression (checkpoint write-back): contiguous dirty frames
        // must flush as vectored runs — far fewer write seeks than
        // frames, even though the dirty set was produced out of order.
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 32);
        let f = disk.alloc_file();
        for page in [504u64, 500, 502, 501, 503, 2, 1, 0] {
            pool.write(f, page);
        }
        // A second file's dirty pages form their own run.
        let g = disk.alloc_file();
        pool.write(g, 100);
        pool.write(g, 101);
        disk.reset();
        let io = pool.flush_all();
        assert_eq!(io.page_writes, 10);
        assert!(
            io.write_seeks < io.page_writes,
            "vectored flush: {} write seeks for {} frames",
            io.write_seeks,
            io.page_writes
        );
        // One seek per contiguous run: {0..=2}, {500..=504}, {100..=101}.
        assert_eq!(io.write_seeks, 3);
    }

    #[test]
    fn write_to_cached_page_marks_dirty_without_io() {
        let disk = DiskSim::with_defaults();
        let pool = BufferPool::new(disk.clone(), 8);
        let f = disk.alloc_file();
        pool.read(f, 0);
        let before = disk.stats();
        pool.write(f, 0); // hit: becomes dirty, no disk traffic
        assert_eq!(disk.stats(), before);
        let io = pool.flush_all();
        assert_eq!(io.page_writes, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let disk = DiskSim::with_defaults();
        let _ = BufferPool::new(disk, 0);
    }
}
