//! Property test of the heap's copy-on-write segments: a [`HeapImage`]
//! shares the live heap's segments until the heap writes them, and no
//! write to the heap ever shows through an image.
//!
//! Each case bulk-loads a heap of up to four [`SEGMENT_PAGES`] segments
//! (small pages, so segments are small and a partial tail segment is
//! common), images it, then runs random appends, recovery restores into
//! any segment and tombstone appends on the live heap, taking more images
//! as it goes. (A delete writes no heap value, so it has no place here:
//! `horizon_prop` checks that deletes and vacuums leave images shared.
//! A restore of the row a slot already holds writes nothing either.)
//! It checks:
//!
//! * an image taken right after load shares every segment
//!   ([`HeapImage::bytes_apart_from`] is 0), and every image's
//!   [`HeapImage::bytes`] is its slots' exact size;
//! * every image's column words, null bitmaps and null counts are those
//!   of the moment it was taken, however the heap was written since;
//! * the bytes an image does not share with the heap are exactly those
//!   of the image's segments the heap has written since it was taken —
//!   so never more than that, and an unwritten segment is never copied;
//! * the live heap reads back as a `Vec<Row>` model of the writes.
//!
//! Case count is `HEAP_PROP_CASES` (default 96), the setting of the other
//! page-level property tests, so CI raises them together.

use cm_storage::{
    Column, DiskSim, HeapFile, HeapImage, Rid, Row, Schema, Value, ValueType, SEGMENT_PAGES,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn cases() -> ProptestConfig {
    let cases = std::env::var("HEAP_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96);
    ProptestConfig::with_cases(cases)
}

const TYPES: [ValueType; 4] = [ValueType::Str, ValueType::Int, ValueType::Date, ValueType::Float];

fn schema(arity: usize) -> Arc<Schema> {
    let cols = TYPES.iter().enumerate().map(|(i, &ty)| Column::new(format!("c{i}"), ty));
    Arc::new(Schema::new(cols.take(arity).collect()))
}

/// A row with NULLs in any column, some rows all NULL.
fn row(arity: usize, seed: u64) -> Row {
    let null = |k: u64| (seed >> k).is_multiple_of(4);
    let full = [
        if null(0) { Value::Null } else { Value::str(format!("s{}", seed % 11)) },
        if null(8) { Value::Null } else { Value::Int(seed as i64 % 1000 - 500) },
        if null(16) { Value::Null } else { Value::Date((seed % 300) as i32 - 150) },
        if null(24) { Value::Null } else { Value::float(f64::from_bits(seed >> 2)) },
    ];
    full[..arity].to_vec()
}

/// Whether two rows are the same stored values: `==`, and for floats
/// the same bits.
fn same_row(a: &[Value], b: &[Value]) -> bool {
    let same = |(x, y): (&Value, &Value)| match (x, y) {
        (Value::Float(x), Value::Float(y)) => x.0.to_bits() == y.0.to_bits(),
        _ => x == y,
    };
    a.len() == b.len() && a.iter().zip(b).all(same)
}

/// Bytes a heap of `len` slots takes in segment `seg`: typed values,
/// null bitmaps and page null counts.
fn segment_bytes(schema: &Schema, tpp: usize, len: usize, seg: usize) -> usize {
    let seg_slots = SEGMENT_PAGES * tpp;
    let slots = len.min((seg + 1) * seg_slots).saturating_sub(seg * seg_slots);
    let per_slot: usize = schema
        .columns()
        .iter()
        .map(|c| match c.ty {
            ValueType::Int | ValueType::Float => 8,
            ValueType::Date | ValueType::Str => 4,
        })
        .sum();
    let per_page = schema.arity() * (tpp.div_ceil(64) * 8 + 4);
    slots * per_slot + slots.div_ceil(tpp) * per_page
}

/// One page column as stored: every slot's word, the null bitmap a
/// reader is handed, and the null count.
type PageColumn = (Vec<u64>, Option<Vec<u64>>, u32);

/// What a heap stores, page by page and column by column. Strings are
/// compared by code: an image keeps the codes it was taken with.
fn contents(heap: &HeapFile) -> Vec<Vec<PageColumn>> {
    let arity = heap.schema().arity();
    heap.pages()
        .map(|p| {
            (0..arity)
                .map(|c| {
                    let col = p.column(c);
                    let words = (0..p.len()).map(|s| col.word(s)).collect();
                    (words, p.nulls(c).map(<[u64]>::to_vec), p.null_count(c))
                })
                .collect()
        })
        .collect()
}

/// `image` read back through a heap that adopts (and so shares) its
/// segments.
fn image_contents(schema: &Arc<Schema>, image: &HeapImage) -> Vec<Vec<PageColumn>> {
    contents(&HeapFile::from_image(&DiskSim::with_defaults(), schema.clone(), image.clone()))
}

/// One image under test: the image, its length, dictionary size and
/// contents when taken, and the segments the heap has written since.
struct Taken {
    image: HeapImage,
    len: usize,
    strings: usize,
    contents: Vec<Vec<PageColumn>>,
    written: BTreeSet<usize>,
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn images_share_unwritten_segments_and_never_see_a_write(
        arity in 1usize..5,
        tpp in 1usize..9,
        loaded_pages in 0usize..4 * SEGMENT_PAGES,
        partial in 0usize..9,
        ops in prop::collection::vec((0u8..6, any::<u64>()), 0..60),
    ) {
        let schema = schema(arity);
        let disk = DiskSim::with_defaults();
        let loaded = loaded_pages * tpp + partial % tpp;
        let mut model: Vec<Row> = (0..loaded as u64).map(|i| row(arity, i * 7919)).collect();
        let mut heap = HeapFile::bulk_load(&disk, schema.clone(), model.clone(), tpp).unwrap();
        let seg_of = |rid: usize| rid / tpp / SEGMENT_PAGES;
        let take = |heap: &HeapFile| Taken {
            image: heap.image(),
            len: heap.len() as usize,
            strings: heap.dict().len(),
            contents: contents(heap),
            written: BTreeSet::new(),
        };
        let first = take(&heap);
        prop_assert_eq!(first.image.bytes_apart_from(&heap), 0, "a fresh image shares everything");
        let mut images = vec![first];
        let null_row = vec![Value::Null; arity];

        for (op, x) in ops {
            let len = model.len();
            // Which slots the op writes.
            let mut wrote: Vec<usize> = Vec::new();
            match op {
                0 => {
                    heap.append(disk.as_ref(), row(arity, x)).unwrap();
                    model.push(row(arity, x));
                    wrote.push(len);
                }
                1 if len > 0 => {
                    let rid = x as usize % len;
                    heap.restore_row(disk.as_ref(), Rid(rid as u64), &row(arity, x)).unwrap();
                    // A slot that already holds the row is not written.
                    if !same_row(&model[rid], &row(arity, x)) {
                        model[rid] = row(arity, x);
                        wrote.push(rid);
                    }
                }
                2 => {
                    heap.append_tombstone();
                    model.push(null_row.clone());
                    wrote.push(len);
                }
                3 if images.len() < 4 => images.push(take(&heap)),
                _ => {
                    for t in &images {
                        prop_assert_eq!(&image_contents(&schema, &t.image), &t.contents);
                    }
                }
            }
            for t in &mut images {
                t.written.extend(wrote.iter().map(|&rid| seg_of(rid)));
                let written: usize = t
                    .written
                    .iter()
                    .map(|&s| segment_bytes(&schema, tpp, t.len, s))
                    .sum();
                prop_assert_eq!(t.image.bytes_apart_from(&heap), written, "bytes apart");
                let all: usize = (0..t.len.div_ceil(tpp).div_ceil(SEGMENT_PAGES))
                    .map(|s| segment_bytes(&schema, tpp, t.len, s))
                    .sum();
                let strings = t.strings * std::mem::size_of::<Arc<str>>();
                prop_assert_eq!(t.image.bytes(), all + strings, "image bytes");
            }
        }

        for t in &images {
            prop_assert_eq!(&image_contents(&schema, &t.image), &t.contents, "image changed");
        }
        prop_assert_eq!(heap.len(), model.len() as u64);
        for (i, want) in model.iter().enumerate() {
            let got = heap.peek(Rid(i as u64)).unwrap();
            prop_assert!(same_row(&got, want), "rid {}: {:?} vs {:?}", i, got, want);
        }
    }
}
