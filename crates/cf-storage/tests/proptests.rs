//! Property-based tests: the storage stack must behave like a flat
//! byte array regardless of pool capacity, eviction pattern, or backing.

use cf_storage::{
    CellFile, CfError, KvRecord, PageCodec, PageId, RecordFile, StorageConfig, StorageEngine,
    PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Range;

#[derive(Debug, Clone)]
enum Op {
    Write { page: usize, tag: u8 },
    Read { page: usize },
    ClearCache,
}

fn op(pages: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..pages, any::<u8>()).prop_map(|(page, tag)| Op::Write { page, tag }),
        3 => (0..pages).prop_map(|page| Op::Read { page }),
        1 => Just(Op::ClearCache),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_is_transparent(
        pool_pages in 1usize..8,
        ops in prop::collection::vec(op(12), 1..80),
    ) {
        let engine = StorageEngine::new(StorageConfig {
            pool_pages,
            ..Default::default()
        });
        let ids: Vec<PageId> = (0..12).map(|_| engine.allocate_page().expect("allocate")).collect();
        // Model: expected first byte per page.
        let mut model = [0u8; 12];
        for op in ops {
            match op {
                Op::Write { page, tag } => {
                    let mut buf = [0u8; PAGE_SIZE];
                    buf[0] = tag;
                    buf[PAGE_SIZE - 1] = tag.wrapping_add(1);
                    engine.write_page(ids[page], &buf).expect("write");
                    model[page] = tag;
                }
                Op::Read { page } => {
                    let (a, b) = engine.with_page(ids[page], |p| (p[0], p[PAGE_SIZE - 1])).expect("read");
                    prop_assert_eq!(a, model[page]);
                    let want_b = if model[page] == 0 && b == 0 {
                        0
                    } else {
                        model[page].wrapping_add(1)
                    };
                    prop_assert_eq!(b, want_b);
                }
                Op::ClearCache => engine.clear_cache(),
            }
        }
        // Cold re-read of every page matches the model.
        engine.clear_cache();
        for (i, &id) in ids.iter().enumerate() {
            let a = engine.with_page(id, |p| p[0]).expect("read");
            prop_assert_eq!(a, model[i]);
        }
    }

    #[test]
    fn record_file_random_access(
        len in 1usize..1500,
        probes in prop::collection::vec(any::<usize>(), 1..30),
        puts in prop::collection::vec((any::<usize>(), any::<u64>()), 0..10),
    ) {
        let engine = StorageEngine::in_memory();
        let records: Vec<KvRecord> = (0..len)
            .map(|i| KvRecord { key: i as u64, value: -(i as f64) })
            .collect();
        let file = RecordFile::create(&engine, records).expect("create");
        let mut model: Vec<u64> = (0..len as u64).collect();

        for (idx, key) in puts {
            let idx = idx % len;
            file.put(&engine, idx, &KvRecord { key, value: 0.0 }).expect("put");
            model[idx] = key;
        }
        for probe in probes {
            let idx = probe % len;
            prop_assert_eq!(file.get(&engine, idx).expect("get").key, model[idx]);
        }
        // Range scans agree with point reads after updates.
        let mid = len / 2;
        let scanned = file.read_range(&engine, 0..mid).expect("scan");
        for (i, r) in scanned.iter().enumerate() {
            prop_assert_eq!(r.key, model[i]);
        }
    }

    #[test]
    fn range_sweep_equals_point_reads_on_both_codecs(
        len in 1usize..3000,
        compressed in any::<bool>(),
        cuts in prop::collection::vec(any::<usize>(), 0..24),
        puts in prop::collection::vec((any::<usize>(), any::<u64>()), 0..10),
    ) {
        let codec = if compressed { PageCodec::Compressed } else { PageCodec::Raw };
        let engine = StorageEngine::new(StorageConfig { codec, ..Default::default() });
        let mut model: Vec<KvRecord> = (0..len)
            .map(|i| KvRecord { key: 3 * i as u64, value: -(i as f64) })
            .collect();
        let file = CellFile::create(&engine, model.clone()).expect("create");
        prop_assert_eq!(file.codec(), codec);
        for (idx, key) in puts {
            let idx = idx % len;
            let rec = KvRecord { key, value: 0.5 };
            match file.put(&engine, idx, &rec) {
                Ok(()) => model[idx] = rec,
                // A compressed page out of slack refuses the update
                // and stays as it was.
                Err(CfError::PageFull { .. }) => prop_assert!(compressed),
                Err(e) => panic!("put: {e}"),
            }
        }

        // Sorted cut points pair up into sorted, disjoint — possibly
        // touching, possibly empty — ranges.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
        cuts.sort_unstable();
        let ranges: Vec<Range<usize>> = cuts.chunks_exact(2).map(|c| c[0]..c[1]).collect();

        engine.reset_stats();
        let mut swept = Vec::new();
        file.for_each_in_ranges(&engine, &ranges, |idx, rec| swept.push((idx, rec))).expect("sweep");
        let reads = engine.io_stats().logical_reads();

        // Exactly what per-index `get` yields, in ascending order.
        let want: Vec<usize> = ranges.iter().cloned().flatten().collect();
        prop_assert_eq!(swept.len(), want.len());
        for (&(idx, rec), &w) in swept.iter().zip(&want) {
            prop_assert_eq!(idx, w);
            prop_assert_eq!(rec, model[idx]);
            prop_assert_eq!(rec, file.get(&engine, idx).expect("get"));
        }

        // One logical read per distinct data page the ranges touch…
        let page_of = |idx: usize| file.pages_in_range(0..idx + 1) - 1;
        let pages: BTreeSet<usize> = want.iter().map(|&idx| page_of(idx)).collect();
        prop_assert_eq!(reads, pages.len() as u64);
        // …which is the sum of `pages_in_range` over the page-groups
        // (maximal runs of ranges whose page spans touch or overlap).
        let mut grouped = 0;
        let mut group: Option<Range<usize>> = None;
        for r in ranges.iter().filter(|r| !r.is_empty()) {
            group = Some(match group {
                Some(g) if page_of(r.start) <= page_of(g.end - 1) => g.start..r.end,
                Some(g) => {
                    grouped += file.pages_in_range(g);
                    r.clone()
                }
                None => r.clone(),
            });
        }
        grouped += group.map_or(0, |g| file.pages_in_range(g));
        prop_assert_eq!(reads, grouped as u64);
    }

    #[test]
    fn io_counters_are_monotone(nreads in 1usize..40, pool_pages in 1usize..6) {
        let engine = StorageEngine::new(StorageConfig {
            pool_pages,
            ..Default::default()
        });
        let ids: Vec<PageId> = (0..10).map(|_| engine.allocate_page().expect("allocate")).collect();
        let mut last = engine.io_stats();
        for i in 0..nreads {
            engine.with_page(ids[i % ids.len()], |_| ()).expect("read");
            let now = engine.io_stats();
            prop_assert!(now.logical_reads() == last.logical_reads() + 1);
            prop_assert!(now.disk_reads >= last.disk_reads);
            prop_assert!(now.disk_reads - last.disk_reads <= 1);
            last = now;
        }
        // Misses never exceed logical reads.
        prop_assert!(last.pool_misses <= last.logical_reads());
    }
}
