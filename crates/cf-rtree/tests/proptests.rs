//! Property-based tests: the packed paged tree must agree with a linear
//! scan under any sequence of entry box rewrites, keep its shape while
//! doing so, depend only on its entry set, and its pages and flattening
//! must answer alike. A build buffer persists to the pages `build` packs.

use cf_geom::Aabb;
use cf_rtree::{FrozenTree, PagedRTree, RStarTree, RTreeConfig};
use cf_storage::{PageId, StorageEngine};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Op {
    Replace { victim: usize, lo: f64, width: f64 },
    Query { lo: f64, width: f64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<usize>(), 0.0..100.0f64, 0.0..10.0f64)
            .prop_map(|(victim, lo, width)| Op::Replace { victim, lo, width }),
        1 => (-5.0..105.0f64, 0.0..20.0f64).prop_map(|(lo, width)| Op::Query { lo, width }),
    ]
}

/// Checks that every internal entry of the subtree at `page` is exactly
/// the hull of its child node; returns the hull of `page`'s entries.
fn check_hulls(engine: &StorageEngine, tree: &PagedRTree<1>, page: PageId) -> Aabb<1> {
    let mut entries = Vec::new();
    tree.for_each_entry(engine, page, |b, child, leaf| {
        entries.push((*b, child, leaf))
    })
    .expect("read node");
    for &(b, child, leaf) in &entries {
        if !leaf {
            assert_eq!(
                check_hulls(engine, tree, PageId(child)),
                b,
                "entry over page {child}"
            );
        }
    }
    Aabb::hull(entries.iter().map(|e| e.0))
}

proptest! {
    // Each case runs hundreds of page writes: fewer cases than below.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tree_agrees_with_linear_scan(
        items in prop::collection::vec((0.0..100.0f64, 0.0..10.0f64), 600..900),
        ops in prop::collection::vec(op(), 200..400),
    ) {
        // The maintenance path `update_cell` runs: a built tree whose
        // entry boxes are rewritten in place, searched in between. Enough
        // entries for a tree of two levels.
        let engine = StorageEngine::in_memory();
        let mut model: Vec<(Aabb<1>, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &(lo, w))| (Aabb::new([lo], [lo + w]), i as u64))
            .collect();
        let tree = PagedRTree::build(&engine, model.iter().copied()).expect("build");
        prop_assert!(tree.height() >= 2, "{} entries fit one page", model.len());
        let shape = (tree.len(), tree.height(), tree.num_pages(), engine.num_pages());
        for op in ops {
            match op {
                Op::Replace { victim, lo, width } => {
                    let at = victim % model.len();
                    let (old, id) = model[at];
                    let new = Aabb::new([lo], [lo + width]);
                    prop_assert!(tree.replace_entry(&engine, &old, id, new).expect("replace"));
                    model[at].0 = new;
                    if old != new {
                        // The old box is gone: nothing left to replace.
                        prop_assert!(!tree.replace_entry(&engine, &old, id, new).expect("replace"));
                    }
                }
                Op::Query { lo, width } => {
                    let q = Aabb::new([lo], [lo + width]);
                    let mut got = tree.search_collect(&engine, &q).expect("search");
                    got.sort_unstable();
                    let mut want: Vec<u64> = model
                        .iter()
                        .filter(|(b, _)| b.intersects(&q))
                        .map(|&(_, d)| d)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(
                (tree.len(), tree.height(), tree.num_pages(), engine.num_pages()),
                shape
            );
        }
        check_hulls(&engine, &tree, tree.root_page_id());
    }
}

/// Payloads of the entries whose box intersects `q`, ascending.
fn linear<const N: usize>(entries: &[(Aabb<N>, u64)], q: &Aabb<N>) -> Vec<u64> {
    let mut want: Vec<u64> = entries
        .iter()
        .filter(|(b, _)| b.intersects(q))
        .map(|&(_, d)| d)
        .collect();
    want.sort_unstable();
    want
}

/// Every page of `engine`, in page order.
fn all_pages(engine: &StorageEngine) -> Vec<Vec<u8>> {
    (0..engine.num_pages() as u64)
        .map(|i| engine.with_page(PageId(i), |b| b.to_vec()).expect("page"))
        .collect()
}

/// Entry counts of the tree's nodes, one list per level from the root
/// down, each in page order.
fn level_fills(engine: &StorageEngine, tree: &PagedRTree<1>) -> Vec<Vec<usize>> {
    let mut levels = Vec::new();
    let mut pages = vec![tree.root_page_id()];
    while !pages.is_empty() {
        let mut fills = Vec::new();
        let mut children = Vec::new();
        for &page in &pages {
            let mut count = 0;
            tree.for_each_entry(engine, page, |_, child, leaf| {
                count += 1;
                if !leaf {
                    children.push(PageId(child));
                }
            })
            .expect("read node");
            fills.push(count);
        }
        levels.push(fills);
        pages = children;
    }
    levels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_depends_only_on_its_entry_set(
        items in prop::collection::vec((0.0..100.0f64, 0.0..10.0f64), 0..900),
        seed in any::<u64>(),
    ) {
        let entries: Vec<(Aabb<1>, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &(lo, w))| (Aabb::new([lo], [lo + w]), i as u64))
            .collect();
        let mut shuffled = entries.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        let (a, b) = (StorageEngine::in_memory(), StorageEngine::in_memory());
        let tree = PagedRTree::build(&a, entries).expect("build");
        PagedRTree::build(&b, shuffled).expect("build");
        prop_assert!(all_pages(&a) == all_pages(&b), "a permutation moved a page byte");

        let fanout = PagedRTree::<1>::page_fanout();
        let levels = level_fills(&a, &tree);
        for fills in &levels {
            let (last, full) = fills.split_last().expect("a level has a node");
            prop_assert!(full.iter().all(|&f| f == fanout), "underfull node: {:?}", fills);
            prop_assert!(*last <= fanout);
        }
        // ceil(n / F^k) nodes on level k, up to the one root.
        let mut want = Vec::new();
        let mut nodes = items.len();
        loop {
            nodes = nodes.div_ceil(fanout).max(1);
            want.push(nodes);
            if nodes == 1 {
                break;
            }
        }
        want.reverse();
        let got: Vec<usize> = levels.iter().map(Vec::len).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(tree.num_pages(), want.iter().sum::<usize>());
        prop_assert_eq!(tree.height() as usize, want.len());
    }

    #[test]
    fn frozen_tree_matches_paged_results_and_visits(
        items in prop::collection::vec((0.0..100.0f64, 0.0..5.0f64), 0..250),
        queries in prop::collection::vec((-20.0..120.0f64, 0.0..15.0f64), 1..8),
    ) {
        let entries: Vec<(Aabb<1>, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &(lo, w))| (Aabb::new([lo], [lo + w]), i as u64))
            .collect();
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::build(&engine, entries.iter().copied()).expect("build");
        let frozen = FrozenTree::from_paged(&engine, &paged).expect("freeze");

        // The random queries plus the edge cases: a zero-width point
        // probe and a band entirely outside the data range (empty
        // answer) — both must still agree, node-for-node.
        let mut qs: Vec<Aabb<1>> = queries
            .iter()
            .map(|&(lo, w)| Aabb::new([lo], [lo + w]))
            .collect();
        qs.push(Aabb::new([50.0], [50.0]));
        qs.push(Aabb::new([-1e6], [-1e6 + 1.0]));

        let (mut a, mut b) = (Vec::new(), Vec::new());
        for q in &qs {
            let sa = paged.search_into(&engine, q, &mut a).expect("search");
            let sb = frozen.search_into(q, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(&a, &b, "frozen results");
            prop_assert_eq!(&a, &linear(&entries, q), "linear filter results");
            // The flattening's visited-node count must equal the page
            // reads the paged search did.
            prop_assert_eq!(sa.nodes_visited, sb.nodes_visited);
            prop_assert_eq!(sb.results, a.len() as u64);
        }
    }

    #[test]
    fn paged_tree_round_trips(
        items in prop::collection::vec((0.0..100.0f64, 0.0..5.0f64), 1..200),
        queries in prop::collection::vec((0.0..100.0f64, 0.0..10.0f64), 1..8),
    ) {
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::page_sized::<1>());
        let mut entries = Vec::new();
        for (i, &(lo, w)) in items.iter().enumerate() {
            tree.insert(Aabb::new([lo], [lo + w]), i as u64);
            entries.push((Aabb::new([lo], [lo + w]), i as u64));
        }
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&tree, &engine).expect("persist");
        prop_assert_eq!(paged.len(), items.len());
        for &(qlo, qw) in &queries {
            let q = Aabb::new([qlo], [qlo + qw]);
            let mut a = paged.search_collect(&engine, &q).expect("search");
            a.sort_unstable();
            prop_assert_eq!(a, linear(&entries, &q));
        }
    }
}

/// Persists a build buffer filled with `entries` in a shuffled order and
/// packs the same entries, sorted, with `build`: the two engines must
/// hold the same pages, byte for byte.
fn persist_writes_the_pages_build_writes<const N: usize>(mut entries: Vec<(Aabb<N>, u64)>) {
    let mut rng = StdRng::seed_from_u64(entries.len() as u64);
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..i + 1));
    }
    let mut tree: RStarTree<N> = RStarTree::new(RTreeConfig::page_sized::<N>());
    for &(b, d) in &entries {
        tree.insert(b, d);
    }
    assert_eq!(tree.len(), entries.len());
    entries.sort_by_key(|e| e.1);
    let (a, b) = (StorageEngine::in_memory(), StorageEngine::in_memory());
    let persisted = PagedRTree::persist(&tree, &a).expect("persist");
    let built = PagedRTree::build(&b, entries).expect("build");
    assert_eq!(persisted.to_parts(), built.to_parts());
    assert!(all_pages(&a) == all_pages(&b), "persist moved a page byte");
}

#[test]
fn persist_of_a_shuffled_buffer_equals_build_at_page_fanout() {
    let mut rng = StdRng::seed_from_u64(41);
    // Up to three levels at the 1-D fanout (170), two at the 2-D (102).
    for n in [0, 1, 170, 171, 5_000, 30_000] {
        let entries: Vec<(Aabb<1>, u64)> = (0..n as u64)
            .map(|i| {
                let lo: f64 = rng.gen_range(0.0..100.0);
                (Aabb::new([lo], [lo + rng.gen_range(0.0..5.0)]), i)
            })
            .collect();
        persist_writes_the_pages_build_writes(entries);
    }
    for n in [0, 1, 102, 103, 3_000] {
        let entries: Vec<(Aabb<2>, u64)> = (0..n as u64)
            .map(|i| {
                let (x, y): (f64, f64) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                (Aabb::new([x, y], [x + 1.0, y + rng.gen_range(0.0..3.0)]), i)
            })
            .collect();
        persist_writes_the_pages_build_writes(entries);
    }
}
