//! Property-based tests: the paged R\*-tree must agree with a linear
//! scan under any sequence of entry box rewrites, keep its shape while
//! doing so, and its pages, flattening and build buffer must answer
//! alike.

use cf_geom::Aabb;
use cf_rtree::{FrozenTree, PagedRTree, RStarTree, RTreeConfig};
use cf_storage::{PageId, StorageEngine};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frozen_tree_matches_paged_results_and_visits(
        items in prop::collection::vec((0.0..100.0f64, 0.0..5.0f64), 0..250),
        queries in prop::collection::vec((-20.0..120.0f64, 0.0..15.0f64), 1..8),
        fanout in 4usize..16,
    ) {
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::new(fanout));
        for (i, &(lo, w)) in items.iter().enumerate() {
            tree.insert(Aabb::new([lo], [lo + w]), i as u64);
        }
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&tree, &engine).expect("persist");
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
            let mut d = tree.search_collect(q);
            a.sort_unstable();
            b.sort_unstable();
            d.sort_unstable();
            prop_assert_eq!(&a, &b, "frozen results");
            prop_assert_eq!(&a, &d, "build buffer results");
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
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::new(8));
        for (i, &(lo, w)) in items.iter().enumerate() {
            tree.insert(Aabb::new([lo], [lo + w]), i as u64);
        }
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&tree, &engine).expect("persist");
        for &(qlo, qw) in &queries {
            let q = Aabb::new([qlo], [qlo + qw]);
            let mut a = paged.search_collect(&engine, &q).expect("search");
            let mut b = tree.search_collect(&q);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
