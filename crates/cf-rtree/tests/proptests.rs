//! Property-based tests: the paged R\*-tree must agree with a linear
//! scan under any sequence of inserts and removes, and its pages,
//! flattening and build buffer must answer alike.

use cf_geom::Aabb;
use cf_rtree::{FrozenTree, PagedRTree, RStarTree, RTreeConfig};
use cf_storage::StorageEngine;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { lo: f64, width: f64 },
    Remove { victim: usize },
    Query { lo: f64, width: f64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0.0..100.0f64, 0.0..10.0f64).prop_map(|(lo, width)| Op::Insert { lo, width }),
        2 => any::<usize>().prop_map(|victim| Op::Remove { victim }),
        1 => (-5.0..105.0f64, 0.0..20.0f64).prop_map(|(lo, width)| Op::Query { lo, width }),
    ]
}

proptest! {
    // Each case runs hundreds of page writes: fewer cases than below.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tree_agrees_with_linear_scan(ops in prop::collection::vec(op(), 600..900)) {
        // The maintenance path `update_cell` runs: page-resident insert,
        // remove and search. Enough inserts to split the root leaf.
        let engine = StorageEngine::in_memory();
        let mut tree: PagedRTree<1> =
            PagedRTree::build(&engine, std::iter::empty()).expect("build");
        let mut model: Vec<(Aabb<1>, u64)> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Insert { lo, width } => {
                    let b = Aabb::new([lo], [lo + width]);
                    tree.insert(&engine, b, next_id).expect("insert");
                    model.push((b, next_id));
                    next_id += 1;
                }
                Op::Remove { victim } => {
                    if !model.is_empty() {
                        let (b, id) = model.swap_remove(victim % model.len());
                        prop_assert!(tree.remove(&engine, &b, id).expect("remove"));
                        prop_assert!(!tree.remove(&engine, &b, id).expect("remove"));
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
            prop_assert_eq!(tree.len(), model.len());
        }
        prop_assert!(
            next_id as usize > 2 * PagedRTree::<1>::page_fanout() && tree.height() > 1,
            "{next_id} inserts never split a page"
        );
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
