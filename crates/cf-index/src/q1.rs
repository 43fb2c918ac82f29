//! Conventional (Q1) point queries through a spatial R\*-tree.
//!
//! Paper §2.2.1: "we find firstly the cell c′ containing the query point
//! v′ and we apply the corresponding interpolation function on the
//! neighbor sample points … these queries can be easily supported by a
//! conventional spatial indexing method, such as R-tree or its
//! variants." This module is that conventional path, provided so the
//! library covers both query classes of §2.2.

use cf_field::FieldModel;
use cf_geom::{Aabb, Point2};
use cf_rtree::PagedRTree;
use cf_storage::{CellFile, CfResult, IoStats, RecordFile, StorageEngine};
use std::marker::PhantomData;

/// Statistics of one point query.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointQueryStats {
    /// Index nodes visited.
    pub filter_nodes: u64,
    /// Candidate cells whose MBR contains the point.
    pub candidates: usize,
    /// I/O performed.
    pub io: IoStats,
}

/// A spatial index over cell MBRs answering "value at point p".
pub struct PointIndex<F: FieldModel> {
    file: CellFile<F::CellRec>,
    tree: PagedRTree<2>,
    _field: PhantomData<fn() -> F>,
}

impl<F: FieldModel> PointIndex<F> {
    /// Builds the spatial index (2-D R\*-tree over cell bounding boxes).
    pub fn build(engine: &StorageEngine, field: &F) -> CfResult<Self> {
        let n = field.num_cells();
        let records: Vec<F::CellRec> = (0..n).map(|c| field.cell_record(c)).collect();
        let file = RecordFile::create(engine, records)?;
        let tree = PagedRTree::build(
            engine,
            (0..n).map(|cell| (field.cell_bbox(cell), cell as u64)),
        )?;
        Ok(Self {
            file,
            tree,
            _field: PhantomData,
        })
    }

    /// Q1 query: the field value at `p`, or `None` outside the domain.
    ///
    /// Cell MBRs of adjacent cells share boundaries, so a boundary point
    /// may have several candidates; the first cell that actually
    /// contains the point answers (their interpolants agree on shared
    /// boundaries because the field is continuous).
    pub fn value_at(
        &self,
        engine: &StorageEngine,
        p: Point2,
    ) -> CfResult<(Option<f64>, PointQueryStats)> {
        let before = cf_storage::thread_io_stats();
        let mut stats = PointQueryStats::default();
        let query = Aabb::point([p.x, p.y]);
        let mut candidates: Vec<u64> = Vec::new();
        let search = self
            .tree
            .search(engine, &query, |cell, _| candidates.push(cell))?;
        stats.filter_nodes = search.nodes_visited;
        candidates.sort_unstable();
        stats.candidates = candidates.len();
        let mut answer = None;
        for cell in candidates {
            let rec = self.file.get(engine, cell as usize)?;
            if let Some(v) = F::record_value_at(&rec, p) {
                answer = Some(v);
                break;
            }
        }
        stats.io = cf_storage::thread_io_stats() - before;
        Ok((answer, stats))
    }

    /// Pages occupied by the spatial index.
    pub fn index_pages(&self) -> usize {
        self.tree.num_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_field::{GridField, TinField};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn grid_point_queries_match_field() {
        let vw = 17;
        let mut values = Vec::new();
        for y in 0..vw {
            for x in 0..vw {
                values.push((x * x + y) as f64);
            }
        }
        let field = GridField::from_values(vw, vw, values);
        let engine = StorageEngine::in_memory();
        let index = PointIndex::build(&engine, &field).expect("build");

        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let p = Point2::new(rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0));
            let (got, stats) = index.value_at(&engine, p).expect("query");
            let want = field.value_at(p);
            assert!(stats.candidates >= 1);
            match (got, want) {
                (Some(g), Some(w)) => assert!((g - w).abs() < 1e-9, "at {p}"),
                other => panic!("mismatch at {p}: {other:?}"),
            }
        }
        // Outside the domain.
        let (got, _) = index
            .value_at(&engine, Point2::new(100.0, 0.0))
            .expect("query");
        assert_eq!(got, None);
    }

    #[test]
    fn tin_point_queries_match_field() {
        let mut rng = StdRng::seed_from_u64(17);
        let points: Vec<Point2> = (0..120)
            .map(|_| Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let values: Vec<f64> = points.iter().map(|p| p.x * 2.0 - p.y).collect();
        let field = TinField::from_samples(&points, values).unwrap();
        let engine = StorageEngine::in_memory();
        let index = PointIndex::build(&engine, &field).expect("build");

        for _ in 0..60 {
            let p = Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            let (got, _) = index.value_at(&engine, p).expect("query");
            let want = field.value_at(p);
            match (got, want) {
                (Some(g), Some(w)) => assert!((g - w).abs() < 1e-6, "at {p}: {g} vs {w}"),
                (None, None) => {}
                other => panic!("mismatch at {p}: {other:?}"),
            }
        }
    }

    #[test]
    fn search_is_sublinear() {
        let vw = 65;
        let values = vec![0.0; vw * vw];
        let field = GridField::from_values(vw, vw, values);
        let engine = StorageEngine::in_memory();
        let index = PointIndex::build(&engine, &field).expect("build");
        let (_, stats) = index
            .value_at(&engine, Point2::new(32.4, 18.7))
            .expect("query");
        assert!(
            (stats.filter_nodes as usize) < index.index_pages() / 4,
            "visited {} of {} index pages",
            stats.filter_nodes,
            index.index_pages()
        );
    }
}
