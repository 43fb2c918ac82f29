//! The one index core: a cell file in a chosen linear order, subfields
//! as `[start, end)` record ranges, and a packed, paged 1-D R-tree over
//! the subfield intervals whose leaf payloads are the packed ranges (paper
//! Fig. 6: leaf entries store `ptr_start, ptr_end`). The tree's leaves
//! are the subfield catalog: nothing else persists it, and a reopen
//! reads it back by walking the tree ([`SubfieldIndex::open`]).
//!
//! The paper's indexes differ only in how they order and group cells:
//! I-Hilbert groups greedy runs along a curve, cut at the cell file's
//! page boundaries, the Interval Quadtree groups quadtree leaves, and
//! I-All is the identity — native order, one cell per subfield.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::exec::{self, Delta, Filter, SubfieldOverrides, Q2};
use crate::stats::{QueryMetrics, QueryStats, RegionSink};
use crate::subfield::Subfield;
use cf_field::FieldModel;
use cf_geom::{Aabb, Interval};
use cf_rtree::PagedRTree;
use cf_storage::{CellFile, CfError, CfResult, Label, MetricsRegistry, PageId, StorageEngine};
use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// A cell file in subfield order plus the interval tree over subfields.
pub(crate) struct SubfieldIndex<F: FieldModel> {
    pub(crate) file: CellFile<F::CellRec>,
    pub(crate) tree: PagedRTree<1>,
    /// Subfield catalog (interval + record range) in file order, kept
    /// for incremental maintenance: the in-memory copy of the tree's
    /// leaf entries.
    pub(crate) subfields: Vec<Subfield>,
    /// `index` label value of every metric this index publishes: the
    /// owning method's name (`"I-Hilbert"`, `"I-Quad"`, `"I-All"`).
    metric_label: String,
    /// Space-filling-curve name reported in EXPLAIN records (`"-"` for
    /// an index that orders cells by no curve).
    curve_label: Label,
    /// Cached registry handles, wired against the first engine queried.
    qmetrics: OnceLock<QueryMetrics>,
    _field: PhantomData<fn() -> F>,
}

impl<F: FieldModel> SubfieldIndex<F> {
    /// Indexes `subfields` (expressed in positions of the cell file
    /// `file`, just written in the intended order): their intervals are
    /// packed bottom-up into the tree ([`PagedRTree::build`]), whatever
    /// order they come in, and the vector itself becomes the in-memory
    /// catalog. `index` and `curve` name the owning method
    /// and its curve in every metric and EXPLAIN record.
    ///
    /// # Panics
    ///
    /// Panics if `file` holds more cells than a `u32` subfield pointer
    /// can address (every build refuses such a field before writing).
    pub(crate) fn build(
        engine: &StorageEngine,
        file: CellFile<F::CellRec>,
        subfields: Vec<Subfield>,
        index: &str,
        curve: &str,
    ) -> CfResult<Self> {
        assert!(
            file.len() <= u32::MAX as usize,
            "cell file too large for u32 subfield pointers ({} cells)",
            file.len()
        );
        let tree = PagedRTree::build(
            engine,
            subfields.iter().map(|sf| (sf.interval.into(), sf.pack())),
        )?;
        Ok(Self::assemble(file, tree, subfields, index, curve))
    }

    /// Reattaches to an index persisted in `engine` from its catalog
    /// handles, reading the subfield catalog back off the tree's leaves
    /// ([`read_leaves`]) and checking it against the cell file
    /// ([`Subfield::validate_catalog`]) before anything indexes by it.
    pub(crate) fn open(
        engine: &StorageEngine,
        file: CellFile<F::CellRec>,
        tree: PagedRTree<1>,
        index: &str,
        curve: &str,
    ) -> CfResult<Self> {
        let subfields = sort_by_start(read_leaves(engine, &tree, file.len())?, file.len());
        Subfield::validate_catalog(&subfields, file.len())?;
        Ok(Self::assemble(file, tree, subfields, index, curve))
    }

    fn assemble(
        file: CellFile<F::CellRec>,
        tree: PagedRTree<1>,
        subfields: Vec<Subfield>,
        index: &str,
        curve: &str,
    ) -> Self {
        Self {
            file,
            tree,
            subfields,
            metric_label: index.to_owned(),
            curve_label: Label::new(curve),
            qmetrics: OnceLock::new(),
            _field: PhantomData,
        }
    }

    fn query_metrics(&self, registry: &MetricsRegistry) -> &QueryMetrics {
        self.qmetrics
            .get_or_init(|| QueryMetrics::wire(registry, &self.metric_label))
    }

    /// Rewrites the cell record at file position `pos` and, when its
    /// subfield's interval moves, rewrites that subfield's tree entry
    /// in place ([`PagedRTree::replace_entry`]): the subfield set, and
    /// with it the tree's shape, is fixed at build.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::Corrupt`] when the tree holds no entry under
    /// the subfield's catalog interval — a catalog that validated but
    /// disagrees with its tree.
    pub(crate) fn update_record(
        &mut self,
        engine: &StorageEngine,
        pos: usize,
        record: &F::CellRec,
    ) -> CfResult<()> {
        self.file.put(engine, pos, record)?;
        let sf_idx = subfield_of(&self.subfields, pos as u32) as usize;
        let sf = self.subfields[sf_idx];
        // Recompute the subfield interval from its (updated) records.
        let new_iv = self.subfield_union(engine, sf_idx, |_, rec| F::record_interval(rec))?;
        if new_iv != sf.interval {
            if !self
                .tree
                .replace_entry(engine, &sf.interval.into(), sf.pack(), new_iv.into())?
            {
                return Err(CfError::corrupt(
                    None,
                    format!("subfield {sf_idx}'s interval entry is missing from the tree"),
                ));
            }
            self.subfields[sf_idx].interval = new_iv;
        }
        Ok(())
    }

    /// The union of subfield `sf_idx`'s record intervals, folded in file
    /// position order — the one rule the in-place write path and the
    /// ingest delta's interval summary share, so the two agree to the
    /// bit. `interval_at(pos, rec)` is the interval that counts at
    /// `pos`: the stored record's, or a substitute's.
    pub(crate) fn subfield_union(
        &self,
        engine: &StorageEngine,
        sf_idx: usize,
        mut interval_at: impl FnMut(u32, &F::CellRec) -> Interval,
    ) -> CfResult<Interval> {
        let sf = self.subfields[sf_idx];
        let mut union: Option<Interval> = None;
        self.file
            .for_each_in_range(engine, sf.start as usize..sf.end as usize, |pos, rec| {
                let iv = interval_at(pos as u32, &rec);
                union = Some(union.map_or(iv, |u| u.union(iv)));
            })?;
        union.ok_or_else(|| CfError::corrupt(None, format!("subfield {sf_idx} holds no cell")))
    }

    /// One Q2 query through the executor ([`exec::run`]): the two-step
    /// probe of §3.2 (filter subfields through the interval tree, then
    /// read the coalesced record runs). With a `delta`, the filter
    /// answer is corrected by the epoch's effective subfield intervals
    /// and its overlays are substituted per position.
    pub(crate) fn execute(
        &self,
        engine: &StorageEngine,
        band: Interval,
        delta: Option<&Delta<'_, F::CellRec>>,
        sink: Option<RegionSink<'_>>,
    ) -> CfResult<QueryStats> {
        let filter = Filter {
            tree: &self.tree,
            overrides: delta.map(|d| SubfieldOverrides {
                effective: d.sf_intervals,
                subfields: &self.subfields,
            }),
        };
        let q = Q2 {
            curve: self.curve_label,
            epoch: delta.map_or(0, |d| d.epoch),
            metrics: self.query_metrics(engine.metrics()),
            filter,
            cells: &self.file,
            overlay: delta.map(|d| d.overlays).filter(|o| !o.is_empty()),
        };
        exec::run::<F>(engine, band, q, sink)
    }
}

/// Index of the subfield of `subfields` (a catalog in file order,
/// covering the cell file without gaps) that holds file position `pos`.
pub(crate) fn subfield_of(subfields: &[Subfield], pos: u32) -> u32 {
    subfields.partition_point(|sf| sf.end <= pos) as u32
}

/// `subfields` ordered by `start`, every start below `cells`: an LSD
/// radix sort, one byte a pass and only as many passes as `cells`
/// needs. A reopen sorts every subfield; on a 50k-triangle TIN (2 694
/// subfields) this takes about half the time of a comparison sort.
fn sort_by_start(mut subfields: Vec<Subfield>, cells: usize) -> Vec<Subfield> {
    let mut buf = subfields.clone();
    let mut shift = 0;
    while shift < 32 && cells >> shift > 0 {
        let digit = |sf: &Subfield| (sf.start >> shift) as usize & 0xff;
        let mut at = [0usize; 257];
        subfields.iter().for_each(|sf| at[digit(sf) + 1] += 1);
        (0..256).for_each(|d| at[d + 1] += at[d]);
        for sf in &subfields {
            buf[at[digit(sf)]] = *sf;
            at[digit(sf)] += 1;
        }
        std::mem::swap(&mut subfields, &mut buf);
        shift += 8;
    }
    subfields
}

/// Every leaf entry of `tree` as a [`Subfield`], in walk order — the
/// subfield catalog of an index over a `cells`-record cell file. The
/// pages are CRC-valid but otherwise untrusted bytes, so any breach of
/// the tree's shape is [`CfError::Corrupt`], never a hang or a panic:
/// a node is a leaf exactly at depth `height − 1`, every child pointer
/// stays inside the tree's page run ([`PagedRTree::page_run`]), no page
/// is reached twice (a child pointer that loops), every child node's
/// entries lie inside its parent entry's box, every payload unpacks to
/// a range inside the cell file ([`Subfield::try_unpack`]), and the
/// leaf count is the tree's recorded length.
fn read_leaves(
    engine: &StorageEngine,
    tree: &PagedRTree<1>,
    cells: usize,
) -> CfResult<Vec<Subfield>> {
    let height = tree.height();
    let (first, pages) = tree.page_run();
    let run = first.0..first.0 + pages as u64;
    let mut subfields = Vec::with_capacity(tree.len().min(cells));
    let mut seen = HashSet::new();
    let mut stack = vec![(tree.root_page_id(), 0, None::<Aabb<1>>)];
    while let Some((page, depth, parent)) = stack.pop() {
        let corrupt = |what: String| CfError::corrupt(page, format!("tree node: {what}"));
        if !seen.insert(page) {
            return Err(corrupt("reached twice".into()));
        }
        // The first breach on the page; the rest of its entries are
        // skipped.
        let mut bad = None;
        tree.for_each_entry(engine, page, |mbr, child, leaf| {
            if bad.is_some() {
                return;
            }
            if leaf != (depth + 1 == height) {
                let what = if leaf { "a leaf" } else { "an internal node" };
                bad = Some(corrupt(format!(
                    "{what} at depth {depth} of height {height}"
                )));
            } else if parent.is_some_and(|p| !p.contains(mbr)) {
                bad = Some(corrupt("entry outside its parent entry's box".into()));
            } else if leaf {
                match Subfield::try_unpack(child, (*mbr).into(), cells) {
                    Ok(sf) => subfields.push(sf),
                    Err(e) => bad = Some(e),
                }
            } else if !run.contains(&child) {
                bad = Some(corrupt(format!(
                    "child page {child} outside the tree's pages {}..{}",
                    run.start, run.end
                )));
            } else {
                stack.push((PageId(child), depth + 1, Some(*mbr)));
            }
        })?;
        if let Some(e) = bad {
            return Err(e);
        }
    }
    let (found, recorded) = (subfields.len(), tree.len());
    if found != recorded {
        let what = format!("tree leaves hold {found} subfields, the catalog says {recorded}");
        return Err(CfError::corrupt(tree.root_page_id(), what));
    }
    Ok(subfields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_by_start_orders_like_a_stable_comparison_sort() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for cells in [1usize, 200, 256, 257, 70_000, u32::MAX as usize] {
            let subfields: Vec<Subfield> = (0..500u32)
                .map(|i| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    // Duplicate starts too: the sort must be stable.
                    let start = ((x >> 33) % cells as u64) as u32;
                    let interval = Interval::point(f64::from(i));
                    Subfield {
                        start,
                        end: start.saturating_add(1),
                        interval,
                    }
                })
                .collect();
            let mut want = subfields.clone();
            want.sort_by_key(|sf| sf.start);
            assert_eq!(sort_by_start(subfields, cells), want, "{cells} cells");
        }
        assert!(sort_by_start(Vec::new(), 0).is_empty());
    }
}
