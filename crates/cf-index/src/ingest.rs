//! The live ingest plane: epoch-based plane swap with
//! snapshot-isolated readers and a background repacker.
//!
//! The paper treats the index as build-once: `update_cell` rewrites a
//! record in place and does remove + insert surgery on the paged tree
//! under `&mut self`, so a continuous sensor stream stalls every
//! reader. This module refactors the mutation path into three
//! cooperating parts:
//!
//! 1. **A mutable delta plane** ([`LiveIngest`]): the net overlay
//!    record per touched position, a count of the writes since the
//!    last drain, and a small interval summary (per-touched-subfield
//!    effective intervals). Ingest
//!    writes land here — the immutable base (cell file and tree
//!    pages) is never touched, so tree surgery is off the write path
//!    entirely.
//! 2. **Snapshot-isolated readers** ([`EpochSnapshot`]): every
//!    publication is an immutable epoch — `Arc`-swapped base plane +
//!    delta prefix — pinned against page reclamation by a
//!    [`cf_storage::EpochPin`]. A reader merges base and delta answers
//!    **byte-identically** to the sequential oracle (an index that
//!    applied every update in place):
//!    the filter step runs on the base tree and is corrected by the
//!    per-subfield effective intervals (same union-over-records rule
//!    `update_record` uses, same closed-interval intersection
//!    semantics as the tree's `Aabb`), so the retrieved subfield set
//!    equals the oracle's; the estimation step scans the same
//!    coalesced position-ordered runs with overlay substitution, so
//!    the float accumulation order — and therefore every area bit —
//!    is identical.
//! 3. **A background repacker** ([`LiveIngest::repack`]): drains the
//!    delta into a new Hilbert-ordered cell file segment on fresh
//!    pages (regrouping subfields by the paper's static cost rule, as
//!    the build does), swaps the base `Arc`, and defers
//!    the superseded page runs to the engine's epoch GC — they are
//!    recycled only after the last reader of an older epoch drops.
//!
//! Writers serialize on one mutex; readers never take it — they clone
//! the published `Arc` and query an immutable snapshot, so in-flight
//! queries never observe a half-applied write and a repack never
//! stalls them.

use crate::exec::Delta;
use crate::ihilbert::{check_record, method_label, IHilbert};
use crate::planner::{Plan, Router};
use crate::sfindex::SubfieldIndex;
use crate::stats::{QueryScratch, QueryStats, ValueIndex};
use crate::subfield::{build_subfields, Subfield, SubfieldConfig};
use cf_field::FieldModel;
use cf_geom::{Interval, Point2};
use cf_storage::{codec, CfError, CfResult, EpochPin, Gauge, Record, Stopwatch, StorageEngine};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// What [`LiveIngest::persist_state`] hands the catalog writer: the
/// base plane, the net delta entries (ascending by position) and the
/// publication epoch, captured under a single lock acquisition.
pub(crate) type PersistState<F> = (
    Arc<IHilbert<F>>,
    Vec<DeltaRec<<F as FieldModel>::CellRec>>,
    u64,
);

/// One delta-plane entry: the cell-file position an ingest overlays
/// and its replacement record. This is also the on-disk layout of the
/// flushed delta file (catalog v4's `delta_first .. delta_len` run).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRec<R> {
    /// Position in the Hilbert-ordered cell file.
    pub pos: u32,
    /// The replacement record.
    pub rec: R,
}

impl<R: Record> Record for DeltaRec<R> {
    const SIZE: usize = 4 + R::SIZE;

    fn encode(&self, buf: &mut [u8]) {
        codec::put_u32(buf, 0, self.pos);
        self.rec.encode(&mut buf[4..]);
    }

    fn decode(buf: &[u8]) -> Self {
        Self {
            pos: codec::get_u32(buf, 0),
            rec: R::decode(&buf[4..]),
        }
    }
}

/// Construction knobs of [`LiveIngest`].
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Delta capacity, in writes: when an ingest would exceed it, the write
    /// performs an inline synchronous drain (the backpressure path) —
    /// ordinarily a background [`LiveIngest::repack`] drains first.
    pub capacity: usize,
    /// Optional planner threading: estimated selectivity at or above
    /// this threshold routes a snapshot query to an overlay-aware full
    /// scan of the base cell file instead of an index probe (same
    /// routing rule as [`crate::AdaptiveIndex`]). `None` always
    /// probes.
    pub scan_threshold: Option<f64>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            scan_threshold: None,
        }
    }
}

/// Writer-side mutable state, serialized under one mutex.
struct WriterState<F: FieldModel> {
    /// The immutable base plane of the current epoch.
    base: Arc<IHilbert<F>>,
    /// Writes since the last drain (several may hit one position; the
    /// overlay map is their net effect), at most `IngestConfig::capacity`.
    writes: usize,
    /// Net overlay per touched cell-file position.
    overlays: HashMap<u32, F::CellRec>,
    /// Effective (overlay-aware) interval per touched subfield — the
    /// delta plane's interval summary, keyed by subfield index.
    sf_overrides: HashMap<u32, Interval>,
    /// Publication counter: bumped on every publish (ingest or
    /// repack). Readers pin this epoch in the engine's GC domain.
    epoch: u64,
    /// Completed repacks (epoch swaps that replaced the base).
    repacks: u64,
    /// Planner over the current base (rebuilt on repack), shared by
    /// every snapshot of it.
    router: Option<Arc<Router>>,
    /// When the delta last drained (repack or construction) — the
    /// `ingest_repack_lag_ns` gauge reports time since.
    last_drain: Instant,
    /// When the current epoch was published — each publication reports
    /// the age the outgoing epoch reached (`ingest_epoch_age_ns`).
    last_publish: Instant,
}

/// Cached registry handles for the delta-pressure gauges.
struct IngestGauges {
    delta_records: Gauge,
    epoch: Gauge,
    repack_lag_ns: Gauge,
    repack_inflight: Gauge,
    /// Age the outgoing epoch reached when the latest publication
    /// replaced it (time between consecutive publishes).
    epoch_age_ns: Gauge,
    /// Records rewritten per delta record drained by the latest
    /// repack: the write-amplification factor of the drain.
    write_amplification: Gauge,
}

impl IngestGauges {
    fn wire(engine: &StorageEngine) -> Self {
        let registry = engine.metrics();
        Self {
            delta_records: registry.gauge("ingest_delta_records"),
            epoch: registry.gauge("ingest_epoch"),
            repack_lag_ns: registry.gauge("ingest_repack_lag_ns"),
            repack_inflight: registry.gauge("ingest_repack_inflight"),
            epoch_age_ns: registry.gauge("ingest_epoch_age_ns"),
            write_amplification: registry.gauge("ingest_write_amplification"),
        }
    }
}

/// What a [`LiveIngest::repack`] did (its return type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepackReport {
    /// Whether a new epoch was published (false: the delta was empty).
    pub repacked: bool,
    /// Delta records drained into the new base.
    pub drained: usize,
    /// The epoch the swap published (unchanged when not repacked).
    pub epoch: u64,
    /// Pages deferred to the epoch GC (recycled once the last reader
    /// of an older epoch drops).
    pub pages_retired: usize,
}

/// The live ingest plane over an [`IHilbert`] base (see module docs).
pub struct LiveIngest<F: FieldModel> {
    writer: Mutex<WriterState<F>>,
    published: RwLock<Arc<EpochSnapshot<F>>>,
    capacity: usize,
    scan_threshold: Option<f64>,
    gauges: OnceLock<IngestGauges>,
}

impl<F: FieldModel> LiveIngest<F> {
    /// Wraps a built (or reopened) index as the epoch-0 base plane and
    /// publishes the first snapshot.
    pub fn new(engine: &StorageEngine, base: IHilbert<F>, config: IngestConfig) -> CfResult<Self> {
        Self::from_state(engine, base, config, 0, Vec::new())
    }

    /// Internal constructor shared by [`LiveIngest::new`] and the
    /// catalog reopen path: seeds the delta (net overlays, e.g. from a
    /// flushed delta file, each counted as one write) and the
    /// publication epoch.
    ///
    /// # Errors
    ///
    /// [`CfError::Corrupt`] when a delta entry overlays a position past
    /// the base cell file.
    pub(crate) fn from_state(
        engine: &StorageEngine,
        base: IHilbert<F>,
        config: IngestConfig,
        epoch: u64,
        delta: Vec<DeltaRec<F::CellRec>>,
    ) -> CfResult<Self> {
        let base = Arc::new(base);
        let router = match config.scan_threshold {
            Some(threshold) => {
                let inner = base.inner();
                let mut intervals: Vec<Interval> = Vec::with_capacity(inner.file.len());
                inner
                    .file
                    .for_each_in_range(engine, 0..inner.file.len(), |_, rec| {
                        intervals.push(F::record_interval(&rec));
                    })?;
                Some(Arc::new(Router::new(intervals.into_iter(), threshold)))
            }
            None => None,
        };
        let mut state = WriterState {
            base,
            writes: 0,
            overlays: HashMap::new(),
            sf_overrides: HashMap::new(),
            epoch,
            repacks: 0,
            router,
            last_drain: Instant::now(),
            last_publish: Instant::now(),
        };
        // Replayed positions come from the on-disk delta file: bound
        // them before anything indexes by them.
        let cells = state.base.inner_len();
        for d in delta {
            if d.pos as usize >= cells {
                return Err(CfError::corrupt(
                    None,
                    format!(
                        "delta record overlays position {}, but the cell file holds {cells} records",
                        d.pos
                    ),
                ));
            }
            state.overlays.insert(d.pos, d.rec);
            state.writes += 1;
        }
        for &pos in state.overlays.keys() {
            let sf_idx = state.base.inner().pos_to_subfield[pos as usize];
            if !state.sf_overrides.contains_key(&sf_idx) {
                let iv = effective_sf_interval(
                    engine,
                    &state.base,
                    &state.overlays,
                    None,
                    sf_idx as usize,
                )?;
                state.sf_overrides.insert(sf_idx, iv);
            }
        }
        let snapshot = make_snapshot(engine, &state);
        let this = Self {
            writer: Mutex::new(state),
            published: RwLock::new(snapshot),
            capacity: config.capacity.max(1),
            scan_threshold: config.scan_threshold,
            gauges: OnceLock::new(),
        };
        {
            let state = this.writer.lock().expect("writer state poisoned");
            this.refresh_gauges(engine, &state);
        }
        Ok(this)
    }

    fn gauges(&self, engine: &StorageEngine) -> &IngestGauges {
        self.gauges.get_or_init(|| IngestGauges::wire(engine))
    }

    /// The currently published epoch snapshot. Queries on the returned
    /// handle are fully isolated: later ingests and repacks publish
    /// *new* snapshots and never mutate this one, and the pages it
    /// reads stay allocated until it is dropped.
    pub fn snapshot(&self) -> Arc<EpochSnapshot<F>> {
        Arc::clone(&self.published.read().expect("published epoch poisoned"))
    }

    /// Applies an updated record for `cell` to the delta plane and
    /// publishes a new epoch. The immutable base is untouched — no tree
    /// surgery — so the write cost is O(subfield size)
    /// for the interval summary plus the snapshot publication.
    ///
    /// When the delta is at capacity, the write first performs an
    /// inline synchronous drain (see [`LiveIngest::repack`]) — the
    /// backpressure path.
    ///
    /// # Errors
    ///
    /// [`cf_storage::CfError::InvalidCell`] when `cell` is not mapped
    /// by the base index, [`cf_storage::CfError::InvalidRecord`] for a
    /// record with a NaN sample (refused before the writer lock is
    /// taken); I/O errors from the interval recompute.
    pub fn ingest(&self, engine: &StorageEngine, cell: usize, record: F::CellRec) -> CfResult<()> {
        check_record::<F>(cell, &record)?;
        let mut state = self.writer.lock().expect("writer state poisoned");
        let pos = state.base.resolve_cell(cell)? as u32;
        if state.writes >= self.capacity {
            self.repack_locked(engine, &mut state)?;
        }
        // Recompute the subfield's interval summary with the new record
        // overlaid *before* mutating any state: if the recompute I/O
        // fails, the write count, overlay map, gauges and published snapshot
        // all still agree (no half-applied write left behind).
        let sf_idx = state.base.inner().pos_to_subfield[pos as usize];
        let iv = effective_sf_interval(
            engine,
            &state.base,
            &state.overlays,
            Some((pos, &record)),
            sf_idx as usize,
        )?;
        state.writes += 1;
        state.overlays.insert(pos, record);
        state.sf_overrides.insert(sf_idx, iv);
        state.epoch += 1;
        self.publish_locked(engine, &mut state);
        Ok(())
    }

    /// Drains the delta plane into a new Hilbert-ordered cell file
    /// segment on fresh pages and publishes the swap as a new epoch.
    /// Run it from a background thread: readers keep querying the old
    /// epoch's snapshot throughout (its pages are epoch-GC-protected),
    /// and only concurrent *writers* briefly serialize behind the
    /// writer mutex.
    ///
    /// Subfields are regrouped by the paper's static cost function, the
    /// rule [`IHilbert::build`] uses, so the new base's catalog depends
    /// on the records alone. The superseded cell-file,
    /// tree and subfield-catalog runs are deferred to the engine's
    /// epoch GC and recycled once the last reader of an older epoch
    /// drops.
    pub fn repack(&self, engine: &StorageEngine) -> CfResult<RepackReport> {
        let mut state = self.writer.lock().expect("writer state poisoned");
        self.repack_locked(engine, &mut state)
    }

    fn repack_locked(
        &self,
        engine: &StorageEngine,
        state: &mut WriterState<F>,
    ) -> CfResult<RepackReport> {
        if state.writes == 0 {
            return Ok(RepackReport {
                repacked: false,
                drained: 0,
                epoch: state.epoch,
                pages_retired: 0,
            });
        }
        let gauges = self.gauges(engine);
        gauges.repack_inflight.set(1.0);
        let (epoch, writes) = (state.epoch, state.writes);
        engine.metrics().journal().emit_with(|| {
            cf_storage::Json::obj([
                ("event", cf_storage::Json::Str("repack_start".into())),
                ("epoch", cf_storage::Json::Num(epoch as f64)),
                ("delta_records", cf_storage::Json::Num(writes as f64)),
            ])
        });
        let result = self.repack_inner(engine, state);
        gauges.repack_inflight.set(0.0);
        result
    }

    fn repack_inner(
        &self,
        engine: &StorageEngine,
        state: &mut WriterState<F>,
    ) -> CfResult<RepackReport> {
        let repack_clock = Stopwatch::start();
        let drained = state.writes;
        // Held past the swap below: `repack_end` compares the two
        // subfield catalogs.
        let old_base = Arc::clone(&state.base);
        let inner = old_base.inner();
        // Materialize the effective cell file: base order (cell
        // geometry never changes, so the Hilbert order — and with it
        // the position map — is preserved) with overlays applied.
        let mut records: Vec<F::CellRec> = inner.file.read_range(engine, 0..inner.file.len())?;
        for (&pos, rec) in &state.overlays {
            records[pos as usize] = rec.clone();
        }
        let intervals: Vec<Interval> = records.iter().map(|r| F::record_interval(r)).collect();
        // Regroup by the rule `IHilbert::build` uses: the catalog is a
        // function of the records alone, never of the query history.
        let subfields = build_subfields(&intervals, SubfieldConfig::default());
        let old_cell = (inner.file.first_page(), inner.file.num_pages());
        let old_tree = inner.tree.page_run();
        let old_sf = (inner.sf_file.first_page(), inner.sf_file.num_pages());

        let curve = state.base.curve();
        let new_inner = SubfieldIndex::build_from_records(
            engine,
            records,
            &subfields,
            &method_label(curve),
            curve.name(),
        )?;
        let new_base = IHilbert::from_parts(new_inner, curve, state.base.cell_to_pos().to_vec());
        new_base.inner().publish_health(engine.metrics(), None);

        if let Some(threshold) = self.scan_threshold {
            state.router = Some(Arc::new(Router::new(intervals.into_iter(), threshold)));
        }
        state.base = Arc::new(new_base);
        state.writes = 0;
        state.overlays.clear();
        state.sf_overrides.clear();
        state.epoch += 1;
        state.repacks += 1;
        state.last_drain = Instant::now();

        // Retire the superseded runs at the new epoch: readers still
        // pinning an older epoch keep them allocated; the engine
        // recycles them on a later `collect_deferred`.
        let mut pages_retired = 0;
        engine.defer_free_run(state.epoch, old_cell.0, old_cell.1);
        pages_retired += old_cell.1;
        if let Some((first, pages)) = old_tree {
            engine.defer_free_run(state.epoch, first, pages);
            pages_retired += pages;
        }
        engine.defer_free_run(state.epoch, old_sf.0, old_sf.1);
        pages_retired += old_sf.1;

        self.publish_locked(engine, state);
        // Opportunistic collection: anything already unpinned (e.g. no
        // reader ever held the old epoch) is recycled right away.
        engine.collect_deferred()?;
        // Write amplification of the drain: the whole cell file is
        // rewritten to fresh pages, so it is records-rewritten per
        // delta record drained.
        let rewritten = state.base.inner_len();
        let write_amp = rewritten as f64 / drained as f64;
        self.gauges(engine).write_amplification.set(write_amp);
        let epoch = state.epoch;
        let wall_ns = repack_clock.elapsed_ns();
        engine.metrics().journal().emit_with(|| {
            cf_storage::Json::obj([
                ("event", cf_storage::Json::Str("repack_end".into())),
                ("epoch", cf_storage::Json::Num(epoch as f64)),
                ("drained", cf_storage::Json::Num(drained as f64)),
                ("subfields", cf_storage::Json::Num(subfields.len() as f64)),
                (
                    "regroups",
                    cf_storage::Json::Num(regrouped(&inner.subfields, &subfields) as f64),
                ),
                ("records_rewritten", cf_storage::Json::Num(rewritten as f64)),
                ("pages_retired", cf_storage::Json::Num(pages_retired as f64)),
                ("write_amplification", cf_storage::Json::Num(write_amp)),
                ("wall_ns", cf_storage::Json::Num(wall_ns as f64)),
            ])
        });
        Ok(RepackReport {
            repacked: true,
            drained,
            epoch: state.epoch,
            pages_retired,
        })
    }

    /// Publishes the writer state as a fresh immutable snapshot,
    /// refreshes the delta-pressure gauges, and journals the epoch
    /// publication (with the age the outgoing epoch reached).
    fn publish_locked(&self, engine: &StorageEngine, state: &mut WriterState<F>) {
        let epoch_age_ns = state.last_publish.elapsed().as_nanos() as u64;
        state.last_publish = Instant::now();
        let snapshot = make_snapshot(engine, state);
        *self.published.write().expect("published epoch poisoned") = snapshot;
        self.gauges(engine).epoch_age_ns.set(epoch_age_ns as f64);
        self.refresh_gauges(engine, state);
        let (epoch, delta_records) = (state.epoch, state.writes);
        engine.metrics().journal().emit_with(|| {
            cf_storage::Json::obj([
                ("event", cf_storage::Json::Str("epoch_published".into())),
                ("epoch", cf_storage::Json::Num(epoch as f64)),
                ("delta_records", cf_storage::Json::Num(delta_records as f64)),
                ("epoch_age_ns", cf_storage::Json::Num(epoch_age_ns as f64)),
            ])
        });
    }

    fn refresh_gauges(&self, engine: &StorageEngine, state: &WriterState<F>) {
        let gauges = self.gauges(engine);
        gauges.delta_records.set(state.writes as f64);
        gauges.epoch.set(state.epoch as f64);
        gauges
            .repack_lag_ns
            .set(state.last_drain.elapsed().as_nanos() as f64);
    }

    /// `(delta records written since the last drain, publication epoch,
    /// completed repacks)` — writer-side introspection for tests and
    /// tools.
    pub fn status(&self) -> (usize, u64, u64) {
        let state = self.writer.lock().expect("writer state poisoned");
        (state.writes, state.epoch, state.repacks)
    }

    /// The effective record of `cell` in the current epoch — the
    /// overlay when the delta touched it, the base record otherwise.
    /// This is the read half of a read-modify-write ingest.
    pub fn cell_record(&self, engine: &StorageEngine, cell: usize) -> CfResult<F::CellRec> {
        let state = self.writer.lock().expect("writer state poisoned");
        let pos = state.base.resolve_cell(cell)?;
        match state.overlays.get(&(pos as u32)) {
            Some(rec) => Ok(rec.clone()),
            None => state.base.inner().file.get(engine, pos),
        }
    }

    /// One consistent writer-side view for persistence: the base
    /// plane, the net delta entries (one per touched position,
    /// ascending — deterministic on-disk order) and the publication
    /// epoch, all captured under a single lock acquisition.
    pub(crate) fn persist_state(&self) -> PersistState<F> {
        let state = self.writer.lock().expect("writer state poisoned");
        let mut deltas: Vec<DeltaRec<F::CellRec>> = state
            .overlays
            .iter()
            .map(|(&pos, rec)| DeltaRec {
                pos,
                rec: rec.clone(),
            })
            .collect();
        deltas.sort_by_key(|d| d.pos);
        (Arc::clone(&state.base), deltas, state.epoch)
    }
}

/// Captures the writer state as an immutable epoch publication,
/// pinning its epoch in the engine's GC domain.
fn make_snapshot<F: FieldModel>(
    engine: &StorageEngine,
    state: &WriterState<F>,
) -> Arc<EpochSnapshot<F>> {
    Arc::new(EpochSnapshot {
        base: Arc::clone(&state.base),
        overlays: Arc::new(state.overlays.clone()),
        sf_overrides: Arc::new(state.sf_overrides.clone()),
        epoch: state.epoch,
        pin: engine.epoch_gc().pin(state.epoch),
        router: state.router.clone(),
    })
}

/// How many subfields of `new` are not subfields of `old` by cell range
/// — what a repack actually regrouped. Both catalogs partition the same
/// positions in order, so one merge pass decides it.
fn regrouped(old: &[Subfield], new: &[Subfield]) -> usize {
    let mut old = old.iter().peekable();
    let kept = new
        .iter()
        .filter(|n| {
            while old.next_if(|o| o.start < n.start).is_some() {}
            old.peek()
                .is_some_and(|o| (o.start, o.end) == (n.start, n.end))
        })
        .count();
    new.len() - kept
}

/// Recomputes a subfield's effective interval — the union of its
/// records' intervals with overlays substituted — exactly as the
/// in-place `update_record` path recomputes it after a write. This is
/// the delta plane's interval summary entry for that subfield.
/// `extra` is a not-yet-applied overlay (the write in flight): the
/// ingest path computes the post-write summary before mutating the
/// overlay map so an I/O error leaves the writer state untouched.
fn effective_sf_interval<F: FieldModel>(
    engine: &StorageEngine,
    base: &IHilbert<F>,
    overlays: &HashMap<u32, F::CellRec>,
    extra: Option<(u32, &F::CellRec)>,
    sf_idx: usize,
) -> CfResult<Interval> {
    let inner = base.inner();
    let sf = inner.subfields[sf_idx];
    let mut union: Option<Interval> = None;
    inner
        .file
        .for_each_in_range(engine, sf.start as usize..sf.end as usize, |idx, rec| {
            let effective = match extra {
                Some((pos, o)) if pos == idx as u32 => F::record_interval(o),
                _ => match overlays.get(&(idx as u32)) {
                    Some(o) => F::record_interval(o),
                    None => F::record_interval(&rec),
                },
            };
            union = Some(match union {
                Some(a) => a.union(effective),
                None => effective,
            });
        })?;
    Ok(union.expect("subfields are non-empty"))
}

/// One immutable published epoch: base index + delta prefix (what
/// [`LiveIngest::snapshot`] returns).
///
/// Implements [`ValueIndex`], so it drops into everything that takes
/// one — including [`crate::QueryBatch`] — and merges base + delta
/// answers byte-identically to the sequential oracle (see module
/// docs). While any clone of the snapshot's `Arc` is alive, the pages
/// of its epoch stay allocated (epoch GC pin).
pub struct EpochSnapshot<F: FieldModel> {
    base: Arc<IHilbert<F>>,
    overlays: Arc<HashMap<u32, F::CellRec>>,
    sf_overrides: Arc<HashMap<u32, Interval>>,
    epoch: u64,
    /// Keeps every run retired after this epoch from being recycled
    /// while the snapshot is alive.
    #[allow(dead_code)]
    pin: EpochPin,
    /// Optional planner threading (see [`IngestConfig::scan_threshold`]).
    router: Option<Arc<Router>>,
}

impl<F: FieldModel> EpochSnapshot<F> {
    /// The publication epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of cell records in the base plane.
    pub fn num_cells(&self) -> usize {
        self.base.inner_len()
    }

    /// The base plane's value domain.
    pub fn value_domain(&self) -> Interval {
        self.base.value_domain()
    }

    /// Number of delta overlays merged into this snapshot's answers.
    #[cfg(test)]
    pub(crate) fn delta_records(&self) -> usize {
        self.overlays.len()
    }

    /// One snapshot query through the base plane's executor call: the
    /// planner (when threaded) picks probe or scan, and the epoch's
    /// delta rides along — the filter answer corrected by the interval
    /// summary, overlays substituted per position. See the module docs
    /// for why each step is byte-identical to the sequential oracle.
    fn execute(
        &self,
        engine: &StorageEngine,
        band: Interval,
        scratch: &mut QueryScratch,
        sink: &mut dyn FnMut(&[Point2]),
    ) -> CfResult<QueryStats> {
        let plan = match &self.router {
            Some(router) => router.route(engine.metrics(), band),
            None => Plan::IndexProbe,
        };
        let delta = Delta {
            overlays: &self.overlays,
            sf_intervals: &self.sf_overrides,
            epoch: self.epoch,
        };
        self.base
            .inner()
            .execute(engine, band, plan, Some(&delta), scratch, sink)
    }
}

impl<F: FieldModel> ValueIndex for EpochSnapshot<F> {
    fn name(&self) -> String {
        self.base.name()
    }

    fn query_with(
        &self,
        engine: &StorageEngine,
        band: Interval,
        sink: &mut dyn FnMut(&[Point2]),
    ) -> CfResult<QueryStats> {
        self.execute(engine, band, &mut QueryScratch::default(), sink)
    }

    fn query_stats_scratch(
        &self,
        engine: &StorageEngine,
        band: Interval,
        scratch: &mut QueryScratch,
    ) -> CfResult<QueryStats> {
        self.execute(engine, band, scratch, &mut |_| {})
    }

    fn index_pages(&self) -> usize {
        self.base.index_pages()
    }

    fn data_pages(&self) -> usize {
        self.base.data_pages()
    }

    fn num_intervals(&self) -> usize {
        self.base.num_intervals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regrouped_counts_new_ranges_only() {
        let catalog = |bounds: &[u32]| -> Vec<Subfield> {
            bounds
                .windows(2)
                .map(|w| Subfield {
                    start: w[0],
                    end: w[1],
                    interval: Interval::new(0.0, 1.0),
                })
                .collect()
        };
        let old = catalog(&[0, 4, 9, 12, 20]);
        assert_eq!(regrouped(&old, &old), 0);
        // One boundary moved: the two subfields beside it are new.
        assert_eq!(regrouped(&old, &catalog(&[0, 4, 8, 12, 20])), 2);
        // A split makes two new ranges, a merge one.
        assert_eq!(regrouped(&old, &catalog(&[0, 4, 9, 12, 15, 20])), 2);
        assert_eq!(regrouped(&old, &catalog(&[0, 9, 12, 20])), 1);
        assert_eq!(regrouped(&[], &old), old.len());
    }
}
