//! The live ingest plane: epoch-based plane swap with
//! snapshot-isolated readers and a background repacker.
//!
//! The paper treats the index as build-once: `update_cell` rewrites a
//! record and its subfield's tree entry in place under `&mut self`, so
//! a continuous sensor stream stalls every reader. This module
//! refactors the mutation path into three cooperating parts:
//!
//! 1. **A mutable delta plane** ([`LiveIngest`]): the net overlay
//!    record per touched position, a count of the writes since the
//!    last drain, and a small interval summary (per-touched-subfield
//!    effective intervals). Ingest
//!    writes land here — the immutable base (cell file and tree
//!    pages) is never touched, so no tree page is written on the
//!    ingest path.
//! 2. **Snapshot-isolated readers** ([`EpochSnapshot`]): every
//!    publication is an immutable epoch — `Arc`-swapped base plane +
//!    delta prefix — that holds its base generation, so the pages it
//!    reads stay allocated while it lives. A reader merges base and delta answers
//!    **byte-identically** to the sequential oracle (an index that
//!    applied every update in place). Every snapshot query probes —
//!    there is no scan plan:
//!    the filter step runs on the base tree and is corrected by the
//!    per-subfield effective intervals (same union-over-records rule
//!    `update_record` uses, same closed-interval intersection
//!    semantics as the tree's `Aabb`), so the retrieved subfield set
//!    equals the oracle's; the estimation step scans the same
//!    coalesced position-ordered runs, substituting each overlay as a
//!    cursor over the overlays sorted by position meets it, so the
//!    float accumulation order — and therefore every area bit — is
//!    identical.
//! 3. **A background repacker** ([`LiveIngest::repack`]): drains the
//!    delta into a new Hilbert-ordered cell file segment on fresh
//!    pages (regrouping subfields by the paper's static cost rule within
//!    each new data page, as the build does), swaps the base `Arc`, and
//!    retires the replaced generation: its page runs are freed once its
//!    last holder drops — the writer, a snapshot, or the plane's last
//!    commit, whose catalog slot names it (DESIGN §14.3).
//!
//! Writers serialize on one mutex; readers never take it — they clone
//! the published `Arc` and query an immutable snapshot, so in-flight
//! queries never observe a half-applied write and a repack never
//! stalls them.
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::exec::Delta;
use crate::gc::Reclaimer;
use crate::ihilbert::{check_record, write_generation, IHilbert};
use crate::sfindex::subfield_of;
use crate::stats::{QueryStats, RegionSink, ValueIndex};
use crate::subfield::{Subfield, SubfieldConfig};
use cf_field::FieldModel;
use cf_geom::Interval;
use cf_storage::{codec, CfError, CfResult, Gauge, PageId, Record, Stopwatch, StorageEngine};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// What [`LiveIngest::persist_state`] hands the catalog writer: the
/// base generation, the net delta entries (ascending by position) and
/// the publication epoch, captured under a single lock acquisition.
pub(crate) type PersistState<F> = (
    Arc<IHilbert<F>>,
    Vec<DeltaRec<<F as FieldModel>::CellRec>>,
    u64,
);

/// One delta-plane entry: the cell-file position an ingest overlays
/// and its replacement record. This is also the on-disk layout of the
/// flushed delta file (the catalog slot's `delta_first .. delta_len` run).
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

/// Construction settings of [`LiveIngest`]: the delta capacity.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Delta capacity, in writes: when an ingest would exceed it, the write
    /// performs an inline synchronous drain (the backpressure path) —
    /// ordinarily a background [`LiveIngest::repack`] drains first.
    pub capacity: usize,
    /// A name, not a knob: `None` is the only value this type holds,
    /// and every snapshot query probes. It keeps the benchmark ladder's
    /// struct literal compiling until ROADMAP item 1 (i) deletes it.
    pub scan_threshold: Option<std::convert::Infallible>,
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
///
/// A generation of the base plane is one `Arc<IHilbert>`, shared by
/// `base`, each snapshot of it and `committed`, so its cell, tree and
/// box runs stay allocated while any of them holds it (the position
/// map is every generation's and is never retired).
struct WriterState<F: FieldModel> {
    /// The immutable base plane of the current epoch.
    base: Arc<IHilbert<F>>,
    /// The generation the plane's last commit names: the base given to
    /// [`LiveIngest::new`] or read by [`LiveIngest::open`] until the
    /// first save, then the one each save wrote. Its runs stay
    /// allocated while the live catalog slot names them.
    committed: Arc<IHilbert<F>>,
    /// Runs of retired generations not yet freed.
    reclaim: Reclaimer<IHilbert<F>>,
    /// Writes since the last drain (several may hit one position; the
    /// overlay map is their net effect), at most `IngestConfig::capacity`.
    writes: usize,
    /// Net overlay per touched cell-file position.
    overlays: HashMap<u32, F::CellRec>,
    /// Effective (overlay-aware) interval per touched subfield — the
    /// delta plane's interval summary, keyed by subfield index.
    sf_overrides: HashMap<u32, Interval>,
    /// Publication counter: bumped on every publish (ingest or
    /// repack).
    epoch: u64,
    /// Completed repacks (epoch swaps that replaced the base).
    repacks: u64,
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
    /// Pages of retired generations not yet freed.
    deferred_free_pages: Gauge,
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
            deferred_free_pages: registry.gauge("storage_deferred_free_pages"),
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
    /// Pages of the replaced generation's cell, tree and box runs,
    /// freed once no snapshot holds that generation and the plane's
    /// last commit no longer names it.
    pub pages_retired: usize,
}

/// The live ingest plane over an [`IHilbert`] base (see module docs).
pub struct LiveIngest<F: FieldModel> {
    writer: Mutex<WriterState<F>>,
    published: RwLock<Arc<EpochSnapshot<F>>>,
    capacity: usize,
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
        let mut state = WriterState {
            committed: Arc::clone(&base),
            base,
            reclaim: Reclaimer::default(),
            writes: 0,
            overlays: HashMap::new(),
            sf_overrides: HashMap::new(),
            epoch,
            repacks: 0,
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
            let sf_idx = subfield_of(&state.base.inner.subfields, pos);
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
        let snapshot = make_snapshot(&state);
        let this = Self {
            writer: Mutex::new(state),
            published: RwLock::new(snapshot),
            capacity: config.capacity.max(1),
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
    /// reads stay allocated until it is dropped (it holds its base
    /// generation).
    pub fn snapshot(&self) -> Arc<EpochSnapshot<F>> {
        Arc::clone(&self.published.read().expect("published epoch poisoned"))
    }

    /// Applies an updated record for `cell` to the delta plane and
    /// publishes a new epoch. The immutable base is untouched — no tree
    /// page is written — so the write cost is O(subfield size) for the
    /// interval summary plus the snapshot publication.
    ///
    /// When the delta is at capacity, the write first performs an
    /// inline synchronous drain (see [`LiveIngest::repack`]) — the
    /// backpressure path.
    ///
    /// # Errors
    ///
    /// [`cf_storage::CfError::InvalidCell`] when `cell` is not mapped
    /// by the base index, [`cf_storage::CfError::InvalidRecord`] for a
    /// record with a NaN sample, or whose box has a non-finite bound or
    /// an overflowing area (refused before the writer lock is taken);
    /// I/O errors from the interval recompute.
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
        let sf_idx = subfield_of(&state.base.inner.subfields, pos);
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
    /// epoch's snapshot throughout (it holds its generation), and only
    /// concurrent *writers* briefly serialize behind the writer mutex.
    ///
    /// Subfields are regrouped by the paper's static cost function
    /// within each page of the new cell file, the rule
    /// [`IHilbert::build`] uses, so the new base's catalog depends on
    /// the records alone, and so is the new box file. The new cell file
    /// keeps the replaced one's page codec, whatever the engine's
    /// configured codec. The replaced generation is retired: its cell
    /// file, tree and box file runs are freed once no snapshot holds it
    /// and the plane's last commit no longer names it — at the end of
    /// this repack when nothing does, else at a later repack or
    /// [`LiveIngest::save_to`]. The position map carries over to the
    /// new base.
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
        let inner = &old_base.inner;
        // Materialize the effective cell file: base order (cell
        // geometry never changes, so the Hilbert order — and with it
        // the position map — is preserved) with overlays applied.
        let mut records: Vec<F::CellRec> = inner.file.read_range(engine, 0..inner.file.len())?;
        for (&pos, rec) in &state.overlays {
            records[pos as usize] = rec.clone();
        }
        let intervals: Vec<Interval> = records.iter().map(|r| F::record_interval(r)).collect();
        // Regroup by the rule `IHilbert::build` uses: the catalog is a
        // function of the records and the new file's pages alone, never
        // of the query history.
        let curve = old_base.curve;
        let (new_inner, box_file, subfields) = write_generation(
            engine,
            old_base.cell_codec(),
            records,
            &intervals,
            curve,
            SubfieldConfig::default(),
        )?;
        let new_base = IHilbert {
            inner: new_inner,
            curve,
            cell_to_pos: old_base.cell_to_pos.clone(),
            pos_file: old_base.pos_file.clone(),
            box_file,
        };
        new_base.inner.publish_health(engine.metrics(), None);

        state.base = Arc::new(new_base);
        state.writes = 0;
        state.overlays.clear();
        state.sf_overrides.clear();
        state.epoch += 1;
        state.repacks += 1;
        state.last_drain = Instant::now();

        let pages_retired = self.retire(engine, state, &old_base);
        self.publish_locked(engine, state);
        let regroups = regrouped(&inner.subfields, &subfields);
        // With this handle gone, the old generation's runs are freed
        // unless a snapshot or the last commit still holds it.
        drop(old_base);
        self.free_unheld(engine, state, StorageEngine::free_run)?;
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
                ("regroups", cf_storage::Json::Num(regroups as f64)),
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

    /// Retires `old`, the generation a repack just replaced: its cell,
    /// tree and box runs are listed until its last holder drops. Counts
    /// them as deferred (the publish that follows refreshes the gauge),
    /// one `run_deferred` event each, and returns their pages.
    fn retire(
        &self,
        engine: &StorageEngine,
        state: &mut WriterState<F>,
        old: &Arc<IHilbert<F>>,
    ) -> usize {
        let epoch = state.epoch;
        let runs = &old.page_runs()[..3];
        state.reclaim.retire(old, runs, |first, pages, deferred| {
            engine.metrics().journal().emit_with(|| {
                cf_storage::Json::obj([
                    ("event", cf_storage::Json::Str("run_deferred".into())),
                    ("retire_epoch", cf_storage::Json::Num(epoch as f64)),
                    ("first_page", cf_storage::Json::Num(first.0 as f64)),
                    ("pages", cf_storage::Json::Num(pages as f64)),
                    ("deferred_total", cf_storage::Json::Num(deferred as f64)),
                ])
            });
        })
    }

    /// Frees the runs of retired generations whose last holder dropped
    /// through `free`, oldest first, one `run_reclaimed` event each.
    /// When a free fails, the runs not yet freed stay listed for the
    /// next repack or save.
    fn free_unheld(
        &self,
        engine: &StorageEngine,
        state: &mut WriterState<F>,
        free: fn(&StorageEngine, PageId, usize) -> CfResult<()>,
    ) -> CfResult<()> {
        let result = state.reclaim.free_unheld(|first, pages| {
            free(engine, first, pages)?;
            engine.metrics().journal().emit_with(|| {
                cf_storage::Json::obj([
                    ("event", cf_storage::Json::Str("run_reclaimed".into())),
                    ("first_page", cf_storage::Json::Num(first.0 as f64)),
                    ("pages", cf_storage::Json::Num(pages as f64)),
                ])
            });
            Ok(())
        });
        self.refresh_gauges(engine, state);
        result
    }

    /// Records that the plane's last commit names `generation`, the one
    /// [`LiveIngest::persist_state`] gave the save that wrote it, and
    /// frees what only the previous commit held. Called by
    /// [`LiveIngest::save_to`] after its commit write.
    ///
    /// The frees are in place ([`StorageEngine::free_run_in_place`]): a
    /// run that ends a database file stays on the freelist instead of
    /// shrinking it. Shrinking frees the file's blocks (2–3 ms for a
    /// 64k-cell generation), which would land in the commit path every
    /// other round of repack + save; the next repack writes its
    /// generation into the hole instead.
    pub(crate) fn commit_landed(
        &self,
        engine: &StorageEngine,
        generation: Arc<IHilbert<F>>,
    ) -> CfResult<()> {
        let mut state = self.writer.lock().expect("writer state poisoned");
        state.committed = generation;
        self.free_unheld(engine, &mut state, StorageEngine::free_run_in_place)
    }

    /// Publishes the writer state as a fresh immutable snapshot,
    /// refreshes the delta-pressure gauges, and journals the epoch
    /// publication (with the age the outgoing epoch reached).
    fn publish_locked(&self, engine: &StorageEngine, state: &mut WriterState<F>) {
        let epoch_age_ns = state.last_publish.elapsed().as_nanos() as u64;
        state.last_publish = Instant::now();
        let snapshot = make_snapshot(state);
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
        gauges
            .deferred_free_pages
            .set(state.reclaim.deferred_pages() as f64);
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
            None => state.base.inner.file.get(engine, pos),
        }
    }

    /// One consistent writer-side view for persistence: the base
    /// generation, the net delta entries (one per touched position,
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

/// Captures the writer state as an immutable epoch publication.
fn make_snapshot<F: FieldModel>(state: &WriterState<F>) -> Arc<EpochSnapshot<F>> {
    Arc::new(EpochSnapshot {
        base: Arc::clone(&state.base),
        overlays: Arc::new(state.overlays.clone()),
        sf_overrides: Arc::new(state.sf_overrides.clone()),
        epoch: state.epoch,
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
/// records' intervals with overlays substituted — by the same rule the
/// in-place `update_record` path uses after a write. This is
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
    base.inner.subfield_union(engine, sf_idx, |pos, rec| {
        let rec = match extra {
            Some((p, o)) if p == pos => o,
            _ => overlays.get(&pos).unwrap_or(rec),
        };
        F::record_interval(rec)
    })
}

/// One immutable published epoch: base index + delta prefix (what
/// [`LiveIngest::snapshot`] returns).
///
/// Implements [`ValueIndex`], so it drops into everything that takes
/// one — including [`crate::QueryBatch`] — and merges base + delta
/// answers byte-identically to the sequential oracle (see module
/// docs). While any clone of the snapshot's `Arc` is alive, the pages
/// it reads stay allocated: it holds its base generation.
pub struct EpochSnapshot<F: FieldModel> {
    base: Arc<IHilbert<F>>,
    overlays: Arc<HashMap<u32, F::CellRec>>,
    sf_overrides: Arc<HashMap<u32, Interval>>,
    epoch: u64,
}

impl<F: FieldModel> EpochSnapshot<F> {
    /// The publication epoch of this snapshot.
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
}

impl<F: FieldModel> ValueIndex for EpochSnapshot<F> {
    fn name(&self) -> String {
        self.base.name()
    }

    /// One snapshot query through the base plane's executor call, with
    /// the epoch's delta riding along: the filter answer corrected by
    /// the interval summary, overlays substituted per position. See the
    /// module docs for why each step is byte-identical to the
    /// sequential oracle.
    fn query(
        &self,
        engine: &StorageEngine,
        band: Interval,
        sink: Option<RegionSink<'_>>,
    ) -> CfResult<QueryStats> {
        let delta = Delta {
            overlays: &self.overlays,
            sf_intervals: &self.sf_overrides,
            epoch: self.epoch,
        };
        self.base.inner.execute(engine, band, Some(&delta), sink)
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
