//! Database catalog: persisting an I-Hilbert index so a (file-backed)
//! database can be closed and reopened by a later process.
//!
//! Everything the index owns already lives on pages — the cell file, the
//! subfield metadata file, the position-map file and the R\*-tree. The
//! catalog records where each of those starts, plus a magic/version
//! header; [`IHilbert::save`] writes it and [`IHilbert::open`]
//! reattaches.
//!
//! # Shadow-paged atomic commit
//!
//! The catalog occupies a run of **two** pages — two versioned slots.
//! Each slot carries an epoch counter and a CRC-32 over its contents.
//! [`IHilbert::save_to`] never overwrites the live slot: it writes the
//! freshly serialized catalog into the *inactive* slot with
//! `epoch = live_epoch + 1`. That single page write is the commit point;
//! a crash (or injected fault) anywhere before it leaves the old slot
//! untouched, and a torn write of the new slot fails its CRC, so
//! [`IHilbert::open`] — which picks the highest-epoch slot that
//! validates — falls back to the previous consistent catalog. See
//! DESIGN.md §9 for the full protocol and its caveats.
//!
//! # The database file
//!
//! A database file made by [`create_database`] starts with a bootstrap
//! page (page 0: magic + the catalog run's first page id), so a later
//! process finds the catalog with [`read_bootstrap`] alone.
//! [`open_database`] reopens such a file and refuses a path with no file
//! behind it, which [`StorageEngine::open_file`] would create.

use crate::ihilbert::{method_label, IHilbert};
use crate::ingest::{DeltaRec, IngestConfig, LiveIngest};
use crate::sfindex::SubfieldIndex;
use crate::subfield::Subfield;
use cf_field::FieldModel;
use cf_rtree::PagedRTree;
use cf_sfc::Curve;
use cf_storage::{
    checksum, codec, CellFile, CfError, CfResult, PageBuf, PageCodec, PageId, Record, RecordFile,
    StorageConfig, StorageEngine, PAGE_SIZE,
};
use std::path::Path;

/// Catalog page magic ("CFIELDB1" in LE bytes).
const MAGIC: u64 = 0x3142_444C_4549_4643;
/// Catalog format version (2 = two-slot epoch commit; 3 appends the
/// page codec tag and the cell/subfield files' data-page counts, which
/// the compressed layout needs to locate its page directory; 4 appends
/// the live-ingest epoch pointer and the flushed delta file's run, so
/// a [`LiveIngest`] plane survives close/reopen).
const VERSION: u32 = 4;
/// Number of slot pages a catalog occupies.
const NUM_SLOTS: u64 = 2;
/// Bytes covered by the slot checksum (header + payload).
const CRC_COVER: usize = 144;

/// A `u32` cell→position mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PosRecord(pub(crate) u32);

impl Record for PosRecord {
    const SIZE: usize = 4;

    fn encode(&self, buf: &mut [u8]) {
        codec::put_u32(buf, 0, self.0);
    }

    fn decode(buf: &[u8]) -> Self {
        Self(codec::get_u32(buf, 0))
    }
}

fn curve_tag(curve: Curve) -> u32 {
    match curve {
        Curve::Hilbert => 0,
        Curve::ZOrder => 1,
        Curve::GrayCode => 2,
        Curve::RowMajor => 3,
    }
}

fn curve_from_tag(tag: u32) -> Option<Curve> {
    match tag {
        0 => Some(Curve::Hilbert),
        1 => Some(Curve::ZOrder),
        2 => Some(Curve::GrayCode),
        3 => Some(Curve::RowMajor),
        _ => None,
    }
}

/// One decoded catalog slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    curve: Curve,
    epoch: u64,
    cell_first: u64,
    cell_len: usize,
    sf_first: u64,
    sf_len: usize,
    pos_first: u64,
    pos_len: usize,
    t_root: u64,
    t_height: u32,
    t_len: u64,
    t_pages: u64,
    codec: PageCodec,
    cell_data_pages: u64,
    sf_data_pages: u64,
    /// Live-ingest publication epoch at save time (0: plain index
    /// save, no ingest plane).
    ingest_epoch: u64,
    /// First page of the flushed net-delta record file (meaningless
    /// when `delta_len == 0`).
    delta_first: u64,
    /// Net delta records flushed alongside the base (0: empty delta).
    delta_len: usize,
}

fn encode_slot(slot: &Slot) -> PageBuf {
    let mut buf: PageBuf = [0u8; PAGE_SIZE];
    let mut off = 0;
    off = codec::put_u64(&mut buf, off, MAGIC);
    off = codec::put_u32(&mut buf, off, VERSION);
    off = codec::put_u32(&mut buf, off, curve_tag(slot.curve));
    off = codec::put_u64(&mut buf, off, slot.epoch);
    off = codec::put_u64(&mut buf, off, slot.cell_first);
    off = codec::put_u64(&mut buf, off, slot.cell_len as u64);
    off = codec::put_u64(&mut buf, off, slot.sf_first);
    off = codec::put_u64(&mut buf, off, slot.sf_len as u64);
    off = codec::put_u64(&mut buf, off, slot.pos_first);
    off = codec::put_u64(&mut buf, off, slot.pos_len as u64);
    off = codec::put_u64(&mut buf, off, slot.t_root);
    off = codec::put_u32(&mut buf, off, slot.t_height);
    off = codec::put_u64(&mut buf, off, slot.t_len);
    off = codec::put_u64(&mut buf, off, slot.t_pages);
    off = codec::put_u32(&mut buf, off, slot.codec.tag());
    off = codec::put_u64(&mut buf, off, slot.cell_data_pages);
    off = codec::put_u64(&mut buf, off, slot.sf_data_pages);
    off = codec::put_u64(&mut buf, off, slot.ingest_epoch);
    off = codec::put_u64(&mut buf, off, slot.delta_first);
    let end = codec::put_u64(&mut buf, off, slot.delta_len as u64);
    debug_assert_eq!(end, CRC_COVER);
    let crc = checksum::crc32(&buf[..CRC_COVER]);
    codec::put_u32(&mut buf, CRC_COVER, crc);
    buf
}

/// Decodes one slot page, validating magic, version, curve tag and the
/// slot CRC. Every failure is a typed [`CfError::Corrupt`] naming the
/// slot page and what was wrong with it.
fn decode_slot(page: PageId, buf: &PageBuf) -> CfResult<Slot> {
    let mut off = 0;
    let magic = codec::get_u64(buf, off);
    off += 8;
    if magic != MAGIC {
        return Err(CfError::corrupt(
            page,
            format!("not a contfield catalog page (magic {magic:#018x}, expected {MAGIC:#018x})"),
        ));
    }
    let version = codec::get_u32(buf, off);
    off += 4;
    if version != VERSION {
        return Err(CfError::corrupt(
            page,
            format!("unsupported catalog version {version} (this build reads version {VERSION})"),
        ));
    }
    let stored_crc = codec::get_u32(buf, CRC_COVER);
    let computed = checksum::crc32(&buf[..CRC_COVER]);
    if stored_crc != computed {
        return Err(CfError::corrupt(
            page,
            format!(
                "catalog slot checksum mismatch (stored {stored_crc:#010x}, computed \
                 {computed:#010x}) — torn or partial commit"
            ),
        ));
    }
    let tag = codec::get_u32(buf, off);
    off += 4;
    let curve = curve_from_tag(tag).ok_or_else(|| {
        CfError::corrupt(
            page,
            format!("unknown curve tag {tag} (known: 0=Hilbert, 1=ZOrder, 2=GrayCode, 3=RowMajor)"),
        )
    })?;
    let epoch = codec::get_u64(buf, off);
    off += 8;
    let cell_first = codec::get_u64(buf, off);
    off += 8;
    let cell_len = codec::get_u64(buf, off) as usize;
    off += 8;
    let sf_first = codec::get_u64(buf, off);
    off += 8;
    let sf_len = codec::get_u64(buf, off) as usize;
    off += 8;
    let pos_first = codec::get_u64(buf, off);
    off += 8;
    let pos_len = codec::get_u64(buf, off) as usize;
    off += 8;
    let t_root = codec::get_u64(buf, off);
    off += 8;
    let t_height = codec::get_u32(buf, off);
    off += 4;
    let t_len = codec::get_u64(buf, off);
    off += 8;
    let t_pages = codec::get_u64(buf, off);
    off += 8;
    let codec_tag = codec::get_u32(buf, off);
    off += 4;
    let codec = PageCodec::from_tag(codec_tag).ok_or_else(|| {
        CfError::corrupt(
            page,
            format!("unknown page codec tag {codec_tag} (known: 0=raw, 1=compressed)"),
        )
    })?;
    let cell_data_pages = codec::get_u64(buf, off);
    off += 8;
    let sf_data_pages = codec::get_u64(buf, off);
    off += 8;
    let ingest_epoch = codec::get_u64(buf, off);
    off += 8;
    let delta_first = codec::get_u64(buf, off);
    off += 8;
    let delta_len = codec::get_u64(buf, off) as usize;
    Ok(Slot {
        curve,
        epoch,
        cell_first,
        cell_len,
        sf_first,
        sf_len,
        pos_first,
        pos_len,
        t_root,
        t_height,
        t_len,
        t_pages,
        codec,
        cell_data_pages,
        sf_data_pages,
        ingest_epoch,
        delta_first,
        delta_len,
    })
}

/// Reads and decodes one slot page; any failure (unreadable page,
/// failed page checksum, bad slot contents) comes back as `Err`.
fn read_slot(engine: &StorageEngine, page: PageId) -> CfResult<Slot> {
    engine.try_with_page(page, |buf| decode_slot(page, buf))
}

impl<F: FieldModel> IHilbert<F> {
    /// Persists the index catalog into a freshly allocated two-slot
    /// catalog run, returning its first page id (the database's
    /// "bootstrap" pointer — store it at a known location, e.g. page 0,
    /// or externally).
    pub fn save(&self, engine: &StorageEngine) -> CfResult<PageId> {
        let catalog = engine.allocate_run(NUM_SLOTS as usize)?;
        self.save_to(engine, catalog)?;
        Ok(catalog)
    }

    /// Persists the index catalog into an existing two-slot catalog run
    /// (allocated by a previous [`IHilbert::save`]), committing via the
    /// shadow-slot protocol.
    ///
    /// The cell file, subfield file and tree pages are already on disk;
    /// this writes the cell→position map to fresh pages, then commits by
    /// writing the serialized catalog into the slot that is *not*
    /// currently live. The old catalog stays intact (and wins on
    /// [`IHilbert::open`]) until that final single-page write lands
    /// whole.
    pub fn save_to(&self, engine: &StorageEngine, catalog: PageId) -> CfResult<()> {
        self.save_slot_with_delta(engine, catalog, 0, 0, 0)
    }

    /// Shared commit path of [`IHilbert::save_to`] and
    /// [`LiveIngest::save_to`]: writes the next shadow slot, carrying
    /// the live-ingest epoch pointer and the (already flushed) net
    /// delta run. A plain index save passes zeros.
    pub(crate) fn save_slot_with_delta(
        &self,
        engine: &StorageEngine,
        catalog: PageId,
        ingest_epoch: u64,
        delta_first: u64,
        delta_len: usize,
    ) -> CfResult<()> {
        // Lenient look at both slots: an unreadable or invalid slot is
        // simply not live. `max_by_key` breaks ties toward slot 1, so a
        // (never-produced) epoch tie still yields a deterministic pick.
        let slots: Vec<Option<Slot>> = (0..NUM_SLOTS)
            .map(|i| read_slot(engine, PageId(catalog.0 + i)).ok())
            .collect();
        let live = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s.epoch)))
            .max_by_key(|&(_, e)| e);
        let (target, epoch) = match live {
            Some((live_idx, live_epoch)) => (1 - live_idx as u64, live_epoch + 1),
            None => (0, 1),
        };
        // The slot about to be overwritten references the
        // previous-but-one epoch's position map; once the commit below
        // lands, no slot references it and its run can be freed.
        let replaced_pos = slots[target as usize].map(|s| {
            let pages = RecordFile::<PosRecord>::open(PageId(s.pos_first), s.pos_len).num_pages();
            (PageId(s.pos_first), pages)
        });
        // Same lifecycle for the replaced slot's flushed delta run:
        // dead once no slot references it, freed only after the commit.
        let replaced_delta = slots[target as usize].and_then(|s| {
            if s.delta_len == 0 {
                return None;
            }
            let pages =
                RecordFile::<DeltaRec<F::CellRec>>::open(PageId(s.delta_first), s.delta_len)
                    .num_pages();
            Some((PageId(s.delta_first), pages))
        });

        // The only index state not already on its own pages: the
        // cell→position map. Written to fresh pages, never in place, so
        // the slot still referencing the old copy stays consistent.
        let pos_file = RecordFile::create(
            engine,
            self.cell_to_pos()
                .iter()
                .map(|&p| PosRecord(p))
                .collect::<Vec<_>>(),
        )?;
        // Commit-ordering invariant: everything the new slot references
        // must be physically on disk before the slot write. Record-file
        // creation (including the pos file above) buffers its writes,
        // so flush the pool here — ascending page order, deterministic
        // fault ordinals — before the commit point below.
        engine.flush()?;
        let inner = self.inner();
        let (t_root, t_height, t_len, t_pages) = inner.tree.to_parts();
        let slot = Slot {
            curve: self.curve(),
            epoch,
            cell_first: inner.file.first_page().0,
            cell_len: inner.file.len(),
            sf_first: inner.sf_file.first_page().0,
            sf_len: inner.sf_file.len(),
            pos_first: pos_file.first_page().0,
            pos_len: pos_file.len(),
            t_root,
            t_height,
            t_len,
            t_pages,
            codec: inner.file.codec(),
            cell_data_pages: inner.file.data_pages() as u64,
            sf_data_pages: inner.sf_file.data_pages() as u64,
            ingest_epoch,
            delta_first,
            delta_len,
        };
        // Commit point: one full-page write. Torn → CRC mismatch → the
        // slot is not live and the previous epoch still wins.
        engine.write_page(PageId(catalog.0 + target), &encode_slot(&slot))?;
        // Garbage-collect the superseded position map, keeping repeated
        // saves from growing the file without bound (two pos files stay
        // in flight: the live epoch's and the fallback slot's). Ordered
        // after the commit, so a crash anywhere earlier leaves it
        // intact for the fallback slot; a crash between the commit and
        // this free leaks the run, never corrupts.
        if let Some((first, pages)) = replaced_pos {
            if first.0 != slot.pos_first {
                engine.free_run(first, pages)?;
            }
        }
        if let Some((first, pages)) = replaced_delta {
            if first.0 != slot.delta_first || slot.delta_len == 0 {
                engine.free_run(first, pages)?;
            }
        }
        Ok(())
    }

    /// Reattaches to an index saved with [`IHilbert::save`] — typically
    /// on a file-backed engine reopened by a new process.
    ///
    /// Picks the highest-epoch slot that validates (magic, version,
    /// CRC). Returns [`CfError::Corrupt`] when neither slot holds a
    /// consistent catalog, or when the winning slot references pages
    /// past the end of the database (a corrupt length field).
    pub fn open(engine: &StorageEngine, catalog: PageId) -> CfResult<Self> {
        Self::open_slot(engine, catalog).map(|(index, _)| index)
    }

    /// [`IHilbert::open`] plus the winning slot itself, so the
    /// live-ingest reopen path can reach the v4 delta fields.
    fn open_slot(engine: &StorageEngine, catalog: PageId) -> CfResult<(Self, Slot)> {
        let mut winner: Option<Slot> = None;
        let mut failures: Vec<String> = Vec::new();
        for i in 0..NUM_SLOTS {
            match read_slot(engine, PageId(catalog.0 + i)) {
                Ok(slot) => {
                    if winner.is_none_or(|w| slot.epoch > w.epoch) {
                        winner = Some(slot);
                    }
                }
                Err(e) => failures.push(format!("slot {i}: {e}")),
            }
        }
        let Some(slot) = winner else {
            return Err(CfError::corrupt(
                catalog,
                format!("no valid catalog slot ({})", failures.join("; ")),
            ));
        };

        let pos_file = RecordFile::<PosRecord>::open(PageId(slot.pos_first), slot.pos_len);

        // Validate every referenced span against the database size
        // before reading (or allocating buffers for) any of it: a
        // corrupt length would otherwise demand absurd memory or fault
        // unallocated pages one by one. Spans are computed from the
        // slot fields alone — opening a compressed file reads its
        // directory, which must not happen before this check.
        let cell_pages = CellFile::<F::CellRec>::span_pages(
            slot.codec,
            slot.cell_len,
            slot.cell_data_pages as usize,
        ) as u64;
        let sf_pages =
            CellFile::<Subfield>::span_pages(slot.codec, slot.sf_len, slot.sf_data_pages as usize)
                as u64;
        let num_pages = engine.num_pages() as u64;
        let delta_pages = if slot.delta_len > 0 {
            RecordFile::<DeltaRec<F::CellRec>>::open(PageId(slot.delta_first), slot.delta_len)
                .num_pages() as u64
        } else {
            0
        };
        let spans = [
            ("cell file", slot.cell_first, cell_pages),
            ("subfield file", slot.sf_first, sf_pages),
            ("position map", slot.pos_first, pos_file.num_pages() as u64),
            ("tree root", slot.t_root, 1),
            ("delta file", slot.delta_first, delta_pages),
        ];
        for (what, first, len) in spans {
            if first.saturating_add(len) > num_pages {
                return Err(CfError::corrupt(
                    catalog,
                    format!(
                        "catalog {what} spans pages {first}..{} but the database has {num_pages} \
                         pages",
                        first.saturating_add(len)
                    ),
                ));
            }
        }
        let file = CellFile::<F::CellRec>::open(
            engine,
            slot.codec,
            PageId(slot.cell_first),
            slot.cell_len,
            slot.cell_data_pages as usize,
        )?;
        let sf_file = CellFile::<Subfield>::open(
            engine,
            slot.codec,
            PageId(slot.sf_first),
            slot.sf_len,
            slot.sf_data_pages as usize,
        )?;

        let mut tree = PagedRTree::from_parts(slot.t_root, slot.t_height, slot.t_len, slot.t_pages);
        tree.attach_metrics(engine);
        let label = method_label(slot.curve);
        let inner = SubfieldIndex::open(engine, file, tree, sf_file, &label, slot.curve.name())?;
        let cell_to_pos: Vec<u32> = pos_file
            .read_range(engine, 0..slot.pos_len)?
            .into_iter()
            .map(|r| r.0)
            .collect();

        let index = Self::from_parts(inner, slot.curve, cell_to_pos);
        // Structural health gauges come straight from the reopened
        // metadata; the cost-C distribution needs per-cell intervals and
        // reappears on the first update.
        index.inner().publish_health(engine.metrics(), None);
        Ok((index, slot))
    }
}

impl<F: FieldModel> LiveIngest<F> {
    /// Persists the ingest plane into a freshly allocated two-slot
    /// catalog run: base index + flushed net delta + epoch pointer.
    pub fn save(&self, engine: &StorageEngine) -> CfResult<PageId> {
        let catalog = engine.allocate_run(NUM_SLOTS as usize)?;
        self.save_to(engine, catalog)?;
        Ok(catalog)
    }

    /// Persists the ingest plane into an existing catalog run via the
    /// shadow-slot protocol, in crash-ordered steps: (1) flush the net
    /// delta to a fresh record-file run, (2) commit the v4 slot
    /// (pointing at base + delta + epoch) with one page write, (3)
    /// free the runs only the replaced slot referenced. A crash
    /// anywhere in the sequence leaves a previous consistent epoch
    /// winning on reopen.
    pub fn save_to(&self, engine: &StorageEngine, catalog: PageId) -> CfResult<()> {
        let (base, deltas, epoch) = self.persist_state();
        let (delta_first, delta_len) = if deltas.is_empty() {
            (0, 0)
        } else {
            let len = deltas.len();
            let file = RecordFile::create(engine, deltas)?;
            (file.first_page().0, len)
        };
        base.save_slot_with_delta(engine, catalog, epoch, delta_first, delta_len)
    }

    /// Reattaches a saved ingest plane: reopens the base index from
    /// the winning slot, replays the flushed net delta into the
    /// overlay maps (rebuilding the per-subfield interval summary) and
    /// resumes publishing from the persisted epoch.
    pub fn open(engine: &StorageEngine, catalog: PageId, config: IngestConfig) -> CfResult<Self> {
        let (base, slot) = IHilbert::<F>::open_slot(engine, catalog)?;
        let ring: Vec<DeltaRec<F::CellRec>> = if slot.delta_len > 0 {
            RecordFile::<DeltaRec<F::CellRec>>::open(PageId(slot.delta_first), slot.delta_len)
                .read_range(engine, 0..slot.delta_len)?
        } else {
            Vec::new()
        };
        Self::from_state(engine, base, config, slot.ingest_epoch, ring)
    }
}

/// Bootstrap page magic ("CBIFLDB1" in LE bytes).
const BOOT_MAGIC: u64 = 0x3142_444C_4649_4243;
/// The bootstrap page: the first page of a database file.
const BOOT_PAGE: PageId = PageId(0);

/// Creates a database file at `path`, which must not exist yet, with
/// its first page reserved for the bootstrap page; point it at the
/// catalog with [`write_bootstrap`] once the index is saved.
pub fn create_database(
    path: impl AsRef<Path>,
    config: StorageConfig,
) -> Result<StorageEngine, String> {
    let path = path.as_ref();
    if path.exists() {
        return Err(format!(
            "{} already exists; refusing to overwrite",
            path.display()
        ));
    }
    let engine = StorageEngine::open_file(path, config)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let boot = engine.allocate_page().map_err(|e| e.to_string())?;
    assert_eq!(boot, BOOT_PAGE, "a fresh file allocates page 0 first");
    Ok(engine)
}

/// Opens the existing database file at `path`. A path with no file
/// behind it is `<path>: no such database`, and nothing is created —
/// not the file, not its `.crc` and `.fsm` sidecars.
pub fn open_database(
    path: impl AsRef<Path>,
    config: StorageConfig,
) -> Result<StorageEngine, String> {
    let path = path.as_ref();
    if !path.exists() {
        return Err(format!("{}: no such database", path.display()));
    }
    StorageEngine::open_file(path, config)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))
}

/// Points the bootstrap page of a database made by [`create_database`]
/// at the catalog run `catalog` (as returned by [`IHilbert::save`]).
pub fn write_bootstrap(engine: &StorageEngine, catalog: PageId) -> CfResult<()> {
    let mut buf: PageBuf = [0u8; PAGE_SIZE];
    let off = codec::put_u64(&mut buf, 0, BOOT_MAGIC);
    codec::put_u64(&mut buf, off, catalog.0);
    engine.write_page(BOOT_PAGE, &buf)
}

/// The catalog run the bootstrap page points at. An empty file, or a
/// first page without the bootstrap magic, is [`CfError::Corrupt`].
pub fn read_bootstrap(engine: &StorageEngine) -> CfResult<PageId> {
    if engine.num_pages() == 0 {
        return Err(CfError::corrupt(None, "empty database file"));
    }
    let (magic, catalog) =
        engine.with_page(BOOT_PAGE, |p| (codec::get_u64(p, 0), codec::get_u64(p, 8)))?;
    if magic != BOOT_MAGIC {
        return Err(CfError::corrupt(
            BOOT_PAGE,
            format!("not a fielddb database (bootstrap magic {magic:#018x}, expected {BOOT_MAGIC:#018x})"),
        ));
    }
    Ok(PageId(catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::stats::ValueIndex;
    use cf_field::GridField;
    use cf_geom::Interval;

    fn bumpy_field(n: usize) -> GridField {
        let vw = n + 1;
        let mut values = Vec::new();
        for y in 0..vw {
            for x in 0..vw {
                values.push((x as f64 * 0.3).sin() * 20.0 + (y as f64 * 0.2).cos() * 15.0);
            }
        }
        GridField::from_values(vw, vw, values)
    }

    #[test]
    fn save_open_round_trip_in_memory() {
        let engine = StorageEngine::in_memory();
        let field = bumpy_field(24);
        let built = IHilbert::build(&engine, &field).expect("build");
        let catalog = built.save(&engine).expect("save");

        let reopened: IHilbert<GridField> = IHilbert::open(&engine, catalog).expect("open");
        assert_eq!(reopened.num_subfields(), built.num_subfields());
        for band in [
            Interval::new(-10.0, 10.0),
            Interval::point(0.0),
            Interval::new(30.0, 40.0),
        ] {
            let a = built.query_stats(&engine, band).expect("query");
            let b = reopened.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert!((a.area - b.area).abs() < 1e-12);
        }
    }

    #[test]
    fn reopened_index_supports_updates() {
        let engine = StorageEngine::in_memory();
        let field = bumpy_field(12);
        let built = IHilbert::build(&engine, &field).expect("build");
        let catalog = built.save(&engine).expect("save");
        let mut reopened: IHilbert<GridField> = IHilbert::open(&engine, catalog).expect("open");

        // Update through the reopened handle and verify against a scan.
        let cell = 17;
        let rec = cf_field::GridCellRecord {
            vals: [500.0; 4],
            ..field.cell_record(cell)
        };
        reopened.update_cell(&engine, cell, rec).expect("update");
        let stats = reopened
            .query_stats(&engine, Interval::new(499.0, 501.0))
            .expect("query");
        assert_eq!(stats.cells_qualifying, 1);

        // A second save/open carries the update forward.
        let catalog2 = reopened.save(&engine).expect("save");
        let third: IHilbert<GridField> = IHilbert::open(&engine, catalog2).expect("open");
        let stats = third
            .query_stats(&engine, Interval::new(499.0, 501.0))
            .expect("query");
        assert_eq!(stats.cells_qualifying, 1);
    }

    #[test]
    fn rejects_garbage_page_with_typed_error() {
        let engine = StorageEngine::in_memory();
        let page = engine.allocate_run(2).expect("allocate");
        let err = IHilbert::<GridField>::open(&engine, page)
            .map(|_| ())
            .expect_err("garbage catalog");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(page));
        let msg = err.to_string();
        assert!(
            msg.contains("not a contfield catalog page"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn rejects_unknown_curve_tag() {
        let engine = StorageEngine::in_memory();
        let field = bumpy_field(8);
        let built = IHilbert::build(&engine, &field).expect("build");
        let catalog = built.save(&engine).expect("save");
        // Corrupt the live slot's curve tag and re-seal its CRC so only
        // the tag validation can reject it.
        let mut buf = engine.with_page(catalog, |p| *p).expect("read");
        codec::put_u32(&mut buf, 12, 99);
        let crc = checksum::crc32(&buf[..CRC_COVER]);
        codec::put_u32(&mut buf, CRC_COVER, crc);
        engine.write_page(catalog, &buf).expect("write");
        // Also clobber the second slot so no fallback exists.
        engine
            .write_page(PageId(catalog.0 + 1), &[0u8; PAGE_SIZE])
            .expect("write");
        let err = IHilbert::<GridField>::open(&engine, catalog)
            .map(|_| ())
            .expect_err("bad curve tag");
        assert!(err.is_corrupt());
        assert!(
            err.to_string().contains("unknown curve tag 99"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn rejects_version_from_the_future() {
        let engine = StorageEngine::in_memory();
        let field = bumpy_field(8);
        let built = IHilbert::build(&engine, &field).expect("build");
        let catalog = built.save(&engine).expect("save");
        let mut buf = engine.with_page(catalog, |p| *p).expect("read");
        codec::put_u32(&mut buf, 8, VERSION + 7);
        let crc = checksum::crc32(&buf[..CRC_COVER]);
        codec::put_u32(&mut buf, CRC_COVER, crc);
        engine.write_page(catalog, &buf).expect("write");
        engine
            .write_page(PageId(catalog.0 + 1), &[0u8; PAGE_SIZE])
            .expect("write");
        let err = IHilbert::<GridField>::open(&engine, catalog)
            .map(|_| ())
            .expect_err("future version");
        assert!(
            err.to_string().contains("unsupported catalog version"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn rejects_spans_past_database_end() {
        let engine = StorageEngine::in_memory();
        let field = bumpy_field(8);
        let built = IHilbert::build(&engine, &field).expect("build");
        let catalog = built.save(&engine).expect("save");
        let mut buf = engine.with_page(catalog, |p| *p).expect("read");
        // cell_len at offset 32: claim an absurd record count.
        codec::put_u64(&mut buf, 32, u64::MAX / 8);
        let crc = checksum::crc32(&buf[..CRC_COVER]);
        codec::put_u32(&mut buf, CRC_COVER, crc);
        engine.write_page(catalog, &buf).expect("write");
        engine
            .write_page(PageId(catalog.0 + 1), &[0u8; PAGE_SIZE])
            .expect("write");
        let err = IHilbert::<GridField>::open(&engine, catalog)
            .map(|_| ())
            .expect_err("absurd span");
        assert!(err.is_corrupt());
        assert!(
            err.to_string().contains("spans pages"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn bootstrap_page_round_trips_and_rejects_foreign_bytes() {
        let engine = StorageEngine::in_memory();
        assert!(read_bootstrap(&engine).expect_err("empty").is_corrupt());

        assert_eq!(engine.allocate_page().expect("allocate"), BOOT_PAGE);
        let err = read_bootstrap(&engine).expect_err("zero page");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(BOOT_PAGE));

        let catalog = IHilbert::build(&engine, &bumpy_field(8))
            .expect("build")
            .save(&engine)
            .expect("save");
        write_bootstrap(&engine, catalog).expect("write");
        assert_eq!(read_bootstrap(&engine).expect("read"), catalog);
    }

    #[test]
    fn save_to_alternates_slots_and_bumps_epochs() {
        let engine = StorageEngine::in_memory();
        let field = bumpy_field(8);
        let built = IHilbert::build(&engine, &field).expect("build");
        let catalog = built.save(&engine).expect("save");
        let epoch_of = |page: PageId| read_slot(&engine, page).map(|s| s.epoch);
        assert_eq!(epoch_of(catalog).expect("slot 0"), 1);
        assert!(epoch_of(PageId(catalog.0 + 1)).is_err(), "slot 1 unused");

        built.save_to(&engine, catalog).expect("save 2");
        assert_eq!(epoch_of(catalog).expect("slot 0"), 1, "slot 0 untouched");
        assert_eq!(epoch_of(PageId(catalog.0 + 1)).expect("slot 1"), 2);

        built.save_to(&engine, catalog).expect("save 3");
        assert_eq!(epoch_of(catalog).expect("slot 0"), 3, "oldest slot reused");
        assert_eq!(epoch_of(PageId(catalog.0 + 1)).expect("slot 1"), 2);

        let reopened: IHilbert<GridField> = IHilbert::open(&engine, catalog).expect("open");
        assert_eq!(reopened.num_subfields(), built.num_subfields());
    }

    #[test]
    fn answers_match_scan_after_reopen() {
        let engine = StorageEngine::in_memory();
        let field = bumpy_field(16);
        let catalog = IHilbert::build(&engine, &field)
            .expect("build")
            .save(&engine)
            .expect("save");
        let scan = LinearScan::build(&engine, &field).expect("build");
        let reopened: IHilbert<GridField> = IHilbert::open(&engine, catalog).expect("open");
        let dom = cf_field::FieldModel::value_domain(&field);
        for t in [0.0, 0.3, 0.7] {
            let band = Interval::new(dom.denormalize(t), dom.denormalize((t + 0.2).min(1.0)));
            let a = scan.query_stats(&engine, band).expect("query");
            let b = reopened.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying);
            assert!((a.area - b.area).abs() < 1e-9 * a.area.max(1.0));
        }
    }

    /// Overwrites the payload of entry 0 of the subfield tree's root —
    /// a leaf, for the small fields used here — through the engine, so
    /// the page checksum is re-sealed: CRC-valid hostile bytes.
    fn poison_first_leaf_payload(engine: &StorageEngine, index: &IHilbert<GridField>, data: u64) {
        let tree = &index.inner().tree;
        let root = tree.root_page_id();
        let mut root_is_leaf = false;
        tree.for_each_entry(engine, root, |_, _, is_leaf| root_is_leaf = is_leaf)
            .expect("read root");
        assert!(root_is_leaf, "test field must fit a single leaf");
        let mut buf = engine.with_page(root, |p| *p).expect("read");
        // Node header (8 bytes), then entry 0: lo, hi, payload.
        codec::put_u64(&mut buf, 8 + 16, data);
        engine.write_page(root, &buf).expect("write");
    }

    #[test]
    fn hostile_leaf_payload_is_a_typed_error_not_a_panic() {
        let field = bumpy_field(12);
        let cells = cf_field::FieldModel::num_cells(&field) as u64;
        let whole = cf_field::FieldModel::value_domain(&field);
        for (what, data) in [
            ("inverted range", (8 << 32) | 3),
            ("empty range", (7 << 32) | 7),
            ("end past the cell file", cells + 1000),
            (
                "start past the cell file",
                ((cells + 5) << 32) | (cells + 9),
            ),
        ] {
            let engine = StorageEngine::in_memory();
            let built = IHilbert::build(&engine, &field).expect("build");
            let catalog = built.save(&engine).expect("save");
            poison_first_leaf_payload(&engine, &built, data);

            let err = built.query_stats(&engine, whole).expect_err(what);
            assert!(err.is_corrupt(), "{what}: {err}");
            // The tree is not walked at open, so the reopened handle
            // meets the payload in its first query too…
            let reopened: IHilbert<GridField> = IHilbert::open(&engine, catalog).expect("open");
            let err = reopened.query_stats(&engine, whole).expect_err(what);
            assert!(err.is_corrupt(), "{what}: {err}");
            // …and so does an ingest snapshot, whose override correction
            // looks the retrieved range's start up by position.
            let live = LiveIngest::new(&engine, reopened, IngestConfig::default()).expect("live");
            let rec = cf_field::GridCellRecord {
                vals: [whole.hi; 4],
                ..field.cell_record(0)
            };
            live.ingest(&engine, 0, rec).expect("ingest");
            let snapshot = live.snapshot();
            assert_eq!(snapshot.delta_records(), 1);
            let err = snapshot.query_stats(&engine, whole).expect_err(what);
            assert!(err.is_corrupt(), "{what}: {err}");
        }
    }

    #[test]
    fn hostile_subfield_catalog_is_a_typed_error_not_a_panic() {
        type Edit = fn(&[Subfield], u32) -> (usize, Subfield);
        let edits: [(&str, Edit); 6] = [
            ("inverted interval", |sfs, _| {
                let interval = Interval { lo: 9.0, hi: 1.0 };
                (0, Subfield { interval, ..sfs[0] })
            }),
            ("NaN interval bound", |sfs, _| {
                let interval = Interval {
                    lo: f64::NAN,
                    hi: 1.0,
                };
                (0, Subfield { interval, ..sfs[0] })
            }),
            ("range past the cell file", |sfs, cells| {
                let last = sfs.len() - 1;
                let end = cells + 1000;
                (last, Subfield { end, ..sfs[last] })
            }),
            ("inverted range", |sfs, _| {
                (
                    0,
                    Subfield {
                        start: 5,
                        end: 2,
                        ..sfs[0]
                    },
                )
            }),
            ("gap before the second subfield", |sfs, _| {
                let start = sfs[1].start + 1;
                (1, Subfield { start, ..sfs[1] })
            }),
            ("catalog stops short of the cell file", |sfs, _| {
                let last = sfs.len() - 1;
                let end = sfs[last].end - 1;
                (last, Subfield { end, ..sfs[last] })
            }),
        ];
        let field = bumpy_field(12);
        for codec in [PageCodec::Raw, PageCodec::Compressed] {
            for (what, edit) in edits {
                let engine = StorageEngine::new(cf_storage::StorageConfig {
                    codec,
                    ..cf_storage::StorageConfig::default()
                });
                let built = IHilbert::build(&engine, &field).expect("build");
                let catalog = built.save(&engine).expect("save");
                let inner = built.inner();
                assert!(inner.subfields.len() > 2);
                // `put` encodes the record's fields verbatim and writes
                // the page through the engine (checksum re-sealed).
                let (at, bad) = edit(&inner.subfields, inner.file.len() as u32);
                inner.sf_file.put(&engine, at, &bad).expect("put");

                let err = IHilbert::<GridField>::open(&engine, catalog)
                    .map(|_| ())
                    .expect_err(what);
                assert!(err.is_corrupt(), "{codec:?} {what}: {err}");
            }
        }
    }

    #[test]
    fn stale_subfield_interval_is_a_typed_error_on_update() {
        let field = bumpy_field(12);
        let engine = StorageEngine::in_memory();
        let built = IHilbert::build(&engine, &field).expect("build");
        let catalog = built.save(&engine).expect("save");
        // A wider but well-formed interval for subfield 1: the catalog
        // validates, yet names a tree entry that does not exist.
        let sf = built.inner().subfields[1];
        let wider = Subfield {
            interval: Interval::new(sf.interval.lo - 1.0, sf.interval.hi + 1.0),
            ..sf
        };
        built.inner().sf_file.put(&engine, 1, &wider).expect("put");

        let mut reopened: IHilbert<GridField> =
            IHilbert::open(&engine, catalog).expect("the catalog validates");
        let cell = reopened
            .cell_to_pos()
            .iter()
            .position(|&pos| pos == sf.start)
            .expect("a cell of subfield 1");
        let rec = cf_field::GridCellRecord {
            vals: [500.0; 4],
            ..field.cell_record(cell)
        };
        let err = reopened
            .update_cell(&engine, cell, rec)
            .expect_err("stale catalog interval");
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn hostile_delta_record_is_a_typed_error_not_a_panic() {
        let field = bumpy_field(12);
        let engine = StorageEngine::in_memory();
        let built = IHilbert::build(&engine, &field).expect("build");
        let cells = built.inner_len() as u32;
        let live = LiveIngest::new(&engine, built, IngestConfig::default()).expect("live");
        for cell in [3, 40, 77] {
            let rec = cf_field::GridCellRecord {
                vals: [500.0; 4],
                ..field.cell_record(cell)
            };
            live.ingest(&engine, cell, rec).expect("ingest");
        }
        let catalog = live.save(&engine).expect("save");
        LiveIngest::<GridField>::open(&engine, catalog, IngestConfig::default())
            .expect("the saved delta replays");

        // Point one flushed delta record past the cell file; `put`
        // writes the page through the engine (checksum re-sealed).
        let slot = read_slot(&engine, catalog).expect("slot");
        assert_eq!(slot.delta_len, 3);
        let delta_file = RecordFile::<DeltaRec<cf_field::GridCellRecord>>::open(
            PageId(slot.delta_first),
            slot.delta_len,
        );
        let mut bad = delta_file.get(&engine, 1).expect("get");
        bad.pos = cells + 1000;
        delta_file.put(&engine, 1, &bad).expect("put");

        let err = LiveIngest::<GridField>::open(&engine, catalog, IngestConfig::default())
            .map(|_| ())
            .expect_err("delta position past the cell file");
        assert!(err.is_corrupt(), "{err}");
    }
}
