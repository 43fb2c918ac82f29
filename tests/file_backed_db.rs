//! The storage engine on a *real* database file: build a field database,
//! drop the engine, reopen the file, and keep querying.
//!
//! Page-level persistence is the engine's job; the tiny catalog (where
//! each structure starts, lengths, tree root) is the caller's — here we
//! carry it across the "restart" in plain variables, as a system
//! catalog page would.

use contfield::field::GridCellRecord;
use contfield::prelude::*;
use contfield::storage::{RecordFile, StorageConfig};
use contfield::workload::fractal::diamond_square;

/// A database path in the temp directory. Its `<db>` and `.crc` files
/// are removed when it is made and when it drops, so a failing test
/// leaves nothing behind either.
struct TmpDb(std::path::PathBuf);

impl TmpDb {
    fn remove_files(&self) {
        for ext in ["", ".crc"] {
            let _ = std::fs::remove_file(format!("{}{ext}", self.0.display()));
        }
    }
}

impl Drop for TmpDb {
    fn drop(&mut self) {
        self.remove_files();
    }
}

impl AsRef<std::path::Path> for TmpDb {
    fn as_ref(&self) -> &std::path::Path {
        &self.0
    }
}

fn db_path(name: &str) -> TmpDb {
    let mut p = std::env::temp_dir();
    p.push(format!("contfield_test_{}_{name}.db", std::process::id()));
    let db = TmpDb(p);
    db.remove_files();
    db
}

#[test]
fn pages_survive_reopen() {
    let path = db_path("pages");
    {
        let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("create");
        let id = engine.allocate_page().expect("allocate");
        let mut buf = [0u8; 4096];
        buf[7] = 0xA7;
        buf[4095] = 0x5C;
        engine.write_page(id, &buf).expect("write");
        engine.sync().expect("sync");
        assert_eq!(engine.num_pages(), 1);
    }
    {
        let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("reopen");
        assert_eq!(engine.num_pages(), 1, "page count derived from file length");
        let (a, b) = engine
            .with_page(contfield::storage::PageId(0), |p| (p[7], p[4095]))
            .expect("read");
        assert_eq!((a, b), (0xA7, 0x5C));
    }
}

#[test]
fn record_file_survives_reopen() {
    let path = db_path("records");
    let field = diamond_square(4, 0.5, 9);
    let (first_page, len);
    {
        let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("create");
        let records: Vec<GridCellRecord> = (0..field.num_cells())
            .map(|c| field.cell_record(c))
            .collect();
        let file = RecordFile::create(&engine, records).expect("create");
        first_page = file.first_page();
        len = file.len();
        engine.sync().expect("sync");
    }
    {
        let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("reopen");
        let file = RecordFile::<GridCellRecord>::open(first_page, len);
        for cell in [0usize, 7, len - 1] {
            assert_eq!(
                file.get(&engine, cell).expect("get"),
                field.cell_record(cell)
            );
        }
    }
}

#[test]
fn queries_run_against_a_file_backed_database() {
    let path = db_path("queries");
    let field = diamond_square(5, 0.6, 17);
    let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("create");

    let scan = LinearScan::build(&engine, &field).expect("build");
    let index = IHilbert::build(&engine, &field).expect("build");
    let dom = field.value_domain();
    for t in [0.1, 0.5, 0.85] {
        let band = Interval::new(dom.denormalize(t), dom.denormalize((t + 0.1).min(1.0)));
        engine.clear_cache();
        let a = scan.query_stats(&engine, band).expect("query");
        engine.clear_cache();
        let b = index.query_stats(&engine, band).expect("query");
        assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
        assert!((a.area - b.area).abs() < 1e-9 * a.area.max(1.0));
        // Real file reads happened.
        assert!(b.io.disk_reads > 0);
    }
    drop(engine);
}
