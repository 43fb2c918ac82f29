//! The four workloads as data: one generic runner executes them all.

use contfield::index::IngestConfig;
use contfield::storage::{CfResult, PageCodec, StorageConfig, StorageEngine};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The dataset a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum FieldKind {
    /// `diamond_square(k, 0.6, FIELD_SEED)`: `4^k` DEM cells.
    Grid { k: u32 },
    /// `urban_noise_tin(triangles, FIELD_SEED)`.
    Tin { triangles: usize },
}

/// Rounds of the update plan (a round: `round_writes` writes, `repack`,
/// `save_to` + `sync`). Every lap of the end-to-end run replays the
/// whole plan once.
pub const PLAN_ROUNDS: usize = 4;
/// Reopens per lap of the end-to-end run.
pub const LAP_OPENS: usize = 4;
/// `LiveIngest` as every workload configures it: a ring of 1 024 writes,
/// twice the writes of a round, so no write ever drains it inline.
pub const INGEST: IngestConfig = IngestConfig {
    capacity: 1024,
    scan_threshold: None,
};

/// One workload's definition.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub field: FieldKind,
    /// Real database file (checksums, positional reads) or memory.
    pub on_file: bool,
    pub codec: PageCodec,
    pub pool_pages: usize,
    /// `engine.clear_cache()` before every query (the paper's regime).
    pub cold: bool,
    /// `(Qinterval, bands)` groups of the query list.
    pub band_mix: Vec<(f64, usize)>,
    /// Q2 latency comes from snapshot queries interleaved 1 : 8 with
    /// the writes instead of from passes over the bare index.
    pub mixed: bool,
    /// Writes between two repack + save points.
    pub round_writes: usize,
}

/// The definition of workload `name`; `quick` shrinks every size so the
/// whole ladder runs in seconds (smoke test, not a measurement).
pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let grid = FieldKind::Grid {
        k: if quick { 7 } else { 8 },
    };
    let thirds = |n: usize| vec![(0.0, n), (0.01, n), (0.05, n)];
    let round_writes = if quick { 64 } else { 512 };
    let spec = match name {
        "warm_grid_64k" => Spec {
            name: "warm_grid_64k",
            field: grid,
            on_file: false,
            codec: PageCodec::Raw,
            pool_pages: 32_768,
            cold: false,
            band_mix: thirds(if quick { 10 } else { 70 }),
            mixed: false,
            round_writes,
        },
        "cold_file_grid_64k" => Spec {
            name: "cold_file_grid_64k",
            field: grid,
            on_file: true,
            codec: PageCodec::Compressed,
            pool_pages: 64,
            cold: true,
            band_mix: thirds(if quick { 10 } else { 70 }),
            mixed: false,
            round_writes,
        },
        "warm_tin_50k" => Spec {
            name: "warm_tin_50k",
            field: FieldKind::Tin {
                triangles: if quick { 5_000 } else { 50_000 },
            },
            on_file: false,
            codec: PageCodec::Raw,
            pool_pages: 32_768,
            cold: false,
            band_mix: if quick {
                vec![(0.0, 15), (0.01, 15)]
            } else {
                vec![(0.0, 500), (0.01, 500)]
            },
            mixed: false,
            round_writes,
        },
        "ingest_mixed_grid_64k" => Spec {
            name: "ingest_mixed_grid_64k",
            field: grid,
            on_file: true,
            codec: PageCodec::Raw,
            pool_pages: 256,
            cold: false,
            band_mix: vec![(0.01, if quick { 32 } else { 256 })],
            mixed: true,
            round_writes,
        },
        _ => return None,
    };
    Some(spec)
}

impl Spec {
    /// Opens a fresh engine for this workload; `path` is used by the
    /// file workloads only.
    pub fn open_engine(&self, path: &Path) -> CfResult<StorageEngine> {
        let config = StorageConfig {
            pool_pages: self.pool_pages,
            codec: self.codec,
            ..StorageConfig::default()
        };
        if self.on_file {
            StorageEngine::open_file(path, config)
        } else {
            Ok(StorageEngine::new(config))
        }
    }

    /// Runs `f` on the database as a reopening process would see it: a
    /// fresh engine on the file at `path`. A database in memory cannot
    /// be reopened; there `f` gets the engine that holds it, so that the
    /// memory workloads too have an `open_ms` (the driver wants every
    /// metric from every workload), which is then the catalog open alone.
    pub fn reopened<T>(
        &self,
        path: &Path,
        held: &StorageEngine,
        f: impl FnOnce(&StorageEngine) -> CfResult<T>,
    ) -> CfResult<T> {
        if self.on_file {
            f(&self.open_engine(path)?)
        } else {
            f(held)
        }
    }
}

/// Where span files, stability reports and committed result sets live.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A per-process scratch directory inside the benchmark's own tree,
/// removed (database files, `.crc` and `.fsm` sidecars and all) when
/// dropped — on success, on a failed check and on a panic alike.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn create() -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("ladder-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes a database file with its sidecars (missing files are fine).
pub fn remove_db(path: &Path) {
    for suffix in ["", ".crc", ".fsm"] {
        let mut p = path.as_os_str().to_owned();
        p.push(suffix);
        let _ = std::fs::remove_file(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn every_declared_workload_has_a_spec_that_supports_p95() {
        for (name, _) in WORKLOADS {
            let full = spec(name, false).expect("declared workload");
            assert_eq!(full.name, name);
            let bands: usize = full.band_mix.iter().map(|m| m.1).sum();
            assert!(bands >= 200, "{name}: p95 needs 10 samples beyond it");
            for spec in [full, spec(name, true).expect("quick variant")] {
                if spec.mixed {
                    // One replay of the plan asks every band once.
                    let bands: usize = spec.band_mix.iter().map(|m| m.1).sum();
                    assert_eq!(bands * 8, PLAN_ROUNDS * spec.round_writes, "{name}");
                }
            }
        }
        assert!(spec("nope", false).is_none());
    }

    #[test]
    fn tmp_dir_and_sidecars_are_removed() {
        let dir = TmpDir::create().expect("tmp dir");
        let db = dir.file("x.db");
        for suffix in ["", ".crc", ".fsm"] {
            std::fs::write(format!("{}{suffix}", db.display()), b"x").expect("write");
        }
        remove_db(&db);
        assert!(!db.exists() && !dir.file("x.db.crc").exists());
        let root = dir.0.clone();
        std::fs::write(dir.file("left.db.fsm"), b"x").expect("write");
        drop(dir);
        assert!(!root.exists());
    }
}
