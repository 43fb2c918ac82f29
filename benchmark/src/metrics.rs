//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is `ladder manifest` verbatim (a unit test holds the
//! two together), so names, units and bounds are defined exactly once.

use contfield::obs::Json;

/// Seconds one run measures (`BENCHMARK.json: run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xEDB7;

/// `(name, why)` of every workload, in ladder order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "warm_grid_64k",
        "CPU-bound: DEM grid in memory, pool >= database, raw pages; pool-hit path, record read, band refine and polygon area do the work",
    ),
    (
        "cold_file_grid_64k",
        "Larger than the program's cache: same field on a real file, compressed pages, 256 KiB pool cleared before every query; miss, read, CRC and decode dominate",
    ),
    (
        "warm_tin_50k",
        "Same refine layer on TIN triangles with sub-millisecond queries, where filter and other fixed per-query costs have their largest share",
    ),
    (
        "ingest_mixed_grid_64k",
        "Writes beside reads on a real file: 8 ingests per snapshot query, repack and durable save every round, reopen and verify at the end",
    ),
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric; `bound` is `Some` for end-to-end metrics only.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

impl Decl {
    /// Counts and sizes: the same inputs must give the same value.
    pub fn is_exact(&self) -> bool {
        matches!(self.unit, "count" | "bytes")
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with `--trace 0`.
///
/// ISSUE 11 asks for 0.10 on timings. The driver accepts a bound only
/// if the metric's interquartile spread over ten seeds stays inside it,
/// and wants the spread below a third of it; on this shared host the
/// timings spread by 2-13 % (`repack_ms` 20 %) even with the
/// fastest-repetition rule (`results/spread.json`), so they get the
/// widest bound the driver allows. Page counts spread by 0.4 % (band positions move with the
/// seed), sizes and memory by less.
pub const END_TO_END: [Decl; 13] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("build_s", "s", Lower, 0.25),
    e2e("q2_p50_us", "us", Lower, 0.25),
    e2e("q2_p95_us", "us", Lower, 0.25),
    e2e("q2_qps", "1/s", Higher, 0.25),
    e2e("pages_per_query", "count", Lower, 0.02),
    e2e("db_bytes_per_cell", "bytes", Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("open_ms", "ms", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("write_p95_us", "us", Lower, 0.25),
    e2e("repack_ms", "ms", Lower, 0.25),
    e2e("save_ms", "ms", Lower, 0.25),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [Decl; 50] = [
    layer("cf-sfc.key_ns_per_cell", "ns", Lower),
    layer("cf-index.order.sort_ns_per_cell", "ns", Lower),
    layer("cf-field.interval_ns_per_cell", "ns", Lower),
    layer("cf-field.record_ns_per_cell", "ns", Lower),
    layer("cf-index.subfield.group_ns_per_cell", "ns", Lower),
    layer("cf-index.subfield.count", "count", Lower),
    layer("cf-index.subfield.mean_cells", "count", Higher),
    layer("cf-index.subfield.mean_cost_c", "ratio", Lower),
    layer("cf-storage.heap.write_ns_per_cell", "ns", Lower),
    layer("cf-storage.heap.pages_written", "count", Lower),
    layer("cf-rtree.build_ns_per_entry", "ns", Lower),
    layer("cf-rtree.freeze_ns_per_entry", "ns", Lower),
    layer("cf-index.catalog.save_ms", "ms", Lower),
    layer("cf-index.catalog.open_ms", "ms", Lower),
    layer("cf-storage.disk.writes_per_save", "count", Lower),
    layer("cf-storage.disk.bytes_per_save", "bytes", Lower),
    layer("cf-rtree.paged_filter_ns_per_query", "ns", Lower),
    layer("cf-rtree.frozen_filter_ns_per_query", "ns", Lower),
    layer("cf-rtree.nodes_per_query", "count", Lower),
    layer("cf-rtree.subfields_per_query", "count", Lower),
    layer("cf-rtree.filter_pages_per_query", "count", Lower),
    layer("cf-index.sfindex.coalesce_ns_per_query", "ns", Lower),
    layer("cf-index.sfindex.runs_per_query", "count", Lower),
    layer("cf-storage.pool.hit_ns_per_page", "ns", Lower),
    layer("cf-storage.pool.miss_ns_per_page", "ns", Lower),
    layer("cf-storage.pool.hit_ratio", "ratio", Higher),
    layer("cf-storage.pool.evictions_per_query", "count", Lower),
    layer("cf-storage.disk.reads_per_query", "count", Lower),
    layer("cf-storage.disk.read_bytes_per_query", "bytes", Lower),
    layer("cf-storage.disk.read_ns_per_page", "ns", Lower),
    layer(
        "cf-storage.checksum.verifications_per_query",
        "count",
        Lower,
    ),
    layer("cf-storage.codec.decode_ns_per_cell", "ns", Lower),
    layer("cf-storage.codec.cells_per_page", "count", Higher),
    layer("cf-storage.codec.compression_ratio", "ratio", Higher),
    layer("cf-field.test_ns_per_cell_examined", "ns", Lower),
    layer("cf-field.band_ns_per_cell_qualifying", "ns", Lower),
    layer("cf-field.useful_ratio", "ratio", Higher),
    layer("cf-geom.area_ns_per_region", "ns", Lower),
    layer("cf-geom.regions_per_query", "count", Lower),
    layer("cf-index.ingest.snapshot_over_base_q2", "ratio", Lower),
    layer(
        "cf-index.ingest.snapshot_over_base_q2_epoch0",
        "ratio",
        Lower,
    ),
    layer("cf-index.ingest.ring_len_mean", "count", Lower),
    layer("cf-index.ingest.drained_per_repack", "count", Lower),
    layer("cf-index.ingest.write_amplification", "ratio", Lower),
    layer("cf-index.ingest.pages_retired_per_repack", "count", Lower),
    layer("cf-obs.trace_overhead_ratio", "ratio", Lower),
    layer("query.layer_sum_over_e2e", "ratio", Lower),
    layer("build.layer_sum_over_e2e", "ratio", Lower),
    layer("query.staged_over_registry_filter", "ratio", Lower),
    layer("query.staged_over_registry_refine", "ratio", Lower),
];

fn decl_json(d: &Decl) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(d.name.into())),
        ("unit", Json::Str(d.unit.into())),
        ("better", Json::Str(d.better.as_str().into())),
    ];
    if let Some(bound) = d.bound {
        pairs.push(("bound", Json::Num(bound)));
    }
    Json::obj(pairs)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--bin",
                "ladder",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([
                            ("name", Json::Str((*name).into())),
                            ("why", Json::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(decl_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(decl_json).collect()),
        ),
    ])
}

/// `{"name": {"value": v, "unit": u}, ...}` for the result line, in
/// declaration order; a metric missing from `values` is a harness bug.
pub fn metrics_json(decls: &[Decl], values: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        decls
            .iter()
            .map(|d| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name))
                    .1;
                (
                    d.name.to_owned(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(d.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in names {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s");
        assert!(setup.is_some_and(|d| d.unit == "s" && d.better == Lower));
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, manifest(), "regenerate with `ladder manifest`");
    }
}
