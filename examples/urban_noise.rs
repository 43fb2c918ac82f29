//! The paper's urban-noise scenario (§1): "In the urban noise system, a
//! typical query to know the noisy regions would be: find regions where
//! the noise level is higher than 80 dB."
//!
//! Runs on a TIN (the representation of the paper's Lyon dataset),
//! exercises both query classes on the one I-Hilbert cell file: the Q2
//! value query and a Q1 point query ("how loud is it at my house?")
//! through the per-page box file.
//!
//! ```sh
//! cargo run --release --example urban_noise
//! ```

use contfield::prelude::*;
use contfield::storage::thread_io_stats;
use contfield::workload::noise::urban_noise_tin;

fn main() {
    // ~9000 triangles, matching the paper's Lyon TIN.
    let tin = urban_noise_tin(9000, 42);
    let dom = tin.value_domain();
    println!(
        "urban noise TIN: {} triangles, noise levels [{:.1}, {:.1}] dB",
        tin.num_cells(),
        dom.lo,
        dom.hi
    );

    let engine = StorageEngine::in_memory();
    let ihilbert = IHilbert::build(&engine, &tin).expect("build");
    let scan = LinearScan::build(&engine, &tin).expect("build");

    // Q2: "find the noisy regions" — the paper's example asks for 80 dB;
    // on this city 90 dB isolates the immediate vicinity of the sources.
    let band = Interval::new(90.0, dom.hi);
    engine.clear_cache();
    let (stats, regions) = ihilbert.query_regions(&engine, band).expect("query");
    engine.clear_cache();
    let s = scan.query_stats(&engine, band).expect("query");
    assert_eq!(s.cells_qualifying, stats.cells_qualifying);

    let domain_area = tin.triangulation().area();
    println!("\nregions above 90 dB:");
    println!(
        "  {} polygons, {:.0} m² ({:.2} % of the city)",
        regions.len(),
        stats.area,
        100.0 * stats.area / domain_area
    );
    println!(
        "  I-Hilbert: {} page reads ({} subfields); LinearScan: {} page reads",
        stats.io.logical_reads(),
        ihilbert.num_intervals(),
        s.io.logical_reads()
    );

    // Rank the three loudest hotspots by patch area.
    let mut ranked: Vec<_> = regions.iter().collect();
    ranked.sort_by(|a, b| b.area().total_cmp(&a.area()));
    println!("\nlargest hotspots:");
    for (i, r) in ranked.iter().take(3).enumerate() {
        let c = r.centroid().expect("non-degenerate");
        println!(
            "  #{}: {:>9.0} m² around ({:>4.0}, {:>4.0})",
            i + 1,
            r.area(),
            c.x,
            c.y
        );
    }

    // Q1: noise level at a specific address, via the page boxes.
    let home = Point2::new(512.0, 377.0);
    engine.clear_cache();
    let before = thread_io_stats();
    let level = ihilbert.value_at(&engine, home).expect("query");
    let q1 = thread_io_stats() - before;
    match level {
        Some(db) => println!(
            "\nnoise at ({}, {}): {:.1} dB ({} page reads of {} data pages)",
            home.x,
            home.y,
            db,
            q1.logical_reads(),
            ihilbert.data_pages()
        ),
        None => println!("\n({}, {}) is outside the mapped area", home.x, home.y),
    }
}
