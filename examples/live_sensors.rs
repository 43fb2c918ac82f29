//! Incremental maintenance: a sensor network re-measures the field and
//! the I-Hilbert index tracks the changes **in place** — cell records
//! are rewritten in the Hilbert-ordered file and subfield intervals are
//! rewritten in place in the paged R\*-tree (one entry box and its
//! ancestors' hulls), with no rebuild.
//!
//! ```sh
//! cargo run --release --example live_sensors
//! ```

use contfield::prelude::*;
use contfield::workload::fractal::diamond_square;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    // A temperature-like field over a 64×64 sensor grid.
    let mut field = diamond_square(6, 0.8, 99);
    let engine = StorageEngine::in_memory();

    // Slow-query profiler: trace every query's phase breakdown and flag
    // any query slower than 100 µs — a monitoring deployment would log
    // these outliers instead of printing them.
    let tracer = engine.metrics().tracer();
    tracer.set_enabled(true);
    tracer.set_slow_threshold(std::time::Duration::from_micros(100));

    let mut index = IHilbert::build(&engine, &field).expect("build");
    let dom = field.value_domain();
    println!(
        "initial field: {} cells, values [{:.2}, {:.2}], {} subfields",
        field.num_cells(),
        dom.lo,
        dom.hi,
        index.num_subfields()
    );

    // A "heat plume" event: sensors in one corner report sharply higher
    // values over 200 update rounds.
    let (vw, vh) = field.vertex_dims();
    let mut rng = StdRng::seed_from_u64(7);
    let hot = Interval::new(dom.hi + 0.5, dom.hi + 2.0);
    println!(
        "\ninjecting plume: 200 sensor updates pushing values into [{:.2}, {:.2}]…",
        hot.lo, hot.hi
    );

    engine.reset_stats();
    let mut values: Vec<f64> = (0..vh)
        .flat_map(|y| (0..vw).map(move |x| (x, y)))
        .map(|(x, y)| field.vertex_value(x, y))
        .collect();
    for _ in 0..200 {
        let x = rng.gen_range(0..vw / 4);
        let y = rng.gen_range(0..vh / 4);
        values[y * vw + x] = rng.gen_range(hot.lo..hot.hi);
        field = GridField::from_values(vw, vh, values.clone());
        let (cw, ch) = field.cell_dims();
        for cy in y.saturating_sub(1)..=y.min(ch - 1) {
            for cx in x.saturating_sub(1)..=x.min(cw - 1) {
                let cell = field.cell_index(cx, cy);
                index
                    .update_cell(&engine, cell, field.cell_record(cell))
                    .expect("update");
            }
        }
    }
    let maint = engine.io_stats();
    println!(
        "maintenance I/O for 200 updates: {} page reads, {} page writes (no rebuild)",
        maint.logical_reads(),
        maint.disk_writes
    );

    // The standing alert query now finds the plume. Drop the profiler
    // threshold to zero first: alert queries are always worth a full
    // phase breakdown, however fast they run.
    tracer.set_slow_threshold(std::time::Duration::ZERO);
    engine.clear_cache();
    let (stats, regions) = index.query_regions(&engine, hot).expect("query");
    println!(
        "\nalert query w in [{:.2}, {:.2}]: {} cells qualify, {} regions, area {:.2}, {} page reads",
        hot.lo,
        hot.hi,
        stats.cells_qualifying,
        regions.len(),
        stats.area,
        stats.io.logical_reads()
    );

    // The profiler kept the alert query's full phase breakdown.
    let slow = tracer.slow_reports();
    println!("\nslow-query profiler ({} report(s)):", slow.len());
    for rec in &slow {
        println!("{}", rec.render_text());
    }
    assert!(!slow.is_empty(), "the alert query must be profiled");

    // Cross-check against a fresh scan of the mutated field.
    let scan = LinearScan::build(&engine, &field).expect("build");
    engine.clear_cache();
    let s = scan.query_stats(&engine, hot).expect("query");
    assert_eq!(s.cells_qualifying, stats.cells_qualifying);
    assert!((s.area - stats.area).abs() < 1e-9 * s.area.max(1.0));
    println!("verified against a fresh LinearScan of the mutated field ✓");

    // And the plume is where we injected it.
    if let Some(r) = regions.first() {
        let c = r.centroid().expect("non-degenerate region");
        println!(
            "plume located around ({:.1}, {:.1}) — injected in the lower-left quadrant",
            c.x, c.y
        );
        assert!(c.x < vw as f64 / 2.0 && c.y < vh as f64 / 2.0);
    }
}
