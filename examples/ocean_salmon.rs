//! The paper's §1 motivating scenario: "In ocean environmental databases
//! with ocean temperature and salinity field data … the queries we can
//! ask for fishing salmons would be: find regions where the temperature
//! is between 20° and 25° and the salinity is between 12% and 13%."
//!
//! This exercises the vector-field extension (§5 future work): cells
//! summarize to 2-D value *boxes*, subfields to their unions, and the
//! multi-attribute query is a box intersection in a 2-D R\*-tree.
//!
//! ```sh
//! cargo run --release --example ocean_salmon
//! ```

use contfield::field::VectorCellRecord;
use contfield::index::{vector_linear_scan, VectorIHilbert};
use contfield::prelude::*;
use contfield::storage::RecordFile;
use contfield::workload::ocean::{ocean_field, SALINITY, TEMPERATURE};

fn main() {
    let field = ocean_field(128, 7);
    let dom = field.value_domain();
    println!(
        "ocean field: {} cells; temperature [{:.1}, {:.1}] °C, salinity [{:.2}, {:.2}] %",
        field.num_cells(),
        dom.lo[TEMPERATURE],
        dom.hi[TEMPERATURE],
        dom.lo[SALINITY],
        dom.hi[SALINITY]
    );

    let engine = StorageEngine::in_memory();
    let index = VectorIHilbert::build(&engine, &field).expect("build");
    println!(
        "vector I-Hilbert: {} subfield boxes, {} index pages",
        index.num_subfields(),
        index.index_pages()
    );

    // The salmon habitat query from the paper's introduction.
    let salmon = Aabb::new([20.0, 12.0], [25.0, 13.0]);
    println!("\nquery: temperature in [20, 25] AND salinity in [12, 13]");

    engine.clear_cache();
    let mut regions = Vec::new();
    let stats = index
        .query_with(&engine, &salmon, &mut |p| regions.push(p))
        .expect("query");
    println!(
        "index:  {:>6} cells examined, {:>6} qualify, {:>5} regions, area {:>10.2}, {:>5} page reads",
        stats.cells_examined,
        stats.cells_qualifying,
        stats.num_regions,
        stats.area,
        stats.io.logical_reads()
    );

    // Baseline: scan a native-order copy of the cell file.
    let records: Vec<VectorCellRecord<2>> = (0..field.num_cells())
        .map(|c| field.cell_record(c))
        .collect();
    let scan_file = RecordFile::create(&engine, records).expect("create");
    engine.clear_cache();
    let s = vector_linear_scan(&engine, &scan_file, &salmon).expect("scan");
    println!(
        "scan:   {:>6} cells examined, {:>6} qualify, {:>5} regions, area {:>10.2}, {:>5} page reads",
        s.cells_examined,
        s.cells_qualifying,
        s.num_regions,
        s.area,
        s.io.logical_reads()
    );
    assert_eq!(s.cells_qualifying, stats.cells_qualifying);

    // Where would you drop the nets? Print the centroid of the largest
    // habitat patch.
    if let Some(best) = regions.iter().max_by(|a, b| a.area().total_cmp(&b.area())) {
        let c = best.centroid().expect("non-degenerate region");
        println!(
            "\nlargest habitat patch: area {:.2} around ({:.1}, {:.1})",
            best.area(),
            c.x,
            c.y
        );
        let v = field.value_at(c).expect("inside domain");
        println!(
            "conditions there: {:.1} °C, {:.2} % salinity",
            v[TEMPERATURE], v[SALINITY]
        );
        assert!((20.0..=25.0).contains(&v[TEMPERATURE]));
        assert!((12.0..=13.0).contains(&v[SALINITY]));
    } else {
        println!("no habitat found (try another seed)");
    }
}
