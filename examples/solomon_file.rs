//! Loading and solving a Solomon-format benchmark file.
//!
//! Writes a generated instance to disk in the classic Solomon layout,
//! reads it back through the parser (the same path a real Gehring–
//! Homberger file would take), and solves it.
//!
//! ```text
//! cargo run --release --example solomon_file [-- <path/to/instance.txt>]
//! ```

use std::sync::Arc;
use tsmo_suite::prelude::*;
use tsmo_suite::vrptw::solomon;

fn main() {
    let path = std::env::args().nth(1);
    let inst = match path {
        Some(p) => {
            println!("loading {p}");
            solomon::read_file(&p).expect("failed to parse the Solomon file")
        }
        None => {
            // No file given: round-trip a generated one to demonstrate.
            let generated = GeneratorConfig::new(InstanceClass::RC1, 80, 3).build();
            let dir = std::env::temp_dir().join("tsmo-suite");
            std::fs::create_dir_all(&dir).expect("temp dir");
            let file = dir.join("RC1_80_demo.txt");
            std::fs::write(&file, solomon::write(&generated)).expect("write demo file");
            println!("no file given; wrote and re-read {}", file.display());
            solomon::read_file(&file).expect("round trip")
        }
    };
    println!(
        "instance {}: {} customers, R = {}, capacity = {}, horizon = {}",
        inst.name,
        inst.n_customers(),
        inst.max_vehicles(),
        inst.capacity(),
        inst.horizon()
    );
    let problems = inst.validate();
    assert!(
        problems.is_empty(),
        "instance failed validation: {problems:?}"
    );

    let inst = Arc::new(inst);
    let cfg = TsmoConfig {
        max_evaluations: 15_000,
        seed: 9,
        ..TsmoConfig::default()
    };
    let out = ParallelVariant::Sequential.run(&inst, &cfg);
    println!(
        "\nsolved in {:.2}s — {} non-dominated solutions, best distance {:?}, fewest vehicles {:?}",
        out.runtime_seconds,
        out.archive.len(),
        out.best_distance().map(|d| (d * 100.0).round() / 100.0),
        out.best_vehicles()
    );
}
