//! # zmesh-bench — the evaluation harness
//!
//! One module per reconstructed paper artifact (see DESIGN.md §5 and
//! `EXPERIMENTS.md`). Each experiment is a library function that prints its
//! table/series rows to stdout; the `repro <id>` binary in `src/bin` runs
//! one of them by id, and `repro all` runs the entire evaluation.
//!
//! Run with `--scale small` (or `ZMESH_SCALE=small`) to get a fast pass on
//! reduced datasets; the default `standard` scale matches EXPERIMENTS.md.

pub mod experiments;
pub mod gorilla;

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use zmesh::CompressionConfig;
use zmesh_amr::datasets::{self, Dataset, Scale};
use zmesh_amr::{AmrField, StorageMode};
use zmesh_store::{Parity, StoreReader, StoreWriteOptions, StoreWriter, StoreWritten};

/// The store layout every paper-reproduction run writes: one chunk per
/// field and no parity, so each quantity's whole reordered stream meets
/// the codec at once, as in the paper.
pub const MONOLITHIC: StoreWriteOptions = StoreWriteOptions {
    chunk_target_bytes: u32::MAX,
    parity: Parity::None,
};

/// Writes `fields` as a [`MONOLITHIC`] store. Each call uses a fresh
/// writer, so each write builds its own restore recipe.
pub fn write_store(config: CompressionConfig, fields: &[(&str, &AmrField)]) -> StoreWritten {
    StoreWriter::with_options(config, MONOLITHIC)
        .write(fields)
        .expect("evaluation datasets compress cleanly")
}

/// Decodes every field of a store, in store order.
pub fn read_store(bytes: &[u8]) -> Vec<AmrField> {
    let reader = StoreReader::open(bytes).expect("round trip");
    reader
        .field_names()
        .iter()
        .map(|name| reader.decode_field(name).expect("round trip"))
        .collect()
}

/// Parses the scale from argv/env (`--scale tiny|small|standard`).
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    let from_flag = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1).cloned());
    let name = from_flag
        .or_else(|| std::env::var("ZMESH_SCALE").ok())
        .unwrap_or_else(|| "standard".to_string());
    match name.as_str() {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        _ => Scale::Standard,
    }
}

/// The evaluation datasets (chained/plotfile storage, as in the paper).
/// Built once per scale and cached — `repro all` runs a dozen experiments
/// over the same data, and the solver-backed presets are not free.
pub fn eval_datasets(scale: Scale) -> Arc<Vec<Dataset>> {
    static CACHE: OnceLock<Mutex<HashMap<u8, Arc<Vec<Dataset>>>>> = OnceLock::new();
    let key = match scale {
        Scale::Tiny => 0u8,
        Scale::Small => 1,
        Scale::Standard => 2,
    };
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("dataset cache lock");
    Arc::clone(
        guard
            .entry(key)
            .or_insert_with(|| Arc::new(datasets::all(StorageMode::AllCells, scale))),
    )
}

/// The error-bound sweep used by the ratio and rate–distortion experiments
/// (value-range-relative bounds).
pub const EB_SWEEP: [f64; 5] = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6];

/// Borrowed name/field pairs in the shape `StoreWriter::write` takes.
pub fn field_refs(ds: &Dataset) -> Vec<(&str, &AmrField)> {
    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

/// Prints a row of pipe-separated cells (markdown-flavored output).
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str]) {
    row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}
