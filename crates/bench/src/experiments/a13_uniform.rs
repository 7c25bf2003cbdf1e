//! A13 — extension experiment: end-to-end data reduction, AMR + zMesh vs
//! storing the uniform finest grid.
//!
//! The paper's motivation: AMR already cuts the data an application writes;
//! zMesh then makes that (hard-to-compress) AMR output compress better.
//! This experiment quantifies the whole chain on the 2-D presets: the
//! uniform finest-grid field compressed with SZ's native 2-D Lorenzo
//! treatment vs the AMR field compressed with zMesh + SZ-1D, at the same
//! absolute error bound.

use crate::{header, row, write_store};
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::{Codec, CodecKind, CodecParams, ErrorControl, SzCodec, ValueType};

/// Prints bytes and reduction factors for AMR+zMesh vs uniform storage.
pub fn run(scale: Scale) {
    println!("\n## A13 (extension): AMR + zMesh vs uniform finest grid (sz)\n");
    header(&[
        "dataset",
        "uniform_pts",
        "uniform_bytes",
        "amr_pts",
        "zmesh_bytes",
        "end_to_end_x",
    ]);
    for name in [
        "front2d",
        "blast2d",
        "advect2d",
        "diffuse2d",
        "shock2d",
        "kh2d",
    ] {
        let ds = datasets::by_name(name, StorageMode::AllCells, scale).expect("2-D preset");
        let field = ds.primary();
        // Resolve one absolute bound from the AMR data's range and use it
        // on both representations.
        let abs_eb = ErrorControl::ValueRangeRelative(1e-4)
            .absolute_bound(field.values())
            .expect("bound-style control");

        let (uniform, dims) = field.prolongate();
        let codec = SzCodec::new();
        let uparams = CodecParams {
            control: ErrorControl::Absolute(abs_eb),
            dims: [dims[0], dims[1], 0],
            value_type: ValueType::F64,
        };
        let ubytes = codec.compress(&uniform, &uparams).expect("compress").len();

        let zm = write_store(
            CompressionConfig {
                policy: OrderingPolicy::Hilbert,
                codec: CodecKind::Sz,
                control: ErrorControl::Absolute(abs_eb),
            },
            &[("f", field)],
        );

        row(&[
            ds.name.clone(),
            uniform.len().to_string(),
            ubytes.to_string(),
            field.len().to_string(),
            zm.stats.container_bytes.to_string(),
            format!(
                "{:.1}",
                (uniform.len() * 8) as f64 / zm.stats.container_bytes as f64
            ),
        ]);
    }
    println!("\nshape check: AMR + zMesh reduces end-to-end bytes far below even the\ncompressed uniform grid (the mesh does most of the work; zMesh keeps\nthe compressor effective on what remains).");
}
