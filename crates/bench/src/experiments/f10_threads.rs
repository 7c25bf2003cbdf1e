//! F10 — extension experiment: thread scaling of a store write.
//!
//! A one-chunk-per-field write runs one encode job per quantity; the
//! reorder and the ZFP superblocks inside a job parallelize too. This
//! experiment measures end-to-end compression throughput against the rayon
//! pool size.

use crate::{field_refs, header, row, write_store};
use std::time::Instant;
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::{CodecKind, ErrorControl};

/// Prints compression throughput per thread count.
pub fn run(scale: Scale) {
    println!("\n## F10 (extension): thread scaling (blast2d, zmesh-h, rel_eb 1e-4)\n");
    let ds = datasets::blast2d(StorageMode::AllCells, scale);
    let fields = field_refs(&ds);
    header(&["threads", "codec", "compress_ms", "MB_per_s"]);
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        for codec in [CodecKind::Sz, CodecKind::Zfp] {
            let config = CompressionConfig {
                policy: OrderingPolicy::Hilbert,
                codec,
                control: ErrorControl::ValueRangeRelative(1e-4),
            };
            // Warm up once, then take the median of 5 runs.
            let mut times: Vec<f64> = (0..6)
                .map(|_| {
                    let t = Instant::now();
                    pool.install(|| write_store(config, &fields));
                    t.elapsed().as_secs_f64()
                })
                .skip(1)
                .collect();
            times.sort_by(f64::total_cmp);
            let secs = times[times.len() / 2];
            row(&[
                threads.to_string(),
                codec.label().into(),
                format!("{:.2}", secs * 1e3),
                format!("{:.0}", ds.nbytes() as f64 / 1e6 / secs),
            ]);
        }
    }
    println!("\nshape check: throughput grows with threads until per-field parallelism\n(2 quantities, one encode job each) saturates.");
}
