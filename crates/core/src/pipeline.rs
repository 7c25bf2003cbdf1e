//! The end-to-end zMesh pipeline: reorder → compress → container, and back.
//!
//! One [`Pipeline::compress`] call handles any number of quantities that
//! share a mesh; the restore recipe is built **once** and reused for every
//! quantity — the amortization the paper measures. Per-phase wall times are
//! reported in [`CompressStats`] so the overhead/amortization experiments
//! (F7/F8) read straight off the pipeline.

use crate::container::{read_container, write_container};
use crate::error::ZmeshError;
use crate::ordering::{GroupingMode, OrderingPolicy};
use crate::recipe::RestoreRecipe;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use zmesh_amr::{AmrField, AmrTree};
use zmesh_codecs::{Codec, CodecKind, CodecParams, ErrorControl, SzCodec, ValueType, ZfpCodec};

/// What to compress with and how hard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionConfig {
    /// Stream ordering (the variable the paper studies).
    pub policy: OrderingPolicy,
    /// Which error-bounded codec consumes the stream.
    pub codec: CodecKind,
    /// Distortion control handed to the codec.
    pub control: ErrorControl,
}

impl CompressionConfig {
    /// zMesh defaults: Hilbert ordering, SZ, range-relative 1e-4.
    pub fn zmesh_default() -> Self {
        Self {
            policy: OrderingPolicy::Hilbert,
            codec: CodecKind::Sz,
            control: ErrorControl::ValueRangeRelative(1e-4),
        }
    }

    /// The paper's baseline: level order with the same codec/control.
    pub fn baseline_of(mut self) -> Self {
        self.policy = OrderingPolicy::LevelOrder;
        self
    }
}

/// Wall-time and size accounting for one compression run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressStats {
    /// Nanoseconds to build the restore recipe (once per mesh).
    pub recipe_ns: u64,
    /// Nanoseconds to permute all quantities into stream order.
    pub reorder_ns: u64,
    /// Nanoseconds inside the codec for all quantities.
    pub encode_ns: u64,
    /// Uncompressed bytes across all quantities.
    pub raw_bytes: usize,
    /// Total container bytes.
    pub container_bytes: usize,
    /// Compressed payload bytes (container minus header/metadata).
    pub payload_bytes: usize,
    /// Number of quantities compressed.
    pub n_fields: usize,
}

impl CompressStats {
    /// Compression ratio over the full container (the honest number —
    /// includes the metadata any AMR file carries).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.container_bytes as f64
    }

    /// Compression ratio counting payload bytes only (matches how
    /// compressor papers usually report CR).
    pub fn payload_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.payload_bytes as f64
    }
}

/// Output of [`Pipeline::compress`].
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The self-describing container.
    pub bytes: Vec<u8>,
    /// Timing and size accounting.
    pub stats: CompressStats,
}

/// Output of [`Pipeline::decompress`].
#[derive(Debug)]
pub struct Decompressed {
    /// The hierarchy re-built from container metadata.
    pub tree: Arc<AmrTree>,
    /// Restored quantities in storage order.
    pub fields: Vec<(String, AmrField)>,
    /// Ordering policy recorded in the container.
    pub policy: OrderingPolicy,
    /// Nanoseconds spent decoding the tree from the structure metadata.
    pub tree_ns: u64,
    /// Nanoseconds spent re-generating the restore recipe.
    pub recipe_ns: u64,
}

/// The compression pipeline: reorder → compress → container, and back.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    config: CompressionConfig,
}

/// Instantiates the codec backing `kind` — the single construction point
/// shared by the monolithic pipeline and the chunked store (`zmesh-store`).
pub fn codec_for(kind: CodecKind) -> Box<dyn Codec + Send + Sync> {
    match kind {
        CodecKind::Sz => Box::new(SzCodec::new()),
        CodecKind::Zfp => Box::new(ZfpCodec::new()),
    }
}

impl Pipeline {
    /// Pipeline with the given configuration.
    pub fn new(config: CompressionConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> CompressionConfig {
        self.config
    }

    /// Compresses one or more quantities sharing a mesh into a container.
    ///
    /// All fields must live on the same [`AmrTree`] with the same storage
    /// mode. The recipe is built once; quantities are then reordered and
    /// encoded in parallel.
    pub fn compress(&self, fields: &[(&str, &AmrField)]) -> Result<Compressed, ZmeshError> {
        let (first_name, first) = fields
            .first()
            .ok_or(ZmeshError::Mismatch("no fields to compress"))?;
        let _ = first_name;
        let tree = first.tree();
        let mode = first.mode();
        for (name, f) in fields {
            if !Arc::ptr_eq(f.tree(), tree) {
                let _ = name;
                return Err(ZmeshError::Mismatch("fields on different trees"));
            }
            if f.mode() != mode {
                return Err(ZmeshError::Mismatch("fields with different storage modes"));
            }
        }

        let grouping = GroupingMode::from_storage_mode(mode);
        let t0 = Instant::now();
        let recipe = RestoreRecipe::build(tree, self.config.policy, grouping);
        let recipe_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let streams: Vec<Vec<f64>> = fields
            .par_iter()
            .map(|(_, f)| recipe.apply(f.values()))
            .collect();
        let reorder_ns = t1.elapsed().as_nanos() as u64;

        let codec = codec_for(self.config.codec);
        let params = CodecParams {
            control: self.config.control,
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };
        let t2 = Instant::now();
        let payloads: Vec<Vec<u8>> = streams
            .par_iter()
            .map(|s| codec.compress(s, &params))
            .collect::<Result<_, _>>()?;
        let encode_ns = t2.elapsed().as_nanos() as u64;

        let structure = tree.structure_bytes();
        let named: Vec<(&str, Vec<u8>)> = fields.iter().map(|(n, _)| *n).zip(payloads).collect();
        let bytes = write_container(
            self.config.policy,
            mode,
            self.config.codec,
            &structure,
            &named,
        );

        let raw_bytes: usize = fields.iter().map(|(_, f)| f.nbytes()).sum();
        let payload_bytes: usize = named.iter().map(|(_, p)| p.len()).sum();
        Ok(Compressed {
            stats: CompressStats {
                recipe_ns,
                reorder_ns,
                encode_ns,
                raw_bytes,
                container_bytes: bytes.len(),
                payload_bytes,
                n_fields: fields.len(),
            },
            bytes,
        })
    }

    /// Lists the field names in a container without decoding any payload.
    pub fn list_fields(bytes: &[u8]) -> Result<Vec<String>, ZmeshError> {
        let header = read_container(bytes)?;
        Ok(header.fields.into_iter().map(|(n, _)| n).collect())
    }

    /// Decompresses a single named field from a container, decoding only
    /// that field's payload (the recipe is still rebuilt once).
    pub fn decompress_field(
        bytes: &[u8],
        name: &str,
    ) -> Result<(Arc<AmrTree>, AmrField), ZmeshError> {
        let header = read_container(bytes)?;
        let range = header
            .fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
            .ok_or_else(|| ZmeshError::UnknownField(name.to_string()))?;
        let tree = Arc::new(AmrTree::from_structure_bytes(&header.structure)?);
        let grouping = GroupingMode::from_storage_mode(header.mode);
        let recipe = RestoreRecipe::build(&tree, header.policy, grouping);
        let codec = codec_for(header.codec);
        let stream = codec.decompress(&bytes[range])?;
        if stream.len() != recipe.len() {
            return Err(ZmeshError::Corrupt("payload length mismatches tree"));
        }
        let values = recipe.invert(&stream);
        let field = AmrField::from_values(Arc::clone(&tree), header.mode, values)?;
        Ok((tree, field))
    }

    /// Decompresses a container produced by [`Pipeline::compress`].
    ///
    /// The restore recipe is re-generated from the container's structure
    /// metadata — no recipe bytes exist in the container.
    pub fn decompress(bytes: &[u8]) -> Result<Decompressed, ZmeshError> {
        let header = read_container(bytes)?;
        let t0 = Instant::now();
        let tree = Arc::new(AmrTree::from_structure_bytes(&header.structure)?);
        let tree_ns = t0.elapsed().as_nanos() as u64;
        let grouping = GroupingMode::from_storage_mode(header.mode);

        let t0 = Instant::now();
        let recipe = RestoreRecipe::build(&tree, header.policy, grouping);
        let recipe_ns = t0.elapsed().as_nanos() as u64;

        let codec = codec_for(header.codec);
        let decoded: Vec<Vec<f64>> = header
            .fields
            .par_iter()
            .map(|(_, range)| codec.decompress(&bytes[range.clone()]))
            .collect::<Result<_, _>>()?;

        let mut fields = Vec::with_capacity(decoded.len());
        for ((name, _), stream) in header.fields.iter().zip(decoded) {
            if stream.len() != recipe.len() {
                return Err(ZmeshError::Corrupt("payload length mismatches tree"));
            }
            let values = recipe.invert(&stream);
            fields.push((
                name.clone(),
                AmrField::from_values(Arc::clone(&tree), header.mode, values)?,
            ));
        }
        Ok(Decompressed {
            tree,
            fields,
            policy: header.policy,
            tree_ns,
            recipe_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmesh_amr::{datasets, StorageMode};
    use zmesh_metrics::ErrorStats;

    fn config(policy: OrderingPolicy, codec: CodecKind) -> CompressionConfig {
        CompressionConfig {
            policy,
            codec,
            control: ErrorControl::ValueRangeRelative(1e-4),
        }
    }

    fn field_refs(ds: &datasets::Dataset) -> Vec<(&str, &AmrField)> {
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
    }

    #[test]
    fn round_trip_all_policies_and_codecs() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let fields = field_refs(&ds);
        for policy in OrderingPolicy::ALL {
            for codec in [CodecKind::Sz, CodecKind::Zfp] {
                let c = Pipeline::new(config(policy, codec))
                    .compress(&fields)
                    .unwrap();
                let d = Pipeline::decompress(&c.bytes).unwrap();
                assert_eq!(d.policy, policy);
                assert_eq!(d.fields.len(), ds.fields.len());
                for ((n0, f0), (n1, f1)) in ds.fields.iter().zip(&d.fields) {
                    assert_eq!(n0, n1);
                    let stats = ErrorStats::between(f0.values(), f1.values());
                    let bound = 1e-4 * stats.range;
                    assert!(
                        stats.max_abs <= bound * (1.0 + 1e-9),
                        "{policy:?}/{codec:?}/{n0}: {} > {bound}",
                        stats.max_abs
                    );
                }
            }
        }
    }

    #[test]
    fn zmesh_beats_baseline_on_sz() {
        // The paper's headline: reordering improves SZ's ratio on AMR data.
        let ds = datasets::front2d(StorageMode::AllCells, datasets::Scale::Small);
        let fields = field_refs(&ds);
        let base = Pipeline::new(config(OrderingPolicy::LevelOrder, CodecKind::Sz))
            .compress(&fields)
            .unwrap();
        let zm = Pipeline::new(config(OrderingPolicy::Hilbert, CodecKind::Sz))
            .compress(&fields)
            .unwrap();
        assert!(
            zm.stats.ratio() > base.stats.ratio(),
            "zmesh {} !> baseline {}",
            zm.stats.ratio(),
            base.stats.ratio()
        );
    }

    #[test]
    fn container_header_is_policy_independent() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let fields = field_refs(&ds);
        let sizes: Vec<usize> = OrderingPolicy::ALL
            .iter()
            .map(|&p| {
                let c = Pipeline::new(config(p, CodecKind::Sz))
                    .compress(&fields)
                    .unwrap();
                c.stats.container_bytes - c.stats.payload_bytes
            })
            .collect();
        assert_eq!(sizes[0], sizes[1]);
        assert_eq!(sizes[1], sizes[2]);
    }

    #[test]
    fn stats_account_for_everything() {
        let ds = datasets::advect2d(StorageMode::LeafOnly, datasets::Scale::Tiny);
        let fields = field_refs(&ds);
        let c = Pipeline::new(config(OrderingPolicy::ZOrder, CodecKind::Zfp))
            .compress(&fields)
            .unwrap();
        assert_eq!(c.stats.n_fields, 2);
        assert_eq!(c.stats.raw_bytes, ds.nbytes());
        assert_eq!(c.stats.container_bytes, c.bytes.len());
        assert!(c.stats.payload_bytes < c.stats.container_bytes);
        assert!(c.stats.ratio() > 1.0);
        assert!(c.stats.payload_ratio() >= c.stats.ratio());
    }

    #[test]
    fn rejects_mixed_trees_and_modes() {
        let a = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let b = datasets::front2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let p = Pipeline::new(config(OrderingPolicy::Hilbert, CodecKind::Sz));
        let mixed = vec![("x", &a.fields[0].1), ("y", &b.fields[0].1)];
        assert!(matches!(p.compress(&mixed), Err(ZmeshError::Mismatch(_))));
        assert!(matches!(p.compress(&[]), Err(ZmeshError::Mismatch(_))));
    }

    #[test]
    fn corrupt_container_errors_cleanly() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let fields = field_refs(&ds);
        let c = Pipeline::new(config(OrderingPolicy::Hilbert, CodecKind::Sz))
            .compress(&fields)
            .unwrap();
        assert!(Pipeline::decompress(&[]).is_err());
        for cut in [3, 10, c.bytes.len() / 2, c.bytes.len() - 1] {
            assert!(
                Pipeline::decompress(&c.bytes[..cut]).is_err(),
                "cut = {cut}"
            );
        }
        // Bit-flip in the payload region: must error or stay within bound,
        // never panic.
        let mut flipped = c.bytes.clone();
        let idx = flipped.len() - 8;
        flipped[idx] ^= 0xff;
        let _ = Pipeline::decompress(&flipped);
    }

    #[test]
    fn selective_field_decompression() {
        let ds = datasets::front2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let fields = field_refs(&ds);
        let c = Pipeline::new(config(OrderingPolicy::Hilbert, CodecKind::Sz))
            .compress(&fields)
            .unwrap();
        assert_eq!(
            Pipeline::list_fields(&c.bytes).unwrap(),
            vec!["temperature".to_string(), "pressure".to_string()]
        );
        let (tree, pressure) = Pipeline::decompress_field(&c.bytes, "pressure").unwrap();
        assert_eq!(tree.cell_count(), ds.tree.cell_count());
        let full = Pipeline::decompress(&c.bytes).unwrap();
        assert_eq!(pressure.values(), full.fields[1].1.values());
        assert!(matches!(
            Pipeline::decompress_field(&c.bytes, "nope"),
            Err(ZmeshError::UnknownField(_))
        ));
    }

    #[test]
    fn multi_quantity_shares_one_recipe() {
        // recipe_ns is charged once regardless of quantity count.
        let ds = datasets::turb3d(StorageMode::AllCells, datasets::Scale::Tiny);
        let one = Pipeline::new(config(OrderingPolicy::Hilbert, CodecKind::Sz))
            .compress(&field_refs(&ds)[..1])
            .unwrap();
        let two = Pipeline::new(config(OrderingPolicy::Hilbert, CodecKind::Sz))
            .compress(&field_refs(&ds))
            .unwrap();
        assert_eq!(one.stats.n_fields, 1);
        assert_eq!(two.stats.n_fields, 2);
        // Both runs built the recipe exactly once (timings are nonzero but
        // comparable; we only check the structural invariant here).
        assert!(two.stats.raw_bytes > one.stats.raw_bytes);
    }
}
