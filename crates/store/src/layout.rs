//! The one place store bytes are laid out.
//!
//! Every store — a fresh write, a repair, a torn-store salvage — is
//! `header ∥ data chunks ∥ parity section ∥ footer ∥ trailer [∥ commit]`,
//! with data chunks field-major in stream order and the parity section
//! field-major in group order. [`Layout`] emits exactly that into a
//! [`ByteSink`] as chunk payloads arrive in layout order: it fills in each
//! chunk's offset, length and CRC, folds the chunk into its parity group,
//! and on [`Layout::finish`] appends the parity shards and the container
//! tail. Because the writer, repair and salvage all go through it, a
//! repaired or salvaged store is byte-identical to what the writer would
//! emit for the same chunks.

use crate::format::{container_tail, write_header, FieldEntry, StoreError, StoreHeader};
use crate::gf256;
use crate::parity::{xor_into, Parity, ParityMeta};
use crate::reader::{RetryCounters, RetryPolicy, RetryStats};
use crate::sink::ByteSink;
use zmesh::crc32;

/// What [`Layout::finish`] hands back: the finished index and the byte
/// accounting of the emitted store.
pub(crate) struct Laid {
    /// Footer entries with every data and parity offset, length and CRC.
    pub fields: Vec<FieldEntry>,
    /// Data chunk payload bytes.
    pub payload_bytes: usize,
    /// Parity section bytes.
    pub parity_bytes: usize,
    /// Whole-store bytes, header to commit record.
    pub container_bytes: usize,
    /// Transient sink-write failures retried or given up on.
    pub retry: RetryStats,
}

/// A store being laid out into a sink, one data chunk at a time.
pub(crate) struct Layout<'s, K: ByteSink + ?Sized> {
    sink: &'s mut K,
    retry: RetryPolicy,
    counters: RetryCounters,
    parity: Parity,
    header_bytes: Vec<u8>,
    /// Footer entries; each field's `chunks` arrive as the plan (coverage
    /// filled in, bytes fields not yet) and are completed in place.
    fields: Vec<FieldEntry>,
    /// The next chunk slot to fill: (field, chunk).
    next: (usize, usize),
    /// Payload-relative position of the next byte.
    pos: u64,
    /// Shard accumulators of the open parity group.
    group: Vec<Vec<u8>>,
    /// Finished parity shards, in parity-section order.
    shards: Vec<(usize, Vec<u8>)>,
}

impl<'s, K: ByteSink + ?Sized> Layout<'s, K> {
    /// Starts a store with `header` in `sink`. `fields` carry their names,
    /// bounds and planned chunk metas; their `parity` must be empty. Sink
    /// writes retry transient failures under `retry`.
    pub fn new(
        sink: &'s mut K,
        header: &StoreHeader,
        fields: Vec<FieldEntry>,
        retry: RetryPolicy,
    ) -> Result<Self, StoreError> {
        let header_bytes = write_header(header);
        let counters = RetryCounters::default();
        retry.run(&counters, || sink.write_all(&header_bytes))?;
        let mut layout = Self {
            sink,
            retry,
            counters,
            parity: header.scheme(),
            header_bytes,
            fields,
            next: (0, 0),
            pos: 0,
            group: Vec::new(),
            shards: Vec::new(),
        };
        layout.skip_empty_fields();
        Ok(layout)
    }

    fn write(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        let sink = &mut *self.sink;
        self.retry.run(&self.counters, || sink.write_all(buf))
    }

    fn skip_empty_fields(&mut self) {
        while self.next.0 < self.fields.len()
            && self.next.1 == self.fields[self.next.0].chunks.len()
        {
            self.next = (self.next.0 + 1, 0);
        }
    }

    /// Appends the next data chunk in layout order; `crc` is the CRC-32
    /// of `bytes`.
    pub fn push(&mut self, bytes: &[u8], crc: u32) -> Result<(), StoreError> {
        let (f, c) = self.next;
        if f >= self.fields.len() {
            return Err(StoreError::Internal("more chunks than the layout planned"));
        }
        self.write(bytes)?;
        let n_chunks = self.fields[f].chunks.len();
        let meta = &mut self.fields[f].chunks[c];
        meta.offset = self.pos;
        meta.len = bytes.len() as u64;
        meta.crc = crc;
        self.pos += bytes.len() as u64;
        self.accumulate_parity(f, c, n_chunks, bytes)?;
        self.next = (f, c + 1);
        self.skip_empty_fields();
        Ok(())
    }

    /// Folds data chunk `c` of field `f` into its parity group, moving the
    /// group's shards to the parity section once its last member lands.
    /// Incremental accumulation is exact: XOR is order-free, and a
    /// Reed–Solomon shard is a GF(2⁸)-linear combination of its members,
    /// so member-at-a-time fused multiply-adds reproduce
    /// [`gf256::rs_encode`] byte for byte.
    fn accumulate_parity(
        &mut self,
        f: usize,
        c: usize,
        n_chunks: usize,
        bytes: &[u8],
    ) -> Result<(), StoreError> {
        let width = self.parity.width() as usize;
        if width == 0 {
            return Ok(());
        }
        let member = c % width;
        if member == 0 {
            debug_assert!(self.group.is_empty(), "previous group not drained");
            self.group.resize(self.parity.shards() as usize, Vec::new());
        }
        match self.parity {
            Parity::None => {}
            Parity::Xor { .. } => xor_into(&mut self.group[0], bytes),
            Parity::Rs { parity: m, .. } => {
                for (j, shard) in self.group.iter_mut().enumerate() {
                    // A shard is as long as the group's longest member.
                    if shard.len() < bytes.len() {
                        shard.resize(bytes.len(), 0);
                    }
                    let coeff = gf256::coefficient(j, member, m as usize).ok_or(
                        StoreError::Internal("rs coefficient out of range for validated geometry"),
                    )?;
                    gf256::MulTable::new(coeff).fma_into(shard, bytes);
                }
            }
        }
        if member + 1 == width || c + 1 == n_chunks {
            self.shards
                .extend(self.group.drain(..).map(|shard| (f, shard)));
        }
        Ok(())
    }

    /// Appends the parity section, footer, trailer and (v4) commit record,
    /// and returns the finished index. Does not flush or commit the sink.
    pub fn finish(mut self) -> Result<Laid, StoreError> {
        if self.next.0 < self.fields.len() {
            return Err(StoreError::Internal(
                "layout finished before its last chunk",
            ));
        }
        let payload_bytes = self.pos as usize;
        for (f, shard) in std::mem::take(&mut self.shards) {
            self.write(&shard)?;
            self.fields[f].parity.push(ParityMeta {
                offset: self.pos,
                len: shard.len() as u64,
                crc: crc32(&shard),
            });
            self.pos += shard.len() as u64;
        }
        let tail = container_tail(&self.header_bytes, self.pos, &self.fields);
        self.write(&tail)?;
        Ok(Laid {
            payload_bytes,
            parity_bytes: self.pos as usize - payload_bytes,
            container_bytes: self.header_bytes.len() + self.pos as usize + tail.len(),
            retry: self.counters.stats(),
            fields: self.fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::format;
    use crate::gf256;
    use crate::parity::{build_group_parity, group_count, group_members, Parity};
    use crate::writer::StoreWriter;
    use zmesh::CompressionConfig;
    use zmesh_amr::{datasets, StorageMode};

    /// The incremental parity of a written store equals the batch
    /// encoders run over the store's own data chunks, group by group —
    /// short last groups included.
    #[test]
    fn incremental_parity_matches_the_batch_encoders() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let fields: Vec<_> = ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
        for parity in [
            Parity::Xor { width: 3 },
            Parity::Xor { width: 8 },
            Parity::Rs { data: 4, parity: 2 },
            Parity::Rs { data: 3, parity: 3 },
        ] {
            let bytes = StoreWriter::new(CompressionConfig::zmesh_default())
                .with_chunk_target_bytes(512)
                .with_parity(parity)
                .write(&fields)
                .unwrap()
                .bytes;
            let (_, entries, payload) = format::open(&bytes).unwrap();
            let span = |offset: u64, len: u64| {
                let lo = payload.start + offset as usize;
                &bytes[lo..lo + len as usize]
            };
            let width = parity.width() as usize;
            for entry in &entries {
                let n = entry.chunks.len();
                assert!(
                    group_count(n, width) >= 2,
                    "{parity:?}: want several groups"
                );
                let data: Vec<&[u8]> = entry.chunks.iter().map(|c| span(c.offset, c.len)).collect();
                let mut stored = entry.parity.iter().map(|p| span(p.offset, p.len));
                for g in 0..group_count(n, width) {
                    let members = &data[group_members(g, width, n)];
                    let want = match parity {
                        Parity::Xor { .. } => vec![build_group_parity(members.iter().copied())],
                        Parity::Rs { parity: m, .. } => {
                            gf256::rs_encode(members, m as usize).unwrap()
                        }
                        Parity::None => unreachable!("parity enabled"),
                    };
                    for (j, shard) in want.iter().enumerate() {
                        assert_eq!(
                            stored.next(),
                            Some(shard.as_slice()),
                            "{parity:?} field {} group {g} shard {j}",
                            entry.name
                        );
                    }
                }
                assert!(stored.next().is_none(), "{parity:?}: extra parity shards");
            }
        }
    }
}
