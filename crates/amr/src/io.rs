//! Dataset persistence: a compact binary container for a hierarchy plus its
//! fields (the uncompressed counterpart of the zMesh container).

use crate::error::AmrError;
use crate::field::{AmrField, StorageMode};
use crate::generator::datasets::Dataset;
use crate::tree::AmrTree;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"ZMD1";

fn write_u64<W: Write>(w: &mut W, mut v: u64) -> std::io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, AmrError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(AmrError::Corrupt("varint overflow"));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Writes a dataset (structure metadata + raw field values) to `path`.
pub fn save_dataset<P: AsRef<Path>>(path: P, ds: &Dataset) -> Result<(), AmrError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    let name = ds.name.as_bytes();
    write_u64(&mut w, name.len() as u64)?;
    w.write_all(name)?;
    let structure = ds.tree.structure_bytes();
    write_u64(&mut w, structure.len() as u64)?;
    w.write_all(&structure)?;
    w.write_all(&[ds.mode().tag()])?;
    write_u64(&mut w, ds.fields.len() as u64)?;
    for (fname, field) in &ds.fields {
        write_u64(&mut w, fname.len() as u64)?;
        w.write_all(fname.as_bytes())?;
        write_u64(&mut w, field.len() as u64)?;
        for &v in field.values() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a dataset written by [`save_dataset`], re-validating the structure.
pub fn load_dataset<P: AsRef<Path>>(path: P) -> Result<Dataset, AmrError> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(AmrError::Corrupt("bad dataset magic"));
    }
    let name_len = read_u64(&mut r)? as usize;
    if name_len > 1 << 16 {
        return Err(AmrError::Corrupt("name too long"));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| AmrError::Corrupt("name not utf-8"))?;
    let struct_len = read_u64(&mut r)? as usize;
    if struct_len > 1 << 30 {
        return Err(AmrError::Corrupt("structure too large"));
    }
    let mut structure = vec![0u8; struct_len];
    r.read_exact(&mut structure)?;
    let tree = Arc::new(AmrTree::from_structure_bytes(&structure)?);
    let mut mode_tag = [0u8; 1];
    r.read_exact(&mut mode_tag)?;
    let mode = StorageMode::from_tag(mode_tag[0]).ok_or(AmrError::Corrupt("bad mode tag"))?;
    let n_fields = read_u64(&mut r)? as usize;
    if n_fields > 1 << 16 {
        return Err(AmrError::Corrupt("too many fields"));
    }
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let fname_len = read_u64(&mut r)? as usize;
        if fname_len > 1 << 16 {
            return Err(AmrError::Corrupt("field name too long"));
        }
        let mut fname = vec![0u8; fname_len];
        r.read_exact(&mut fname)?;
        let fname =
            String::from_utf8(fname).map_err(|_| AmrError::Corrupt("field name not utf-8"))?;
        // The tree fixes every field's length; an untrusted count must
        // match it before it sizes an allocation.
        let n_vals = match mode {
            StorageMode::LeafOnly => tree.leaf_count(),
            StorageMode::AllCells => tree.cell_count(),
        };
        if read_u64(&mut r)? != n_vals as u64 {
            return Err(AmrError::Corrupt(
                "field value count disagrees with the tree",
            ));
        }
        let mut values = Vec::with_capacity(n_vals);
        let mut buf = [0u8; 8];
        for _ in 0..n_vals {
            r.read_exact(&mut buf)?;
            values.push(f64::from_le_bytes(buf));
        }
        fields.push((
            fname,
            AmrField::from_values(Arc::clone(&tree), mode, values)?,
        ));
    }
    Ok(Dataset {
        name,
        description: String::new(),
        tree,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::datasets::{self, Scale};

    #[test]
    fn save_load_round_trips() {
        let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
        let dir = std::env::temp_dir().join("zmesh_amr_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("front2d.zmd");
        save_dataset(&path, &ds).unwrap();
        let loaded = load_dataset(&path).unwrap();
        assert_eq!(loaded.name, ds.name);
        assert_eq!(loaded.tree.cell_count(), ds.tree.cell_count());
        assert_eq!(loaded.fields.len(), ds.fields.len());
        for ((an, af), (bn, bf)) in ds.fields.iter().zip(&loaded.fields) {
            assert_eq!(an, bn);
            assert_eq!(af.values(), bf.values());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_an_error() {
        let ds = datasets::blast2d(StorageMode::LeafOnly, Scale::Tiny);
        let dir = std::env::temp_dir().join("zmesh_amr_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.zmd");
        save_dataset(&path, &ds).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = dir.join("cut.zmd");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_dataset(&cut).is_err());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&cut).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_dataset("/nonexistent/zmesh/nope.zmd").unwrap_err();
        assert!(matches!(err, AmrError::Io(_)));
    }
}
