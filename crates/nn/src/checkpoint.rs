//! Parameter checkpointing: a minimal self-describing binary format for
//! [`ParamStore`] contents (name → shape → f32 data), so trained models can
//! be saved and restored without a serialization framework.

use crate::params::ParamStore;
use aeris_tensor::Tensor;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: u32 = 0xAE51_C4B1;

/// Serialize arbitrary named tensors to `writer` in the checkpoint format.
/// This is the general entry point: trainer checkpoints reuse it with
/// prefixed names (`param/…`, `opt.m/…`, `meta/…`) to pack parameters,
/// optimizer moments, and run metadata into one self-describing file.
pub fn write_entries(
    entries: &[(String, Tensor)],
    writer: &mut dyn Write,
) -> std::io::Result<()> {
    writer.write_all(&MAGIC.to_le_bytes())?;
    writer.write_all(&(entries.len() as u32).to_le_bytes())?;
    for (name, value) in entries {
        let name_bytes = name.as_bytes();
        writer.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
        writer.write_all(name_bytes)?;
        writer.write_all(&(value.ndim() as u32).to_le_bytes())?;
        for &d in value.shape() {
            writer.write_all(&(d as u32).to_le_bytes())?;
        }
        for &v in value.data() {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Save named tensors to a file (see [`write_entries`]).
pub fn save_entries(entries: &[(String, Tensor)], path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_entries(entries, &mut f)
}

/// Load named tensors from a file (inverse of [`save_entries`]).
pub fn load_entries(path: &Path) -> std::io::Result<Vec<(String, Tensor)>> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    read_params(&mut f)
}

/// Serialize every parameter of `store` to `writer`.
pub fn write_params(store: &ParamStore, writer: &mut dyn Write) -> std::io::Result<()> {
    let entries: Vec<(String, Tensor)> =
        store.iter().map(|(_, n, v)| (n.to_string(), v.clone())).collect();
    write_entries(&entries, writer)
}

fn invalid(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn read_u32(reader: &mut dyn Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    reader.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Read exactly `len` bytes. The buffer grows only as bytes arrive, so a
/// corrupt length field can never reserve more than the input backs.
fn read_bytes(reader: &mut dyn Read, len: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    reader.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(buf)
}

/// Read `count` little-endian 4-byte words, decoded by `decode`.
fn read_words<T>(
    reader: &mut dyn Read,
    count: usize,
    decode: fn([u8; 4]) -> T,
) -> std::io::Result<Vec<T>> {
    let n_bytes = count.checked_mul(4).ok_or_else(|| invalid("length field overflows"))?;
    let bytes = read_bytes(reader, n_bytes)?;
    Ok(bytes.chunks_exact(4).map(|w| decode([w[0], w[1], w[2], w[3]])).collect())
}

/// Read a checkpoint into `(name, tensor)` pairs. Every count and length in
/// the stream is untrusted: a corrupt or truncated input is an
/// `InvalidData` / `UnexpectedEof` error, never a panic or an allocation
/// sized by the corrupt field.
pub fn read_params(reader: &mut dyn Read) -> std::io::Result<Vec<(String, Tensor)>> {
    if read_u32(reader)? != MAGIC {
        return Err(invalid("not an AERIS checkpoint"));
    }
    let n = read_u32(reader)?;
    let mut out = Vec::new();
    for _ in 0..n {
        let name_len = read_u32(reader)? as usize;
        let name = String::from_utf8(read_bytes(reader, name_len)?)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let ndim = read_u32(reader)? as usize;
        let shape = read_words(reader, ndim, |w| u32::from_le_bytes(w) as usize)?;
        let len = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| invalid("tensor element count overflows"))?;
        let data = read_words(reader, len, f32::from_le_bytes)?;
        out.push((name, Tensor::from_vec(&shape, data)));
    }
    Ok(out)
}

/// Save a store to a file.
pub fn save_params(store: &ParamStore, path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_params(store, &mut f)
}

/// Load a checkpoint into an existing store (layouts must match: every
/// parameter present with the same name and shape).
pub fn load_params(store: &mut ParamStore, path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    let pairs = read_params(&mut f)?;
    let by_name: std::collections::HashMap<String, Tensor> = pairs.into_iter().collect();
    let ids: Vec<(crate::params::ParamId, String, Vec<usize>)> = store
        .iter()
        .map(|(id, n, v)| (id, n.to_string(), v.shape().to_vec()))
        .collect();
    for (id, name, shape) in ids {
        let t = by_name.get(&name).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("checkpoint missing parameter {name}"),
            )
        })?;
        if t.shape() != shape.as_slice() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("shape mismatch for {name}: {:?} vs {:?}", t.shape(), shape),
            ));
        }
        *store.get_mut(id) = t.clone();
    }
    Ok(())
}

/// The most recent coordinated checkpoint in `dir`: the lexicographically
/// greatest `step_*.ckpt` file (step numbers are zero-padded, so name order
/// is step order). `Ok(None)` when the directory is missing or holds no
/// checkpoints — a recovery supervisor then restarts from scratch.
pub fn latest_checkpoint(dir: &Path) -> std::io::Result<Option<std::path::PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut best: Option<(String, std::path::PathBuf)> = None;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("step_") && name.ends_with(".ckpt")) {
            continue;
        }
        if best.as_ref().is_none_or(|(b, _)| name > *b) {
            best = Some((name, entry.path()));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Encode a `u64` as a 2-element tensor of f32 *bit patterns* (lo, hi 32
/// bits). Stored bitwise, so round-trips are exact — used for step counters
/// and RNG state in trainer checkpoints, which must survive serialization
/// through the f32-only tensor format without loss.
pub fn u64_entry(name: &str, value: u64) -> (String, Tensor) {
    let lo = f32::from_bits(value as u32);
    let hi = f32::from_bits((value >> 32) as u32);
    (name.to_string(), Tensor::from_slice(&[lo, hi]))
}

/// Decode a tensor written by [`u64_entry`].
pub fn entry_u64(t: &Tensor) -> std::io::Result<u64> {
    if t.len() != 2 {
        return Err(invalid("u64 metadata entry must have 2 elements"));
    }
    let lo = t.data()[0].to_bits() as u64;
    let hi = t.data()[1].to_bits() as u64;
    Ok(lo | (hi << 32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;

    fn store() -> ParamStore {
        let mut s = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        s.register("layer.w", Tensor::randn(&[3, 4], &mut rng));
        s.register("layer.b", Tensor::randn(&[4], &mut rng));
        s.register("gamma", Tensor::randn(&[7], &mut rng));
        s
    }

    #[test]
    fn roundtrip_in_memory() {
        let src = store();
        let mut buf = Vec::new();
        write_params(&src, &mut buf).unwrap();
        let pairs = read_params(&mut &buf[..]).unwrap();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, "layer.w");
        assert_eq!(&pairs[0].1, src.get(crate::params::ParamId(0)));
    }

    #[test]
    fn file_roundtrip_restores_exactly() {
        let src = store();
        let path = std::env::temp_dir().join("aeris_ckpt_test.bin");
        save_params(&src, &path).unwrap();
        let mut dst = store();
        dst.get_mut(crate::params::ParamId(0)).map_inplace(|_| 0.0);
        load_params(&mut dst, &path).unwrap();
        for (id, _, v) in src.iter() {
            assert_eq!(dst.get(id), v);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let src = store();
        let path = std::env::temp_dir().join("aeris_ckpt_test2.bin");
        save_params(&src, &path).unwrap();
        let mut bad = ParamStore::new();
        bad.register("layer.w", Tensor::zeros(&[2, 2]));
        bad.register("layer.b", Tensor::zeros(&[4]));
        bad.register("gamma", Tensor::zeros(&[7]));
        assert!(load_params(&mut bad, &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 16];
        assert!(read_params(&mut &buf[..]).is_err());
    }

    /// Parse untrusted bytes: an error is one of the two documented kinds,
    /// and whatever parses re-serialises to exactly the bytes it consumed.
    fn parse_untrusted(input: &[u8]) -> Option<Vec<(String, Tensor)>> {
        match read_params(&mut &input[..]) {
            Ok(entries) => {
                let mut again = Vec::new();
                write_entries(&entries, &mut again).unwrap();
                assert!(input.starts_with(&again), "parsed entries are not what the input holds");
                Some(entries)
            }
            Err(e) => {
                use std::io::ErrorKind::{InvalidData, UnexpectedEof};
                assert!(matches!(e.kind(), InvalidData | UnexpectedEof), "untyped error {e:?}");
                None
            }
        }
    }

    #[test]
    fn short_files_and_huge_counts_are_errors_not_allocations() {
        // Every count is up front, so a short valid file never parses.
        let mut valid = Vec::new();
        write_params(&store(), &mut valid).unwrap();
        for cut in 0..valid.len() {
            let err = read_params(&mut &valid[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        let words = |ws: &[u32]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        // Entry count u32::MAX backed by nothing.
        assert!(parse_untrusted(&words(&[MAGIC, u32::MAX])).is_none());
        // One entry named "w" (0x77) whose three dims are each u32::MAX.
        let mut buf = words(&[MAGIC, 1, 1]);
        buf.push(b'w');
        buf.extend(words(&[3, u32::MAX, u32::MAX, u32::MAX]));
        let err = read_params(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    proptest::proptest! {
        /// Corrupt input returns — no panic, no abort — through every
        /// mutation: one flipped byte, then truncation at every offset of
        /// the flipped buffer, then trailing garbage.
        #[test]
        fn corrupt_input_is_an_error_or_a_faithful_parse(
            flip_at in 0usize..10_000,
            flip_mask in 1u8..255,
            garbage in proptest::collection::vec(0u8..255, 9),
        ) {
            let mut valid = Vec::new();
            write_params(&store(), &mut valid).unwrap();
            let intact = read_params(&mut &valid[..]).unwrap();

            let mut flipped = valid.clone();
            flipped[flip_at % valid.len()] ^= flip_mask;
            parse_untrusted(&flipped);
            for cut in 0..flipped.len() {
                parse_untrusted(&flipped[..cut]);
            }

            // The reader stops after the declared entries.
            let mut longer = valid.clone();
            longer.extend(&garbage);
            proptest::prop_assert_eq!(parse_untrusted(&longer), Some(intact));
        }
    }

    #[test]
    fn latest_checkpoint_picks_highest_step() {
        let dir = std::env::temp_dir().join("aeris_ckpt_latest_test");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(latest_checkpoint(&dir).unwrap(), None, "missing dir is not an error");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_checkpoint(&dir).unwrap(), None);
        for name in ["step_000002.ckpt", "step_000010.ckpt", "step_000004.ckpt", "notes.txt"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let best = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(best.file_name().unwrap(), "step_000010.ckpt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_roundtrip_with_metadata() {
        let path = std::env::temp_dir().join("aeris_ckpt_entries.bin");
        let entries = vec![
            ("param/w".to_string(), Tensor::from_slice(&[1.5, -2.0])),
            u64_entry("meta/step", u64::MAX - 12345),
        ];
        save_entries(&entries, &path).unwrap();
        let back = load_entries(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].1.data(), entries[0].1.data());
        assert_eq!(entry_u64(&back[1].1).unwrap(), u64::MAX - 12345);
        assert!(entry_u64(&Tensor::zeros(&[3])).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
