//! Checkpointing: the workspace's one on-disk format for tensors — a
//! self-describing list of named f32 tensors (name → shape → data) — and the
//! one keyed reader over it. SWiPe's coordinated `step_N.ckpt` files are
//! written and read in this format without a serialization framework.
//!
//! The reader is [`Entries`]: it decodes a whole file, then takes entries by
//! key ([`Entries::take`]) or as a whole parameter set
//! ([`Entries::take_params`]). A missing or mis-shaped entry is a typed
//! [`EntryError`] (`InvalidData` as an [`std::io::Error`]). The reader never
//! touches a model, so a loader takes everything it needs first and commits
//! only once every entry has passed: a corrupt checkpoint is an error, never
//! a half-restore.

use crate::params::ParamStore;
use aeris_tensor::Tensor;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: u32 = 0xAE51_C4B1;

/// Serialize named tensors to `writer` in the checkpoint format: the one
/// encoder. A SWiPe step checkpoint uses prefixed names (`param/…`, `opt.m/…`,
/// `opt.v/…`, `meta/…`) to pack parameters, optimizer moments and run
/// metadata into one file.
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

/// Save named tensors to a file (see [`write_entries`]). The buffer is
/// flushed explicitly, so a failed write (a full disk) is an error here
/// rather than lost in the writer's drop.
pub fn save_entries(entries: &[(String, Tensor)], path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_entries(entries, &mut f)?;
    f.flush()
}

/// Load named tensors from a file, in file order (inverse of
/// [`save_entries`]). Readers look entries up through [`Entries::load`].
pub fn load_entries(path: &Path) -> std::io::Result<Vec<(String, Tensor)>> {
    decode(&mut std::io::BufReader::new(std::fs::File::open(path)?))
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

/// The one decoder: a checkpoint stream into `(name, tensor)` pairs. Every
/// count and length in the stream is untrusted: a corrupt or truncated input
/// is an `InvalidData` / `UnexpectedEof` error, never a panic or an
/// allocation sized by the corrupt field. Bytes after the declared entries
/// are not read.
fn decode(reader: &mut dyn Read) -> std::io::Result<Vec<(String, Tensor)>> {
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

/// Why a decoded checkpoint does not hold what a reader needs. Both variants
/// name the full key; as an [`std::io::Error`] either is `InvalidData`.
#[derive(Clone, Debug, PartialEq)]
pub enum EntryError {
    /// No entry under this key.
    Missing(String),
    /// The entry exists in another shape than the reader requires.
    Shape(String),
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryError::Missing(key) => write!(f, "checkpoint missing entry {key}"),
            EntryError::Shape(key) => write!(f, "checkpoint entry {key} has the wrong shape"),
        }
    }
}

impl std::error::Error for EntryError {}

impl From<EntryError> for std::io::Error {
    fn from(e: EntryError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// A decoded checkpoint, keyed by entry name: the one reader behind every
/// loader. Taking an entry moves it out, so a loader owns what it restores
/// without a copy; nothing here mutates a model.
pub struct Entries(HashMap<String, Tensor>);

impl Entries {
    /// Decode a checkpoint file.
    pub fn load(path: &Path) -> std::io::Result<Entries> {
        Ok(Entries(load_entries(path)?.into_iter().collect()))
    }

    /// The entry under `key`.
    pub fn take(&mut self, key: &str) -> Result<Tensor, EntryError> {
        self.0.remove(key).ok_or_else(|| EntryError::Missing(key.to_string()))
    }

    /// The entry under `key`, which must have exactly `shape`.
    fn take_shaped(&mut self, key: &str, shape: &[usize]) -> Result<Tensor, EntryError> {
        let t = self.take(key)?;
        if t.shape() != shape {
            return Err(EntryError::Shape(key.to_string()));
        }
        Ok(t)
    }

    /// One tensor per parameter of `store`, in store order: the entry
    /// `{prefix}{name}` in the parameter's shape. The store is only read;
    /// the caller commits the set (`ParamStore::restore`) once everything
    /// else it needs has passed too.
    pub fn take_params(
        &mut self,
        prefix: &str,
        store: &ParamStore,
    ) -> Result<Vec<Tensor>, EntryError> {
        store
            .iter()
            .map(|(_, name, v)| self.take_shaped(&format!("{prefix}{name}"), v.shape()))
            .collect()
    }
}

/// The most recent coordinated checkpoint in `dir`: the `step_N.ckpt` file
/// with the largest step number N. Names are written `step_{:06}` — a
/// minimum width, so name order is not step order past 999,999 — and a name
/// whose N is not all digits is skipped. `Ok(None)` when the directory is
/// missing or holds no checkpoints — a recovery supervisor then restarts
/// from scratch.
pub fn latest_checkpoint(dir: &Path) -> std::io::Result<Option<std::path::PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut best: Option<(u64, std::path::PathBuf)> = None;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let step = name
            .to_str()
            .and_then(|n| n.strip_prefix("step_")?.strip_suffix(".ckpt"))
            .filter(|digits| digits.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|digits| digits.parse::<u64>().ok());
        let Some(step) = step else { continue };
        let path = entry.path();
        if best.as_ref().is_none_or(|b| (step, &path) > (b.0, &b.1)) {
            best = Some((step, path));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Encode a `u64` as a 2-element tensor of f32 *bit patterns* (lo, hi 32
/// bits). Stored bitwise, so round-trips are exact — used for step counters,
/// seeds and topology in step checkpoints and re-shard payloads, which must
/// survive serialization through the f32-only tensor format without loss.
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
impl Entries {
    /// Decode a checkpoint stream.
    fn read(reader: &mut dyn Read) -> std::io::Result<Entries> {
        Ok(Entries(decode(reader)?.into_iter().collect()))
    }
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

    /// Save every parameter of `store` to a file, under its own name.
    fn save_params(store: &ParamStore, path: &Path) -> std::io::Result<()> {
        let entries: Vec<(String, Tensor)> =
            store.iter().map(|(_, n, v)| (n.to_string(), v.clone())).collect();
        save_entries(&entries, path)
    }

    /// Load a checkpoint into an existing store: every parameter must be
    /// present under its name in its shape, or the store is left untouched.
    fn load_params(store: &mut ParamStore, path: &Path) -> std::io::Result<()> {
        let values = Entries::load(path)?.take_params("", store)?;
        store.restore(&values);
        Ok(())
    }

    /// `store`'s parameters in the checkpoint format, as `save_params`
    /// writes them.
    fn encoded(store: &ParamStore) -> Vec<u8> {
        let entries: Vec<(String, Tensor)> =
            store.iter().map(|(_, n, v)| (n.to_string(), v.clone())).collect();
        let mut buf = Vec::new();
        write_entries(&entries, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_in_memory() {
        let src = store();
        let buf = encoded(&src);
        let pairs = decode(&mut &buf[..]).unwrap();
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
        dst.get_mut(crate::params::ParamId(0)).data_mut().fill(0.0);
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
        let before = bad.snapshot();
        let err = load_params(&mut bad, &path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(bad.snapshot(), before, "a rejected load must leave the store untouched");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_reader_types_missing_and_mis_shaped_entries() {
        let mut entries = Entries::read(&mut &encoded(&store())[..]).unwrap();
        assert_eq!(entries.take_shaped("gamma", &[7]).unwrap().shape(), &[7]);
        assert_eq!(entries.take("gamma"), Err(EntryError::Missing("gamma".into())), "taken once");
        assert_eq!(entries.take_shaped("layer.b", &[5]), Err(EntryError::Shape("layer.b".into())));
        let err: std::io::Error = EntryError::Missing("x".into()).into();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A parameter set under a prefix: every name and shape is checked,
        // and the first entry that fails is named by its full key.
        let src = store();
        let prefixed: Vec<(String, Tensor)> =
            src.iter().map(|(_, n, v)| (format!("p/{n}"), v.clone())).collect();
        let mut buf = Vec::new();
        write_entries(&prefixed, &mut buf).unwrap();
        let values = Entries::read(&mut &buf[..]).unwrap().take_params("p/", &src).unwrap();
        assert_eq!(values, src.snapshot());
        let unprefixed = Entries::read(&mut &buf[..]).unwrap().take_params("", &src);
        assert_eq!(unprefixed, Err(EntryError::Missing("layer.w".into())));
        let mut grown = prefixed.clone();
        grown[2].1 = Tensor::zeros(&[8]);
        buf.clear();
        write_entries(&grown, &mut buf).unwrap();
        let err = Entries::read(&mut &buf[..]).unwrap().take_params("p/", &src);
        assert_eq!(err, Err(EntryError::Shape("p/gamma".into())));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_save_to_a_full_disk_is_an_error() {
        // Small enough to sit in the write buffer until the final flush.
        let entries = vec![("w".to_string(), Tensor::from_slice(&[1.0, 2.0]))];
        assert!(save_entries(&entries, Path::new("/dev/full")).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 16];
        assert!(decode(&mut &buf[..]).is_err());
    }

    /// Parse untrusted bytes: an error is one of the two documented kinds,
    /// and whatever parses re-serialises to exactly the bytes it consumed.
    fn parse_untrusted(input: &[u8]) -> Option<Vec<(String, Tensor)>> {
        match decode(&mut &input[..]) {
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
        let valid = encoded(&store());
        for cut in 0..valid.len() {
            let err = decode(&mut &valid[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        let words = |ws: &[u32]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        // Entry count u32::MAX backed by nothing.
        assert!(parse_untrusted(&words(&[MAGIC, u32::MAX])).is_none());
        // One entry named "w" (0x77) whose three dims are each u32::MAX.
        let mut buf = words(&[MAGIC, 1, 1]);
        buf.push(b'w');
        buf.extend(words(&[3, u32::MAX, u32::MAX, u32::MAX]));
        let err = decode(&mut &buf[..]).unwrap_err();
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
            let valid = encoded(&store());
            let intact = decode(&mut &valid[..]).unwrap();

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
        // Past six digits the zero-padded names no longer sort by step, and
        // a name whose step is not a number is not a checkpoint.
        for name in ["step_999999.ckpt", "step_1000000.ckpt", "step_x.ckpt"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let best = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(best.file_name().unwrap(), "step_1000000.ckpt");
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
