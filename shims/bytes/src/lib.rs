//! Offline stand-in for the `bytes` crate: just the `Buf`/`BufMut`
//! little-endian accessors the chunked store uses, over `&[u8]` and
//! `Vec<u8>`. Reads advance the slice in place (as `impl Buf for &[u8]`
//! does in the real crate); writes append.

#![forbid(unsafe_code)]

/// Sequential little-endian reads that advance the underlying slice.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Appending little-endian writes.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u32_f32() {
        let mut out = Vec::new();
        out.put_u32_le(0xDEAD_BEEF);
        out.put_f32_le(-1.5);
        out.put_u64_le(u64::MAX - 7);
        let mut cursor = &out[..];
        assert_eq!(cursor.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cursor.get_f32_le(), -1.5);
        assert_eq!(cursor.get_u64_le(), u64::MAX - 7);
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut cursor: &[u8] = &[1, 2];
        let _ = cursor.get_u32_le();
    }
}
