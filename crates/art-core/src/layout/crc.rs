//! CRC-32 (IEEE 802.3) used by leaf-node checksums.

/// Slicing-by-16 tables: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Folds the `N` (8 or 16) bytes of `chunk` into the remainder `c` in one
/// step: every byte is looked up in the table of the zero bytes that
/// follow it, the first four after meeting the remainder. Those four come
/// last, so a step waits on the previous one for four lookups only.
fn fold<const N: usize>(c: u32, chunk: &[u8; N]) -> u32 {
    let mut tail = 0;
    for (i, &b) in chunk[4..].iter().enumerate() {
        tail ^= TABLES[N - 5 - i][b as usize];
    }
    let head = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    let [b0, b1, b2, b3] = head.to_le_bytes();
    tail ^ TABLES[N - 1][b0 as usize]
        ^ TABLES[N - 2][b1 as usize]
        ^ TABLES[N - 3][b2 as usize]
        ^ TABLES[N - 4][b3 as usize]
}

/// Folds `bytes` into the running (pre-inverted) remainder `c`, sixteen
/// bytes per step, then eight, then one.
fn update(mut c: u32, bytes: &[u8]) -> u32 {
    let (sixteens, rest) = bytes.as_chunks::<16>();
    for chunk in sixteens {
        c = fold(c, chunk);
    }
    let (eights, rest) = rest.as_chunks::<8>();
    for chunk in eights {
        c = fold(c, chunk);
    }
    for &b in rest {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Computes the IEEE CRC-32 of `bytes`.
///
/// # Examples
///
/// ```
/// use art_core::layout::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF43926);
/// assert_eq!(crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 over several slices (avoids concatenation).
pub(crate) fn crc32_parts(parts: &[&[u8]]) -> u32 {
    parts.iter().fold(0xFFFF_FFFF, |c, part| update(c, part)) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the sliced version replaced, kept as the
    /// reference every checksum on an MN was written with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn parts_equal_whole() {
        let whole = crc32(b"hello world");
        let parts = crc32_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn single_bit_flip_detected() {
        let a = crc32(b"sphinx leaf payload");
        let b = crc32(b"sphinx leaf pbyload");
        assert_ne!(a, b);
    }

    /// Bit-identical to the reference for every length 0..=300 (every
    /// mix of 16-byte, 8-byte and single-byte steps) at every alignment of
    /// the first byte within an 8-byte word.
    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..320u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let base = data.as_ptr() as usize % 8;
        for align in 0..8 {
            // Slice start such that its address is `align` mod 8.
            let start = (8 + align - base) % 8;
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn parts_equal_bytewise_at_every_split_point() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let want = crc32_bytewise(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_parts(&[a, b]), want, "split {split}");
            // Three parts, the middle one empty.
            assert_eq!(crc32_parts(&[a, &[], b]), want, "split {split}");
        }
    }
}
