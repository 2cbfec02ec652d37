//! The one checksum kernel of the stack: CRC-32 (IEEE 802.3, reflected).
//!
//! Object files, module metadata and prelink snapshots (hobj, hlink)
//! carry it as their envelope trailer; the shared file system (hsfs)
//! seals journal records, stamps every durable block and digests its
//! tree with it. Sharing one kernel is what lets hsfs vouch for a
//! file's content without reading it: the stamps of a file's blocks
//! fold with [`crc32_combine`] into exactly `crc32` of the whole file,
//! the digest a prelink snapshot records (DESIGN.md §15).
//!
//! No dependencies: a leaf every crate can reach.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables. `TABLES[0][b]` is the CRC register after shifting
/// byte `b` through eight rounds of the bitwise algorithm, so one
/// lookup replaces eight shift-and-mask steps per input byte.
/// `TABLES[k][b]` is `TABLES[0][b]` followed by `k` more zero bytes,
/// which lets [`crc32`] fold eight input bytes with eight independent
/// lookups instead of a serial chain of eight.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the CRC-32 of `data`: eight bytes per step through the
/// slice-by-8 tables, then the tail byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc: u32 = !0;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `a * b` modulo the polynomial, in the reflected bit order (bit 31 is
/// the coefficient of x^0).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m: u32 = 1 << 31;
    let mut p: u32 = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 == 1 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k]` is x^(2^k) modulo the polynomial. The powers cycle with a
/// period dividing 2^32 - 1, so 32 entries reach every exponent.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p: u32 = 1 << 30; // x^1
    t[0] = p;
    let mut k = 1;
    while k < 32 {
        p = mul_mod_p(p, p);
        t[k] = p;
        k += 1;
    }
    t
};

/// x^(8 * `bytes`) modulo the polynomial: the operator that appends
/// `bytes` zero bytes to a CRC register.
fn zeros_operator(mut bytes: u64) -> u32 {
    let mut p: u32 = 1 << 31; // x^0
    let mut k = 3; // 8 bits per byte
    while bytes != 0 {
        if bytes & 1 == 1 {
            p = mul_mod_p(X2N[k & 31], p);
        }
        bytes >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a‖b`, from `crc32(a)`, `crc32(b)` and `b`'s length
/// alone: `crc_a` is shifted past `len_b` bytes and `crc_b` added. Costs
/// O(log len_b), whatever the lengths. `crc32(b"")` is 0, so an empty
/// half on either side leaves the other CRC unchanged.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    mul_mod_p(zeros_operator(len_b), crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vector() {
        // CRC-32 of "123456789" is 0xCBF43926 (IEEE reflected).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32 the table kernel must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// SplitMix64: deterministic test bytes without a dependency.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn table_matches_bitwise_reference() {
        // Every length class from empty to a few blocks.
        let mut next = splitmix(1993);
        for round in 0..64 {
            let len = match round {
                0 => 0,
                1 => 9000,
                _ => (next() % 9001) as usize,
            };
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}");
        }
    }

    /// A file of three full 4 KB blocks and a partial fourth: the block
    /// CRCs, folded left to right, are the CRC of the whole file.
    #[test]
    fn block_crcs_fold_into_the_file_crc() {
        const BLOCK: usize = 4096;
        let mut next = splitmix(7);
        let file: Vec<u8> = (0..3 * BLOCK + 1234).map(|_| next() as u8).collect();
        let folded = file
            .chunks(BLOCK)
            .fold(0, |acc, b| crc32_combine(acc, crc32(b), b.len() as u64));
        assert_eq!(file.chunks(BLOCK).last().map(<[u8]>::len), Some(1234));
        assert_eq!(folded, crc32(&file));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Slice-by-8 against the bitwise loop on random sub-slices: a
        /// start offset of 0-7 misaligns the 8-byte steps, and lengths
        /// of 0-9000 hit every tail length under 8.
        #[test]
        fn slice_by_8_matches_bitwise_on_sub_slices(
            seed in any::<u64>(),
            start in 0usize..8,
            len in 0usize..9001,
        ) {
            let mut rng = proptest::TestRng::from_seed(seed);
            let buf: Vec<u8> = (0..start + len).map(|_| rng.next_u32() as u8).collect();
            let slice = &buf[start..];
            prop_assert_eq!(crc32(slice), crc32_bitwise(slice), "start {} len {}", start, len);
        }

        /// `crc32_combine(crc(a), crc(b), len(b)) == crc(a‖b)` for a
        /// random buffer split at a random point (a cut past the end
        /// leaves `b` empty), and for the two splits with an empty half.
        #[test]
        fn combine_equals_crc_of_the_concatenation(
            seed in any::<u64>(),
            len in 0usize..9001,
            cut in 0usize..9001,
        ) {
            let mut rng = proptest::TestRng::from_seed(seed);
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let whole = crc32(&buf);
            for at in [cut.min(len), 0, len] {
                let (a, b) = buf.split_at(at);
                prop_assert_eq!(
                    crc32_combine(crc32(a), crc32(b), b.len() as u64),
                    whole,
                    "len {} cut {}", len, at
                );
            }
        }
    }
}
