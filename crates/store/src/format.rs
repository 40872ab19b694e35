//! The on-disk record format: little-endian primitives, CRC-32 integrity
//! and the versioned record frame.
//!
//! Every record file is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SBGR"
//! 4       4     format version (u32 LE)
//! 8       1     record kind (2 = cell; 1 was the retired trace kind)
//! 9       8     payload length (u64 LE)
//! 17      4     CRC-32 (IEEE) of the payload (u32 LE)
//! 21      n     payload
//! ```
//!
//! Hand-rolled on purpose (the offline workspace has no serde/bincode) and
//! **fixed by definition**: like the FNV fingerprints of the facade, the
//! byte layout must not drift with the toolchain, or stores written by one
//! build silently stop loading in the next. Everything is little-endian and
//! byte-oriented, so records are portable across hosts.

/// Magic bytes opening every record file.
pub const MAGIC: [u8; 4] = *b"SBGR";

/// The current format version. Bump on any layout change — readers refuse
/// other versions instead of misparsing them.
pub const FORMAT_VERSION: u32 = 1;

/// Record kind tag of a campaign-cell record.
pub const KIND_CELL: u8 = 2;

/// Size of the fixed frame header preceding the payload.
pub const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 4;

/// Slice-by-16 lookup tables: `CRC_TABLES[0]` is the classic byte-wise
/// table; `CRC_TABLES[k][b]` is the CRC state of byte `b` followed by `k`
/// zero bytes, so sixteen independent lookups advance the CRC by a whole
/// 16-byte block.
static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
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
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes`, slice-by-16: whole 16-byte
/// blocks take one table lookup per byte with no serial dependency between
/// them, the tail goes byte by byte. The values are those of the classic
/// byte-wise loop (kept as the test oracle), so stored records and wire
/// frames are unchanged.
///
/// (`secbranch-programs` carries its own copy for the CRC workload's
/// embedded digest — that crate is a leaf and must not depend on the
/// persistence stack; both copies pin the `0xCBF43926` check vector.)
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut block: [u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        for (b, s) in block[..4].iter_mut().zip(c.to_le_bytes()) {
            *b ^= s;
        }
        // Byte i of the block still has 15 - i bytes to travel.
        c = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in blocks.remainder() {
        c = CRC_TABLES[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// 64-bit FNV-1a — the same fixed, cross-build hash the facade uses for
/// fingerprints, here deriving record file names from key bytes.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Why a record failed to parse. [`RecordError::Version`] is split out so
/// callers can distinguish "written by a different format" from damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// Wrong magic, truncated header/payload, CRC mismatch, kind mismatch
    /// or malformed payload.
    Corrupt,
    /// The frame carries a different format version.
    Version(u32),
}

/// Wraps `payload` in a record frame of the given kind.
#[must_use]
pub fn frame_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a record frame and returns its payload slice.
///
/// Any shortfall — bad magic, truncation (a payload shorter than the header
/// promises), a trailing-garbage length mismatch, a CRC mismatch, the wrong
/// kind — is [`RecordError::Corrupt`]; a well-formed frame of another
/// format version is [`RecordError::Version`].
///
/// # Errors
///
/// See above.
pub fn parse_record(bytes: &[u8], expected_kind: u8) -> Result<&[u8], RecordError> {
    if bytes.len() < HEADER_LEN || bytes[0..4] != MAGIC {
        return Err(RecordError::Corrupt);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("length checked"));
    if version != FORMAT_VERSION {
        return Err(RecordError::Version(version));
    }
    let kind = bytes[8];
    let payload_len = u64::from_le_bytes(bytes[9..17].try_into().expect("length checked"));
    let crc = u32::from_le_bytes(bytes[17..21].try_into().expect("length checked"));
    let payload = &bytes[HEADER_LEN..];
    if kind != expected_kind || payload.len() as u64 != payload_len || crc32(payload) != crc {
        return Err(RecordError::Corrupt);
    }
    Ok(payload)
}

/// A growable little-endian byte sink for record payloads.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
}

/// A bounds-checked little-endian reader over a record payload. Every
/// method fails with [`RecordError::Corrupt`] instead of panicking, so a
/// damaged payload is dropped, never a crash.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// `true` when every byte has been consumed — decoders check this last
    /// so trailing garbage is rejected, not ignored.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self.pos.checked_add(n).ok_or(RecordError::Corrupt)?;
        if end > self.bytes.len() {
            return Err(RecordError::Corrupt);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`RecordError::Corrupt`] past the end.
    pub fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`RecordError::Corrupt`] past the end.
    pub fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`RecordError::Corrupt`] past the end.
    pub fn u64(&mut self) -> Result<u64, RecordError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`RecordError::Corrupt`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, RecordError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| RecordError::Corrupt)
    }

    /// Takes every byte not yet read (an unprefixed tail, as the last
    /// field of a payload); the reader is exhausted afterwards.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        rest
    }

    /// Reads a length-prefixed `u32` vector.
    ///
    /// # Errors
    ///
    /// [`RecordError::Corrupt`] on truncation.
    pub fn u32s(&mut self) -> Result<Vec<u32>, RecordError> {
        let len = self.u32()? as usize;
        // Guard the allocation against a corrupted length before reading.
        if len > self.bytes.len().saturating_sub(self.pos) / 4 {
            return Err(RecordError::Corrupt);
        }
        (0..len).map(|_| self.u32()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time CRC-32: the oracle the slice-by-16
    /// kernel is checked against.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn seeded_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_standard_test_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Two whole blocks plus a tail; the gridd frame test pins the same
        // value in a hand-built frame.
        let pangram = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32_reference(pangram), 0x414F_A339);
        assert_eq!(crc32(pangram), 0x414F_A339);
    }

    #[test]
    fn slice_by_16_crc_equals_the_bytewise_reference() {
        let buf = seeded_bytes(16 + 257, 0x5EED_C3C3);
        for start in 0..16 {
            for len in 0..=257 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_reference(bytes),
                    "start {start}, len {len}"
                );
            }
        }
        let big = seeded_bytes(1 << 20, 0x0DD_BA11);
        assert_eq!(crc32(&big), crc32_reference(&big));
    }

    #[test]
    fn records_with_a_bytewise_crc_still_parse() {
        // A record exactly as a build with the byte-wise CRC wrote it:
        // the header is assembled by hand around the oracle's CRC.
        let payload = seeded_bytes(1000, 7);
        let mut record = MAGIC.to_vec();
        record.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        record.push(KIND_CELL);
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(&crc32_reference(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        assert_eq!(record, frame_record(KIND_CELL, &payload), "same bytes");
        assert_eq!(parse_record(&record, KIND_CELL).unwrap(), &payload[..]);
    }

    #[test]
    fn fnv_matches_the_standard_test_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.str("héllo");
        w.u32s(&[4, 5]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u32s().unwrap(), vec![4, 5]);
        assert!(r.is_exhausted());
        assert_eq!(r.u8(), Err(RecordError::Corrupt), "reads past the end fail");
    }

    #[test]
    fn frames_round_trip_and_reject_damage() {
        let framed = frame_record(KIND_CELL, b"payload");
        assert_eq!(parse_record(&framed, KIND_CELL).unwrap(), b"payload");
        assert_eq!(
            parse_record(&frame_record(1, b"payload"), KIND_CELL),
            Err(RecordError::Corrupt),
            "kind mismatch"
        );

        let mut flipped = framed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(
            parse_record(&flipped, KIND_CELL),
            Err(RecordError::Corrupt),
            "payload tamper breaks the CRC"
        );

        let truncated = &framed[..framed.len() - 1];
        assert_eq!(
            parse_record(truncated, KIND_CELL),
            Err(RecordError::Corrupt),
            "truncation"
        );

        let mut versioned = framed.clone();
        versioned[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            parse_record(&versioned, KIND_CELL),
            Err(RecordError::Version(99)),
            "future versions are rejected, not misparsed"
        );

        assert_eq!(parse_record(b"no", KIND_CELL), Err(RecordError::Corrupt));
    }

    #[test]
    fn corrupted_length_prefixes_fail_cleanly() {
        // A huge length prefix must not trigger a huge allocation or a
        // panic — just a clean decode failure.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).u32s(), Err(RecordError::Corrupt));
        assert_eq!(Reader::new(&bytes).str(), Err(RecordError::Corrupt));
    }
}
