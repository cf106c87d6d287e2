//! The `dsmc-state` snapshot container: a versioned, self-describing
//! binary format for bit-exact checkpoint/restart.
//!
//! This crate owns only the *container* — framing, integrity, versioning
//! and typed little-endian primitives.  What goes inside (which sections a
//! simulation writes, and what each field means) is decided by the engine
//! and specified field-by-field in the repository's `STATE.md` handbook.
//! Keeping the container below the engine crates means the format layer
//! has no opinion about physics and the engine has exactly one way to
//! serialise state.
//!
//! # Container layout
//!
//! ```text
//! [magic  8B  "DSMCSNAP"]
//! [version      u32 LE]       FORMAT_VERSION of the writer
//! [fingerprint  u64 LE]       caller-supplied configuration fingerprint
//! [n_sections   u32 LE]
//! n_sections ×:
//!   [tag 4B ASCII] [len u64 LE] [payload  len bytes]
//! [checksum     u64 LE]       FNV-1a 64 over every preceding byte
//! ```
//!
//! All integers are little-endian.  The trailing checksum makes both
//! truncation and corruption detectable before any payload is decoded:
//! [`Reader::new`] refuses the buffer unless the magic, version, section
//! framing *and* checksum all hold, so decode code downstream never sees
//! a damaged container (it still must validate semantic invariants, e.g.
//! that column lengths agree).
//!
//! # Example
//!
//! ```
//! use dsmc_state::{Reader, Writer};
//!
//! let mut w = Writer::new(0xFEED);
//! {
//!     let mut s = w.section(*b"DEMO");
//!     s.u64(42);
//!     s.vec_i32(&[-1, 2, -3]);
//! }
//! let bytes = w.finish();
//!
//! let r = Reader::new(&bytes).unwrap();
//! assert_eq!(r.fingerprint(), 0xFEED);
//! let mut c = r.section(*b"DEMO").unwrap();
//! assert_eq!(c.u64().unwrap(), 42);
//! assert_eq!(c.vec_i32().unwrap(), vec![-1, 2, -3]);
//! c.done().unwrap();
//! ```

#![warn(missing_docs)]

pub mod store;

use std::fmt;

/// Version of the container + section layout.  Bump on ANY change to the
/// set of sections, their field order, or a field's width/meaning — the
/// reader rejects every other version outright (no migration shims; a
/// checkpoint is a cache, not an archive).  `CONTRIBUTING.md` documents
/// when a bump is required.
///
/// History: 1 = the PR-5 snapshot container (CORE/PART/BNDS + sampling
/// windows); 2 = the sharded-run manifest (`SHRD`) joined the section
/// set.  The manifest is *advisory* (execution layout, not physics), but
/// the policy is deliberately blunt — the set of sections changed, so the
/// version changed; see STATE.md's "Versioning" section for the
/// rationale.
pub const FORMAT_VERSION: u32 = 2;

/// Leading magic of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DSMCSNAP";

/// Why a snapshot buffer was rejected.
#[derive(Debug)]
pub enum StateError {
    /// Buffer shorter than the fixed header + trailer.
    TooShort,
    /// Leading magic is not [`MAGIC`].
    BadMagic,
    /// Written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The single version this reader supports.
        supported: u32,
    },
    /// Trailing FNV-64 does not match the bytes (corruption/truncation).
    ChecksumMismatch,
    /// The snapshot's configuration fingerprint does not match the
    /// configuration the caller wants to resume under.
    FingerprintMismatch {
        /// Fingerprint stored in the snapshot.
        stored: u64,
        /// Fingerprint of the configuration offered at resume.
        expected: u64,
    },
    /// A section the decoder requires is absent.
    MissingSection([u8; 4]),
    /// A typed read ran past the end of its section.
    SectionOverrun([u8; 4]),
    /// The container framing is intact but a payload violates a semantic
    /// invariant (mismatched lengths, out-of-range values, …).
    Malformed(&'static str),
    /// The configuration offered at resume failed its own validation, so
    /// no fingerprint comparison is even meaningful.
    InvalidConfig(String),
    /// Underlying file I/O failed (load/save helpers only).
    Io(std::io::Error),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn tag(t: &[u8; 4]) -> String {
            String::from_utf8_lossy(t).into_owned()
        }
        match self {
            StateError::TooShort => write!(f, "snapshot shorter than its fixed header"),
            StateError::BadMagic => write!(f, "not a DSMC snapshot (bad magic)"),
            StateError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} unsupported (this build reads only {supported}); \
                 re-record the checkpoint"
            ),
            StateError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (corrupt or truncated file)")
            }
            StateError::FingerprintMismatch { stored, expected } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {stored:#018x}, resume config {expected:#018x})"
            ),
            StateError::MissingSection(t) => write!(f, "snapshot missing section '{}'", tag(t)),
            StateError::SectionOverrun(t) => {
                write!(f, "section '{}' payload shorter than its schema", tag(t))
            }
            StateError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
            StateError::InvalidConfig(why) => {
                write!(f, "resume configuration is invalid: {why}")
            }
            StateError::Io(e) => write!(f, "snapshot i/o: {e}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<std::io::Error> for StateError {
    fn from(e: std::io::Error) -> Self {
        StateError::Io(e)
    }
}

/// Incremental FNV-1a 64-bit hash.
///
/// Used three ways, all load-bearing: the container's trailing integrity
/// checksum, the configuration fingerprint that gates resume, and the
/// engine's `state_hash` that the resume-bit-identity tests compare.  Not
/// cryptographic — it detects accidents, not adversaries.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Absorb a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `i32` (little-endian two's complement).
    pub fn i32(&mut self, v: i32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `i64` (little-endian two's complement).
    pub fn i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `f64` by exact bit pattern (`to_bits`), so fingerprints
    /// distinguish every representable value and never depend on printing.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Current digest.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Snapshot builder: header, then sections, then the checksum trailer.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    n_sections_at: usize,
    n_sections: u32,
}

impl Writer {
    /// Start a snapshot carrying the given configuration fingerprint.
    pub fn new(fingerprint: u64) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        let n_sections_at = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes());
        Self {
            buf,
            n_sections_at,
            n_sections: 0,
        }
    }

    /// Open a new section; fields are written through the returned handle
    /// and the section's length is patched when the handle drops.
    pub fn section(&mut self, tag: [u8; 4]) -> Section<'_> {
        self.n_sections += 1;
        self.buf.extend_from_slice(&tag);
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        Section { w: self, len_at }
    }

    /// Seal the snapshot: patch the section count, append the checksum,
    /// return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[self.n_sections_at..self.n_sections_at + 4]
            .copy_from_slice(&self.n_sections.to_le_bytes());
        let checksum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// An open section of a [`Writer`]; typed little-endian appends.
#[derive(Debug)]
pub struct Section<'a> {
    w: &'a mut Writer,
    len_at: usize,
}

impl Section<'_> {
    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.w.buf.extend_from_slice(b);
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a length-prefixed `i32` vector.
    pub fn vec_i32(&mut self, vs: &[i32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.i32(v);
        }
    }

    /// Append a length-prefixed `u16` vector.
    pub fn vec_u16(&mut self, vs: &[u16]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u16(v);
        }
    }

    /// Append a length-prefixed `u32` vector.
    pub fn vec_u32(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u32(v);
        }
    }

    /// Append a length-prefixed `u64` vector.
    pub fn vec_u64(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// Append a length-prefixed `i64` vector.
    pub fn vec_i64(&mut self, vs: &[i64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.i64(v);
        }
    }

    /// Append a length-prefixed opaque byte blob (e.g. a nested
    /// container).
    pub fn vec_u8(&mut self, vs: &[u8]) {
        self.u64(vs.len() as u64);
        self.bytes(vs);
    }

    /// Append a length-prefixed UTF-8 string (journal labels, error
    /// text).  Read back with [`Cursor::str`].
    pub fn str(&mut self, s: &str) {
        self.vec_u8(s.as_bytes());
    }
}

impl Drop for Section<'_> {
    fn drop(&mut self) {
        let len = (self.w.buf.len() - self.len_at - 8) as u64;
        self.w.buf[self.len_at..self.len_at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// A validated snapshot: framing, version and checksum already checked.
#[derive(Debug)]
pub struct Reader<'a> {
    fingerprint: u64,
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> Reader<'a> {
    /// Validate a snapshot buffer end to end (magic, version, section
    /// framing, trailing checksum) and index its sections.
    pub fn new(bytes: &'a [u8]) -> Result<Self, StateError> {
        // Fixed header (8+4+8+4) plus the checksum trailer (8).
        if bytes.len() < 8 + 4 + 8 + 4 + 8 {
            return Err(StateError::TooShort);
        }
        if bytes[..8] != MAGIC {
            return Err(StateError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StateError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        // Checksum first: everything after this point may trust lengths.
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a64(body) != stored {
            return Err(StateError::ChecksumMismatch);
        }
        let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let n_sections = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        // The count is a header field like any other: every section takes
        // at least its 12 framing bytes, so no more than that many fit.
        let fit = (body.len() - 24) / 12;
        let mut sections = Vec::with_capacity((n_sections as usize).min(fit));
        let mut at = 24usize;
        for _ in 0..n_sections {
            if at + 12 > body.len() {
                return Err(StateError::ChecksumMismatch);
            }
            let tag: [u8; 4] = body[at..at + 4].try_into().unwrap();
            let len = u64::from_le_bytes(body[at + 4..at + 12].try_into().unwrap()) as usize;
            at += 12;
            // Checked: a lying length near usize::MAX must be a typed
            // error, not an overflow panic (the checksum does not protect
            // against a buggy writer).
            if len > body.len() - at {
                return Err(StateError::ChecksumMismatch);
            }
            sections.push((tag, &body[at..at + len]));
            at += len;
        }
        if at != body.len() {
            // Bytes between the last section and the checksum: the writer
            // never produces this, so the framing was tampered with in a
            // checksum-preserving way (or the file is from a buggy tool).
            return Err(StateError::Malformed("trailing bytes after sections"));
        }
        Ok(Self {
            fingerprint,
            sections,
        })
    }

    /// The configuration fingerprint stored in the header.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether a section is present.
    pub fn has_section(&self, tag: [u8; 4]) -> bool {
        self.sections.iter().any(|(t, _)| *t == tag)
    }

    /// Typed cursor over a required section's payload.
    pub fn section(&self, tag: [u8; 4]) -> Result<Cursor<'a>, StateError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, buf)| Cursor { tag, buf, at: 0 })
            .ok_or(StateError::MissingSection(tag))
    }
}

/// Typed little-endian reads over one section's payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    tag: [u8; 4],
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], StateError> {
        if self.at + n > self.buf.len() {
            return Err(StateError::SectionOverrun(self.tag));
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, StateError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i32`.
    pub fn i32(&mut self) -> Result<i32, StateError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, StateError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a vector length prefix, bounds-checked against the bytes that
    /// actually remain so a corrupt length cannot trigger a huge
    /// allocation.
    fn vec_len(&mut self, elem_bytes: usize) -> Result<usize, StateError> {
        let n = self.u64()? as usize;
        if n.checked_mul(elem_bytes)
            .and_then(|b| self.at.checked_add(b))
            .is_none_or(|end| end > self.buf.len())
        {
            return Err(StateError::SectionOverrun(self.tag));
        }
        Ok(n)
    }

    /// Read a length-prefixed `i32` vector.
    pub fn vec_i32(&mut self) -> Result<Vec<i32>, StateError> {
        let n = self.vec_len(4)?;
        (0..n).map(|_| self.i32()).collect()
    }

    /// Read a length-prefixed `u16` vector.
    pub fn vec_u16(&mut self) -> Result<Vec<u16>, StateError> {
        let n = self.vec_len(2)?;
        (0..n).map(|_| self.u16()).collect()
    }

    /// Read a length-prefixed `u32` vector.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, StateError> {
        let n = self.vec_len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Read a length-prefixed `u64` vector.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, StateError> {
        let n = self.vec_len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Read a length-prefixed `i64` vector.
    pub fn vec_i64(&mut self) -> Result<Vec<i64>, StateError> {
        let n = self.vec_len(8)?;
        (0..n).map(|_| self.i64()).collect()
    }

    /// Read a length-prefixed opaque byte blob.
    pub fn vec_u8(&mut self) -> Result<Vec<u8>, StateError> {
        let n = self.vec_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string written by [`Section::str`].
    pub fn str(&mut self) -> Result<String, StateError> {
        String::from_utf8(self.vec_u8()?)
            .map_err(|_| StateError::Malformed("string field is not UTF-8"))
    }

    /// Assert the whole payload was consumed — a schema/length mismatch
    /// must fail loudly, not leave silently-ignored bytes behind.
    pub fn done(self) -> Result<(), StateError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(StateError::Malformed("section longer than its schema"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_snapshot() -> Vec<u8> {
        let mut w = Writer::new(0xABCD_EF01_2345_6789);
        {
            let mut s = w.section(*b"AAAA");
            s.u32(7);
            s.vec_u16(&[1, 2, 3]);
        }
        {
            let mut s = w.section(*b"BBBB");
            s.i64(-5);
            s.vec_i32(&[i32::MIN, 0, i32::MAX]);
            s.vec_u64(&[u64::MAX]);
        }
        w.finish()
    }

    #[test]
    fn round_trips_every_primitive() {
        let bytes = demo_snapshot();
        let r = Reader::new(&bytes).unwrap();
        assert_eq!(r.fingerprint(), 0xABCD_EF01_2345_6789);
        assert!(r.has_section(*b"AAAA") && !r.has_section(*b"ZZZZ"));
        let mut a = r.section(*b"AAAA").unwrap();
        assert_eq!(a.u32().unwrap(), 7);
        assert_eq!(a.vec_u16().unwrap(), vec![1, 2, 3]);
        a.done().unwrap();
        let mut b = r.section(*b"BBBB").unwrap();
        assert_eq!(b.i64().unwrap(), -5);
        assert_eq!(b.vec_i32().unwrap(), vec![i32::MIN, 0, i32::MAX]);
        assert_eq!(b.vec_u64().unwrap(), vec![u64::MAX]);
        b.done().unwrap();
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut w = Writer::new(1);
        {
            let mut s = w.section(*b"STRS");
            s.str("wedge-paper");
            s.str("");
            s.vec_u8(&[0xFF, 0xFE]); // not UTF-8
        }
        let bytes = w.finish();
        let r = Reader::new(&bytes).unwrap();
        let mut c = r.section(*b"STRS").unwrap();
        assert_eq!(c.str().unwrap(), "wedge-paper");
        assert_eq!(c.str().unwrap(), "");
        assert!(matches!(c.str(), Err(StateError::Malformed(_))));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = demo_snapshot();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Reader::new(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = demo_snapshot();
        for n in 0..bytes.len() {
            assert!(
                Reader::new(&bytes[..n]).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
    }

    #[test]
    fn appended_garbage_is_detected() {
        let mut bytes = demo_snapshot();
        bytes.push(0);
        assert!(matches!(
            Reader::new(&bytes),
            Err(StateError::ChecksumMismatch)
        ));
    }

    #[test]
    fn version_gate_rejects_other_versions() {
        let mut bytes = demo_snapshot();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Reader::new(&bytes),
            Err(StateError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn missing_section_and_overrun_are_typed() {
        let bytes = demo_snapshot();
        let r = Reader::new(&bytes).unwrap();
        assert!(matches!(
            r.section(*b"NOPE"),
            Err(StateError::MissingSection(_))
        ));
        let mut a = r.section(*b"AAAA").unwrap();
        let _ = a.u32().unwrap();
        let _ = a.vec_u16().unwrap();
        assert!(matches!(a.u64(), Err(StateError::SectionOverrun(_))));
    }

    #[test]
    fn short_read_of_a_section_fails_done() {
        let bytes = demo_snapshot();
        let r = Reader::new(&bytes).unwrap();
        let mut a = r.section(*b"AAAA").unwrap();
        let _ = a.u32().unwrap();
        assert!(matches!(a.done(), Err(StateError::Malformed(_))));
    }

    #[test]
    fn oversized_vector_length_cannot_allocate() {
        // Hand-build a section whose vector claims u64::MAX elements; the
        // bounds check must reject it before any allocation happens.
        let mut w = Writer::new(0);
        {
            let mut s = w.section(*b"HUGE");
            s.u64(u64::MAX); // the lying length prefix
        }
        let bytes = w.finish();
        let r = Reader::new(&bytes).unwrap();
        let mut c = r.section(*b"HUGE").unwrap();
        assert!(matches!(c.vec_i32(), Err(StateError::SectionOverrun(_))));
    }

    #[test]
    fn lying_section_length_with_fixed_checksum_is_a_typed_error() {
        // A buggy writer (not random corruption: the checksum is patched
        // to match) claims a section length near usize::MAX; the framing
        // walk must reject it, not overflow.
        let mut bytes = demo_snapshot();
        let len_at = 24 + 4; // first section's length field
        bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let n = bytes.len();
        let checksum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            Reader::new(&bytes),
            Err(StateError::ChecksumMismatch)
        ));
    }

    #[test]
    fn forged_section_count_with_fixed_checksum_is_a_typed_error() {
        // A one-section file whose header claims u32::MAX sections, resealed
        // so the checksum passes: the index must not be sized from the
        // claim (≈ 100 GB), and the framing walk must reject it.
        let mut w = Writer::new(5);
        w.section(*b"ONLY").u32(1);
        let mut bytes = w.finish();
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = bytes.len();
        let checksum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            Reader::new(&bytes),
            Err(StateError::ChecksumMismatch)
        ));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn byte_blobs_round_trip_and_bound_check() {
        let mut w = Writer::new(1);
        {
            let mut s = w.section(*b"BLOB");
            s.vec_u8(b"nested bytes");
            s.u32(9);
        }
        let bytes = w.finish();
        let r = Reader::new(&bytes).unwrap();
        let mut c = r.section(*b"BLOB").unwrap();
        assert_eq!(c.vec_u8().unwrap(), b"nested bytes");
        assert_eq!(c.u32().unwrap(), 9);
        c.done().unwrap();
        // A lying blob length must be a typed overrun, not an allocation.
        let mut w = Writer::new(1);
        {
            let mut s = w.section(*b"BLOB");
            s.u64(u64::MAX);
        }
        let bytes = w.finish();
        let r = Reader::new(&bytes).unwrap();
        let mut c = r.section(*b"BLOB").unwrap();
        assert!(matches!(c.vec_u8(), Err(StateError::SectionOverrun(_))));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let bytes = Writer::new(3).finish();
        let r = Reader::new(&bytes).unwrap();
        assert_eq!(r.fingerprint(), 3);
        assert!(!r.has_section(*b"AAAA"));
    }
}
