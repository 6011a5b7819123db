//! # ens-columnar
//!
//! The compact binary container format behind the native on-disk `Dataset`
//! form: a sectioned struct-of-arrays file with interned strings and
//! fixed-width little-endian numeric columns. This crate is the *format
//! engine* — framing, checksums, typed column cursors, intern tables — and
//! knows nothing about datasets; the schema binding (which sections exist
//! and what columns they carry) lives with the types being stored.
//!
//! ## File layout (version 1)
//!
//! ```text
//! offset 0   magic  "ENSC"                          4 bytes
//! offset 4   format version                         u32 LE
//! offset 8   section count                          u32 LE
//! offset 12  directory, one entry per section:
//!              section id                           u32 LE
//!              payload offset (absolute)            u64 LE
//!              payload length                       u64 LE
//!              payload checksum64                   u64 LE
//! then       directory checksum64 (of everything above)   u64 LE
//! then       section payloads, concatenated in directory order
//! ```
//!
//! Every section payload is independently checksummed, so a truncated or
//! bit-flipped file fails [`FileView::parse`] with a typed error instead of
//! decoding into garbage. The magic is deliberately distinguishable from
//! JSON (which starts with `{` after optional whitespace), making format
//! auto-detection a two-byte sniff.
//!
//! ## Columns
//!
//! Sections are built with the [`PutLe`] writer extension and read back
//! with a bounds-checked [`Cursor`]. Within a section, encoders are
//! expected to lay fields out *column-wise* (all values of field A, then
//! all of field B), so a decoder reads each column in place: the cursor
//! bounds-checks the whole column once and hands out a borrowed
//! [`Column`] view that decodes values on access, with no copy of the
//! column. Booleans pack into bitmaps ([`push_bits`] /
//! [`Cursor::take_bits`]); optional references use the [`NONE_ID`]
//! sentinel.
//!
//! ## Interning
//!
//! [`StrTable`] and [`BytesTable`] deduplicate repeated values (names,
//! 20-byte addresses) into id-indexed pools, so a column of owners is a
//! `u32` column plus one shared table. Both report hit counts for
//! observability. Their read sides, [`StrPool`] and [`FixedPool`], are
//! views that borrow from the file as well.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;

/// Magic bytes opening every columnar file.
pub const MAGIC: [u8; 4] = *b"ENSC";

/// Current format version.
pub const VERSION: u32 = 1;

/// Sentinel id meaning "absent" in optional id columns.
pub const NONE_ID: u32 = u32::MAX;

/// Bytes of one directory entry: id (4) + offset (8) + len (8) + checksum (8).
const DIR_ENTRY_BYTES: usize = 28;

/// Bytes before the directory: magic (4) + version (4) + section count (4).
const PREAMBLE_BYTES: usize = 12;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a columnar file failed to parse or decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColumnarError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// A read ran past the end of its buffer.
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// A section payload's checksum does not match the directory.
    ChecksumMismatch {
        /// The failing section's id.
        section: u32,
    },
    /// The header/directory checksum does not match.
    DirectoryChecksumMismatch,
    /// A section the schema requires is absent.
    MissingSection(u32),
    /// The directory lists the same section id twice.
    DuplicateSection(u32),
    /// A value inside a section is inconsistent (bad intern id, invalid
    /// UTF-8, trailing bytes, ...).
    Corrupt(String),
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::BadMagic => write!(f, "not a columnar file (bad magic)"),
            ColumnarError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported columnar format version {v} (reader: {VERSION})"
                )
            }
            ColumnarError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated while reading {context}: needed {needed} bytes, had {available}"
            ),
            ColumnarError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            ColumnarError::DirectoryChecksumMismatch => {
                write!(f, "header directory checksum mismatch")
            }
            ColumnarError::MissingSection(id) => write!(f, "required section {id} is missing"),
            ColumnarError::DuplicateSection(id) => write!(f, "section {id} appears twice"),
            ColumnarError::Corrupt(what) => write!(f, "corrupt columnar data: {what}"),
        }
    }
}

impl std::error::Error for ColumnarError {}

/// Convenience alias for fallible columnar operations.
pub type Result<T> = std::result::Result<T, ColumnarError>;

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// A word-at-a-time FNV-1a variant: the 64-bit FNV constants applied to
/// little-endian 8-byte words (zero-padded tail), with the input length
/// folded into the seed so payloads differing only in trailing zero bytes
/// hash apart. Not cryptographic — an integrity check against truncation
/// and bit rot, chosen for GB/s-range throughput over byte-serial FNV.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = (OFFSET ^ bytes.len() as u64).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Writer side
// ---------------------------------------------------------------------------

/// Little-endian append helpers for building section payloads in a
/// `Vec<u8>`.
pub trait PutLe {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u32`, little-endian.
    fn put_u32(&mut self, v: u32);
    /// Appends a `u64`, little-endian.
    fn put_u64(&mut self, v: u64);
    /// Appends a `u128`, little-endian.
    fn put_u128(&mut self, v: u128);
    /// Appends raw bytes.
    fn put_bytes(&mut self, b: &[u8]);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u128(&mut self, v: u128) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

/// Packs a bool column into a bitmap (LSB-first within each byte) and
/// appends it. The reader recovers it with [`Cursor::take_bits`] given the
/// same bit count — no length prefix is written.
pub fn push_bits(buf: &mut Vec<u8>, bits: &[bool]) {
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        buf.push(byte);
    }
}

/// Accumulates sections and frames them into a columnar file.
#[derive(Default)]
pub struct FileBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl FileBuilder {
    /// An empty builder for a version-[`VERSION`] file.
    pub fn new() -> FileBuilder {
        FileBuilder::default()
    }

    /// Adds a section. Ids must be unique; order is preserved in the file.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already added (a schema bug, not input data).
    pub fn add(&mut self, id: u32, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "section {id} added twice"
        );
        self.sections.push((id, payload));
    }

    /// Frames the accumulated sections into the final file bytes.
    pub fn finish(self) -> Vec<u8> {
        let dir_bytes = self.sections.len() * DIR_ENTRY_BYTES;
        let payload_start = PREAMBLE_BYTES + dir_bytes + 8; // + directory checksum
        let total: usize =
            payload_start + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>();

        let mut out = Vec::with_capacity(total);
        out.put_bytes(&MAGIC);
        out.put_u32(VERSION);
        out.put_u32(self.sections.len() as u32);
        let mut offset = payload_start as u64;
        for (id, payload) in &self.sections {
            out.put_u32(*id);
            out.put_u64(offset);
            out.put_u64(payload.len() as u64);
            out.put_u64(checksum64(payload));
            offset += payload.len() as u64;
        }
        let dir_checksum = checksum64(&out);
        out.put_u64(dir_checksum);
        for (_, payload) in &self.sections {
            out.put_bytes(payload);
        }
        debug_assert_eq!(out.len(), total);
        out
    }
}

/// A parsed, checksum-verified view over a columnar file's sections.
#[derive(Debug)]
pub struct FileView<'a> {
    version: u32,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> FileView<'a> {
    /// Parses and fully verifies a file: magic, version, directory bounds,
    /// the directory checksum, and every section's payload checksum.
    pub fn parse(bytes: &'a [u8]) -> Result<FileView<'a>> {
        if bytes.len() < PREAMBLE_BYTES || bytes[..4] != MAGIC {
            return Err(ColumnarError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(ColumnarError::UnsupportedVersion(version));
        }
        let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        let dir_end = PREAMBLE_BYTES + count * DIR_ENTRY_BYTES;
        if bytes.len() < dir_end + 8 {
            return Err(ColumnarError::Truncated {
                context: "section directory",
                needed: dir_end + 8,
                available: bytes.len(),
            });
        }
        let stored_dir_checksum =
            u64::from_le_bytes(bytes[dir_end..dir_end + 8].try_into().expect("8 bytes"));
        if checksum64(&bytes[..dir_end]) != stored_dir_checksum {
            return Err(ColumnarError::DirectoryChecksumMismatch);
        }

        let mut sections = Vec::with_capacity(count);
        let mut cursor = Cursor::new(&bytes[PREAMBLE_BYTES..dir_end], "section directory");
        for _ in 0..count {
            let id = cursor.take_u32()?;
            let offset = cursor.take_u64()? as usize;
            let len = cursor.take_u64()? as usize;
            let stored = cursor.take_u64()?;
            let end = offset.checked_add(len).ok_or(ColumnarError::Truncated {
                context: "section payload",
                needed: usize::MAX,
                available: bytes.len(),
            })?;
            if end > bytes.len() {
                return Err(ColumnarError::Truncated {
                    context: "section payload",
                    needed: end,
                    available: bytes.len(),
                });
            }
            if sections.iter().any(|(existing, _)| *existing == id) {
                return Err(ColumnarError::DuplicateSection(id));
            }
            let payload = &bytes[offset..end];
            if checksum64(payload) != stored {
                return Err(ColumnarError::ChecksumMismatch { section: id });
            }
            sections.push((id, payload));
        }
        Ok(FileView { version, sections })
    }

    /// The file's format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of sections in the file.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// The payload of section `id`, or [`ColumnarError::MissingSection`].
    pub fn section(&self, id: u32) -> Result<&'a [u8]> {
        self.sections
            .iter()
            .find(|(existing, _)| *existing == id)
            .map(|(_, payload)| *payload)
            .ok_or(ColumnarError::MissingSection(id))
    }

    /// `(id, payload length)` for every section, in file order.
    pub fn section_sizes(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.sections.iter().map(|(id, p)| (*id, p.len()))
    }
}

/// True if `bytes` start with the columnar [`MAGIC`] — the cheap sniff
/// format auto-detection uses before committing to a full parse.
pub fn is_columnar(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
}

// ---------------------------------------------------------------------------
// Reader side
// ---------------------------------------------------------------------------

/// A bounds-checked, typed reader over one section payload.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`; `context` names the section in
    /// truncation errors.
    pub fn new(buf: &'a [u8], context: &'static str) -> Cursor<'a> {
        Cursor {
            buf,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(ColumnarError::Truncated {
                context: self.context,
                needed: n,
                available: self.buf.len() - self.pos,
            }),
        }
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` and converts it to `usize`, failing on 32-bit
    /// platforms if it does not fit.
    pub fn take_len(&mut self) -> Result<usize> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| ColumnarError::Corrupt(format!("length {v} overflows usize")))
    }

    /// Reads `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Takes a column of `n` fixed-width values in place, without copying
    /// it. The column's bytes are bounds-checked here, so once this returns
    /// `n` is backed by data and may size an allocation.
    pub fn take_column<T: FixedWidth>(&mut self, n: usize) -> Result<Column<'a, T>> {
        let raw = self.take(n.checked_mul(T::WIDTH).ok_or_else(|| overflow(n))?)?;
        Ok(Column {
            raw,
            len: n,
            value: PhantomData,
        })
    }

    /// Reads a bitmap of `n` bits written by [`push_bits`].
    pub fn take_bits(&mut self, n: usize) -> Result<Bits<'a>> {
        let bytes = self.take(n.div_ceil(8))?;
        Ok(Bits { bytes, len: n })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the section was consumed exactly — a drifted schema
    /// surfaces as an error, not silently ignored trailing bytes.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ColumnarError::Corrupt(format!(
                "{}: {} trailing bytes",
                self.context,
                self.remaining()
            )))
        }
    }
}

fn overflow(n: usize) -> ColumnarError {
    ColumnarError::Corrupt(format!("column length {n} overflows"))
}

/// A value stored in a fixed number of little-endian bytes: the element
/// type of a [`Column`].
pub trait FixedWidth: Copy + 'static {
    /// Bytes per value.
    const WIDTH: usize;
    /// Decodes one value from exactly [`FixedWidth::WIDTH`] bytes.
    fn from_le(raw: &[u8]) -> Self;
}

macro_rules! fixed_width_int {
    ($($t:ty),*) => {$(
        impl FixedWidth for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn from_le(raw: &[u8]) -> $t {
                <$t>::from_le_bytes(raw.try_into().expect("one value's bytes"))
            }
        }
    )*};
}

fixed_width_int!(u32, u64, u128);

impl<const N: usize> FixedWidth for [u8; N] {
    const WIDTH: usize = N;
    fn from_le(raw: &[u8]) -> [u8; N] {
        raw.try_into().expect("one value's bytes")
    }
}

/// A fixed-width column read in place: `len` values borrowed from the
/// section payload and decoded on access.
#[derive(Clone, Copy)]
pub struct Column<'a, T> {
    raw: &'a [u8],
    len: usize,
    value: PhantomData<T>,
}

impl<'a, T: FixedWidth> Column<'a, T> {
    /// The `i`-th value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (a decoder bug, not input data).
    pub fn get(&self, i: usize) -> T {
        // With `i < len`, `start + WIDTH <= len * WIDTH`, which
        // `take_column` checked for overflow.
        assert!(i < self.len, "value {i} out of {}", self.len);
        let start = i * T::WIDTH;
        T::from_le(&self.raw[start..start + T::WIDTH])
    }

    /// The values in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + 'a {
        // `max(1)` keeps a zero-width column from asking for empty chunks;
        // its bytes are empty, so it still yields nothing.
        self.raw.chunks_exact(T::WIDTH.max(1)).map(T::from_le)
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A decoded bitmap column.
pub struct Bits<'a> {
    bytes: &'a [u8],
    len: usize,
}

impl Bits<'_> {
    /// The `i`-th bit.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (a decoder bug, not input data).
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of {}", self.len);
        self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    /// Number of set bits. Padding bits past `len` in the last byte are
    /// not counted, just as [`Bits::get`] never reads them.
    pub fn count_ones(&self) -> usize {
        let (full, tail) = (self.len / 8, self.len % 8);
        let mut ones: usize = self.bytes[..full]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        if tail != 0 {
            ones += (self.bytes[full] & ((1u8 << tail) - 1)).count_ones() as usize;
        }
        ones
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// ---------------------------------------------------------------------------
// Intern tables
// ---------------------------------------------------------------------------

/// A build-side string intern table: repeated strings collapse to one id.
#[derive(Default)]
pub struct StrTable {
    ids: HashMap<String, u32>,
    order: Vec<String>,
    lookups: u64,
}

impl StrTable {
    /// An empty table.
    pub fn new() -> StrTable {
        StrTable::default()
    }

    /// The id for `s`, interning it on first sight. Ids are dense and
    /// assigned in first-seen order, so a deterministic traversal produces
    /// a deterministic table.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.lookups += 1;
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.order.len()).expect("< 2^32 interned strings");
        assert!(id != NONE_ID, "intern table full");
        self.ids.insert(s.to_string(), id);
        self.order.push(s.to_string());
        id
    }

    /// Distinct strings interned.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total [`StrTable::intern`] calls.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups answered by an existing entry (the dedup win).
    pub fn hits(&self) -> u64 {
        self.lookups - self.order.len() as u64
    }

    /// Encodes the table: count, cumulative byte ends, concatenated UTF-8.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.order.len() as u32);
        let mut end = 0u32;
        for s in &self.order {
            end = end
                .checked_add(s.len() as u32)
                .expect("interned bytes < 4 GiB");
            buf.put_u32(end);
        }
        for s in &self.order {
            buf.put_bytes(s.as_bytes());
        }
    }
}

/// A decoded string pool (the read-side counterpart of [`StrTable`]): a
/// view that hands out `&str` slices of the file's string heap.
pub struct StrPool<'a> {
    ends: Column<'a, u32>,
    heap: &'a str,
}

impl<'a> StrPool<'a> {
    /// Decodes a pool encoded by [`StrTable::encode`]. One UTF-8 check
    /// covers the whole heap, and every string end must lie on a char
    /// boundary, which accepts exactly the pools whose every string is
    /// valid UTF-8 on its own.
    pub fn decode(cur: &mut Cursor<'a>) -> Result<StrPool<'a>> {
        let count = cur.take_u32()? as usize;
        let ends = cur.take_column::<u32>(count)?;
        let total = count.checked_sub(1).map_or(0, |last| ends.get(last)) as usize;
        let heap = std::str::from_utf8(cur.take_bytes(total)?)
            .map_err(|e| ColumnarError::Corrupt(format!("string pool: invalid UTF-8: {e}")))?;
        let mut start = 0usize;
        for end in ends.iter() {
            let end = end as usize;
            if end < start || end > total {
                return Err(ColumnarError::Corrupt(format!(
                    "string pool: end {end} out of order (start {start}, total {total})"
                )));
            }
            if !heap.is_char_boundary(end) {
                return Err(ColumnarError::Corrupt(format!(
                    "string pool: invalid UTF-8: end {end} splits a character"
                )));
            }
            start = end;
        }
        Ok(StrPool { ends, heap })
    }

    /// The string with id `id`.
    pub fn get(&self, id: u32) -> Result<&'a str> {
        let i = id as usize;
        if i >= self.ends.len() {
            return Err(ColumnarError::Corrupt(format!(
                "string id {id} out of range"
            )));
        }
        let start = if i == 0 {
            0
        } else {
            self.ends.get(i - 1) as usize
        };
        Ok(&self.heap[start..self.ends.get(i) as usize])
    }

    /// Like [`StrPool::get`] but mapping the [`NONE_ID`] sentinel to `None`.
    pub fn get_opt(&self, id: u32) -> Result<Option<&'a str>> {
        if id == NONE_ID {
            Ok(None)
        } else {
            self.get(id).map(Some)
        }
    }

    /// Number of pooled strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// A build-side intern table for fixed-width byte values (e.g. 20-byte
/// addresses): repeated values collapse to one dense `u32` id.
pub struct BytesTable<const N: usize> {
    ids: HashMap<[u8; N], u32>,
    order: Vec<[u8; N]>,
    lookups: u64,
}

impl<const N: usize> Default for BytesTable<N> {
    fn default() -> Self {
        BytesTable {
            ids: HashMap::new(),
            order: Vec::new(),
            lookups: 0,
        }
    }
}

impl<const N: usize> BytesTable<N> {
    /// An empty table.
    pub fn new() -> BytesTable<N> {
        BytesTable::default()
    }

    /// The id for `value`, interning it on first sight.
    pub fn intern(&mut self, value: [u8; N]) -> u32 {
        self.lookups += 1;
        if let Some(&id) = self.ids.get(&value) {
            return id;
        }
        let id = u32::try_from(self.order.len()).expect("< 2^32 interned values");
        assert!(id != NONE_ID, "intern table full");
        self.ids.insert(value, id);
        self.order.push(value);
        id
    }

    /// Distinct values interned.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total [`BytesTable::intern`] calls.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups answered by an existing entry.
    pub fn hits(&self) -> u64 {
        self.lookups - self.order.len() as u64
    }

    /// Encodes the table: count, then `count * N` raw bytes.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.order.len() as u32);
        for v in &self.order {
            buf.put_bytes(v);
        }
    }
}

/// A decoded fixed-width value pool (read side of [`BytesTable`]): a view
/// over the file's value column.
pub struct FixedPool<'a, const N: usize> {
    values: Column<'a, [u8; N]>,
}

impl<'a, const N: usize> FixedPool<'a, N> {
    /// Decodes a pool encoded by [`BytesTable::encode`].
    pub fn decode(cur: &mut Cursor<'a>) -> Result<FixedPool<'a, N>> {
        let count = cur.take_u32()? as usize;
        let values = cur.take_column::<[u8; N]>(count)?;
        Ok(FixedPool { values })
    }

    /// The value with id `id`.
    pub fn get(&self, id: u32) -> Result<[u8; N]> {
        if (id as usize) < self.values.len() {
            Ok(self.values.get(id as usize))
        } else {
            Err(ColumnarError::Corrupt(format!(
                "value id {id} out of range"
            )))
        }
    }

    /// Number of pooled values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_round_trips_sections() {
        let mut b = FileBuilder::new();
        b.add(7, vec![1, 2, 3]);
        b.add(9, Vec::new());
        b.add(3, vec![0xFF; 100]);
        let bytes = b.finish();
        assert!(is_columnar(&bytes));

        let view = FileView::parse(&bytes).expect("parses");
        assert_eq!(view.version(), VERSION);
        assert_eq!(view.section_count(), 3);
        assert_eq!(view.section(7).unwrap(), &[1, 2, 3]);
        assert_eq!(view.section(9).unwrap(), &[] as &[u8]);
        assert_eq!(view.section(3).unwrap().len(), 100);
        assert_eq!(view.section(8), Err(ColumnarError::MissingSection(8)));
    }

    /// The exact header bytes of a one-section file are pinned: any layout
    /// drift (field order, widths, endianness, checksum definition) breaks
    /// this test rather than silently producing unreadable files.
    #[test]
    fn header_layout_is_pinned() {
        let mut b = FileBuilder::new();
        b.add(1, vec![0xAB, 0xCD]);
        let bytes = b.finish();

        // Preamble.
        assert_eq!(&bytes[0..4], b"ENSC");
        assert_eq!(&bytes[4..8], &1u32.to_le_bytes()); // version
        assert_eq!(&bytes[8..12], &1u32.to_le_bytes()); // section count
                                                        // Directory entry: id, offset, len, checksum.
        assert_eq!(&bytes[12..16], &1u32.to_le_bytes());
        let payload_offset = (PREAMBLE_BYTES + DIR_ENTRY_BYTES + 8) as u64;
        assert_eq!(&bytes[16..24], &payload_offset.to_le_bytes());
        assert_eq!(&bytes[24..32], &2u64.to_le_bytes());
        assert_eq!(
            &bytes[32..40],
            &checksum64(&[0xAB, 0xCD]).to_le_bytes(),
            "payload checksum"
        );
        // Directory checksum covers everything before it.
        assert_eq!(&bytes[40..48], &checksum64(&bytes[..40]).to_le_bytes());
        // Payload.
        assert_eq!(&bytes[48..], &[0xAB, 0xCD]);
    }

    /// Pinned checksum vectors: these exact values are written into every
    /// file, so the function may never change for version-1 files.
    #[test]
    fn checksum64_vectors_are_pinned() {
        assert_eq!(checksum64(b""), 0xaf63_bd4c_8601_b7df);
        assert_eq!(checksum64(b"ens"), 0x7954_5308_7524_f8b5);
        assert_eq!(checksum64(b"panning for gold.eth"), 0x06a5_14d3_53eb_b9c9);
    }

    #[test]
    fn corruption_is_detected() {
        let mut b = FileBuilder::new();
        b.add(1, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let good = b.finish();

        // Flip one payload byte.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            FileView::parse(&bad),
            Err(ColumnarError::ChecksumMismatch { section: 1 })
        ));

        // Flip one directory byte.
        let mut bad = good.clone();
        bad[13] ^= 0x01;
        assert!(matches!(
            FileView::parse(&bad),
            Err(ColumnarError::DirectoryChecksumMismatch)
        ));

        // Truncate the payload.
        let truncated = &good[..good.len() - 2];
        assert!(matches!(
            FileView::parse(truncated),
            Err(ColumnarError::Truncated { .. })
        ));

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            FileView::parse(&bad),
            Err(ColumnarError::BadMagic)
        ));

        // Future version.
        let mut bad = good;
        bad[4] = 99;
        // Directory checksum covers the version, so either error is a
        // refusal; re-frame so only the version differs.
        let err = FileView::parse(&bad).unwrap_err();
        assert!(matches!(
            err,
            ColumnarError::UnsupportedVersion(99) | ColumnarError::DirectoryChecksumMismatch
        ));
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let buf = [1u8, 0, 0, 0, 2, 0, 0, 0];
        let mut cur = Cursor::new(&buf, "test");
        assert_eq!(cur.take_u32().unwrap(), 1);
        assert_eq!(cur.take_u32().unwrap(), 2);
        assert!(matches!(
            cur.take_u8(),
            Err(ColumnarError::Truncated { .. })
        ));
        cur.expect_end().unwrap();

        let mut cur = Cursor::new(&buf, "test");
        assert_eq!(cur.take_u64().unwrap(), 1 | (2 << 32));
        assert!(cur.expect_end().is_ok());

        let mut cur = Cursor::new(&buf, "test");
        cur.take_u32().unwrap();
        assert!(cur.expect_end().is_err(), "trailing bytes must error");
    }

    #[test]
    fn bitmaps_round_trip() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            push_bits(&mut buf, &bits);
            assert_eq!(buf.len(), n.div_ceil(8));
            let mut cur = Cursor::new(&buf, "bits");
            let decoded = cur.take_bits(n).unwrap();
            cur.expect_end().unwrap();
            for (i, &b) in bits.iter().enumerate() {
                assert_eq!(decoded.get(i), b, "bit {i} of {n}");
            }
        }
    }

    /// The intern-table byte layout is pinned alongside the header.
    #[test]
    fn str_table_layout_is_pinned() {
        let mut t = StrTable::new();
        assert_eq!(t.intern("gold"), 0);
        assert_eq!(t.intern("eth"), 1);
        assert_eq!(t.intern("gold"), 0, "dedup");
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookups(), 3);
        assert_eq!(t.hits(), 1);

        let mut buf = Vec::new();
        t.encode(&mut buf);
        let expected: Vec<u8> = [
            2u32.to_le_bytes().as_slice(), // count
            4u32.to_le_bytes().as_slice(), // end of "gold"
            7u32.to_le_bytes().as_slice(), // end of "eth"
            b"goldeth",
        ]
        .concat();
        assert_eq!(buf, expected);

        let mut cur = Cursor::new(&buf, "strings");
        let pool = StrPool::decode(&mut cur).unwrap();
        cur.expect_end().unwrap();
        assert_eq!(pool.get(0).unwrap(), "gold");
        assert_eq!(pool.get(1).unwrap(), "eth");
        assert!(pool.get(2).is_err());
        assert_eq!(pool.get_opt(NONE_ID).unwrap(), None);
    }

    #[test]
    fn bytes_table_round_trips() {
        let mut t = BytesTable::<4>::new();
        assert_eq!(t.intern([1, 2, 3, 4]), 0);
        assert_eq!(t.intern([5, 6, 7, 8]), 1);
        assert_eq!(t.intern([1, 2, 3, 4]), 0);
        assert_eq!(t.hits(), 1);

        let mut buf = Vec::new();
        t.encode(&mut buf);
        assert_eq!(buf.len(), 4 + 8);
        let mut cur = Cursor::new(&buf, "addresses");
        let pool = FixedPool::<4>::decode(&mut cur).unwrap();
        cur.expect_end().unwrap();
        assert_eq!(pool.get(0).unwrap(), [1, 2, 3, 4]);
        assert_eq!(pool.get(1).unwrap(), [5, 6, 7, 8]);
        assert!(pool.get(2).is_err());
    }

    #[test]
    fn columns_are_read_in_place() {
        let mut buf = Vec::new();
        for v in [7u32, 0, u32::MAX] {
            buf.put_u32(v);
        }
        buf.put_u128(u128::MAX - 1);
        buf.put_bytes(&[1, 2, 3, 4, 5, 6]);
        let mut cur = Cursor::new(&buf, "columns");
        let ids = cur.take_column::<u32>(3).unwrap();
        let wide = cur.take_column::<u128>(1).unwrap();
        let pairs = cur.take_column::<[u8; 2]>(3).unwrap();
        cur.expect_end().unwrap();
        assert_eq!((ids.len(), ids.get(0), ids.get(2)), (3, 7, u32::MAX));
        assert_eq!(ids.iter().collect::<Vec<_>>(), [7, 0, u32::MAX]);
        assert_eq!(wide.get(0), u128::MAX - 1);
        assert_eq!(pairs.get(1), [3, 4]);

        // A column longer than the bytes left fails before anything is
        // sized from its count.
        let mut cur = Cursor::new(&buf, "columns");
        assert!(matches!(
            cur.take_column::<u64>(usize::MAX / 4),
            Err(ColumnarError::Corrupt(_))
        ));
        assert!(matches!(
            cur.take_column::<u64>(5),
            Err(ColumnarError::Truncated { .. })
        ));
    }

    #[test]
    fn popcount_ignores_padding_bits() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            push_bits(&mut buf, &bits);
            if let Some(last) = buf.last_mut() {
                if n % 8 != 0 {
                    *last |= 0xFF << (n % 8); // set every padding bit
                }
            }
            let decoded = Cursor::new(&buf, "bits").take_bits(n).unwrap();
            assert_eq!(decoded.count_ones(), bits.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn a_string_end_inside_a_character_is_rejected() {
        // "币" is three bytes; an end of 1 splits it, although the heap as
        // a whole is valid UTF-8.
        let mut buf = Vec::new();
        buf.put_u32(2);
        buf.put_u32(1);
        buf.put_u32(3);
        buf.put_bytes("币".as_bytes());
        let mut cur = Cursor::new(&buf, "strings");
        assert!(matches!(
            StrPool::decode(&mut cur),
            Err(ColumnarError::Corrupt(msg)) if msg.contains("invalid UTF-8")
        ));
    }

    #[test]
    fn unicode_strings_survive_the_pool() {
        let mut t = StrTable::new();
        let ids: Vec<u32> = ["Binance 14", "币安", "emoji 😀", ""]
            .iter()
            .map(|s| t.intern(s))
            .collect();
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let mut cur = Cursor::new(&buf, "strings");
        let pool = StrPool::decode(&mut cur).unwrap();
        assert_eq!(pool.get(ids[1]).unwrap(), "币安");
        assert_eq!(pool.get(ids[2]).unwrap(), "emoji 😀");
        assert_eq!(pool.get(ids[3]).unwrap(), "");
    }
}
