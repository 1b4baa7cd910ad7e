//! Compact binary (de)serialization of traces.
//!
//! Two format versions share the `"BPTR"` magic and header layout, and
//! [`TraceReader`]/[`read_trace`] dispatch on the header's version
//! field transparently:
//!
//! * **v1** (this module, [`write_trace`]) — fixed 22-byte records
//!   written field-by-field:
//!
//!   ```text
//!   magic  "BPTR"            4 bytes
//!   version u32              1
//!   name_len u32, name bytes
//!   record_count u64
//!   records: pc u64 | target u64 | kind u8 | taken u8 | leading u32
//!   ```
//!
//! * **v2** ([`crate::write_trace_v2`] / [`crate::BlockWriter`]) —
//!   block-framed, delta-encoded records with one large I/O per block;
//!   see `io_v2.rs` for the layout. New files should be written
//!   in v2; v1 writing is kept so old fixtures and tools keep working.

use crate::io_v2::V2Body;
use crate::record::{BranchKind, BranchRecord};
use crate::stream::{fill_by_records, BranchStream};
use crate::trace::Trace;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"BPTR";
const VERSION: u32 = 1;
/// Sanity cap on the header's name length: a corrupt stream must hit
/// the error path, not a multi-gigabyte allocation.
const MAX_NAME_LEN: u32 = 1 << 20;

/// Errors produced while reading or writing a serialized trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not start with the expected magic bytes.
    BadMagic([u8; 4]),
    /// The stream uses an unsupported format version.
    UnsupportedVersion(u32),
    /// The trace name is not valid UTF-8.
    BadName,
    /// The header declares an implausibly long trace name (corrupt
    /// stream guard: the length would otherwise be allocated blindly).
    NameTooLong(u32),
    /// A record used an unknown [`BranchKind`] code.
    BadKind(u8),
    /// A record's taken flag was neither 0 nor 1 (v1 records).
    BadTakenFlag(u8),
    /// A v2 record's flags byte has reserved bits set.
    BadFlags(u8),
    /// A v2 varint was longer than the field it encodes.
    BadVarint,
    /// A v2 block declared more payload than the sanity cap allows
    /// (corrupt-frame guard: the length would otherwise be allocated
    /// blindly).
    BlockTooLarge(u32),
    /// Decoding a v2 block ran past its declared payload length.
    BlockOverrun,
    /// A v2 block had payload bytes left after its declared record
    /// count was decoded.
    BlockTrailingBytes(usize),
    /// A v2 terminator frame carried the wrong payload length.
    BadTerminator(u32),
    /// The record count declared in a v2 header or terminator disagrees
    /// with the records actually present.
    CountMismatch {
        /// What the header or terminator claimed.
        declared: u64,
        /// What was actually counted.
        actual: u64,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o failure: {e}"),
            TraceIoError::BadMagic(m) => write!(f, "bad trace magic {m:?}"),
            TraceIoError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::BadName => write!(f, "trace name is not valid utf-8"),
            TraceIoError::NameTooLong(n) => {
                write!(
                    f,
                    "trace name length {n} exceeds the {MAX_NAME_LEN}-byte cap"
                )
            }
            TraceIoError::BadKind(c) => write!(f, "unknown branch kind code {c}"),
            TraceIoError::BadTakenFlag(c) => write!(f, "invalid taken flag {c}"),
            TraceIoError::BadFlags(b) => {
                write!(f, "record flags {b:#04x} have reserved bits set")
            }
            TraceIoError::BadVarint => write!(f, "varint wider than its field"),
            TraceIoError::BlockTooLarge(n) => {
                write!(f, "block payload length {n} exceeds the sanity cap")
            }
            TraceIoError::BlockOverrun => {
                write!(f, "record decoding ran past the block's payload")
            }
            TraceIoError::BlockTrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the block's declared records")
            }
            TraceIoError::BadTerminator(n) => {
                write!(f, "terminator frame payload length {n}, expected 8")
            }
            TraceIoError::CountMismatch { declared, actual } => {
                write!(f, "declared record count {declared}, found {actual}")
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serializes `trace` to `writer` in format **v1** (fixed-width
/// records).
///
/// Kept for compatibility with existing fixtures and tools; new files
/// should prefer [`crate::write_trace_v2`], which is a fraction of the
/// size and reads faster. A `&mut` reference can be passed as the
/// writer.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the underlying writer fails.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    let name = trace.name().as_bytes();
    writer.write_all(&(name.len() as u32).to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    for r in trace.iter() {
        writer.write_all(&r.pc.to_le_bytes())?;
        writer.write_all(&r.target.to_le_bytes())?;
        writer.write_all(&[r.kind.code(), u8::from(r.taken)])?;
        writer.write_all(&r.leading_instructions.to_le_bytes())?;
    }
    // Flush here rather than relying on a buffered writer's Drop, which
    // swallows I/O errors — a full disk must fail the write, not
    // silently truncate the file. (v2 does the same in finish().)
    writer.flush()?;
    Ok(())
}

/// Deserializes a trace previously written by [`write_trace`],
/// materializing every record in memory.
///
/// A `&mut` reference can be passed as the reader. For simulation over
/// large files, prefer [`TraceReader`], which yields records one at a
/// time in O(1) memory; this function is a thin collect wrapper over it.
///
/// # Errors
///
/// Returns a [`TraceIoError`] if the stream is truncated, corrupt, or uses
/// an unsupported version.
pub fn read_trace<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    let mut stream = TraceReader::new(reader)?;
    let mut trace = Trace::with_capacity(stream.name().to_owned(), stream.remaining().min(1 << 24));
    while let Some(record) = stream.try_next()? {
        trace.push(record);
    }
    Ok(trace)
}

/// Streaming reader over a serialized trace: parses the header eagerly,
/// dispatches on the header's format version (v1 fixed-width or v2
/// block-framed — every v1 file keeps working), then yields records one
/// at a time, so a multi-gigabyte trace file simulates in O(1) memory.
///
/// `TraceReader` implements [`BranchStream`] and can therefore be fed
/// straight to the simulator. Because [`BranchStream::next_record`]
/// cannot surface I/O failures, a mid-stream error *ends* the stream
/// and is stashed where [`TraceReader::error`] (or the fallible
/// [`TraceReader::try_next`]) can observe it; callers that must
/// distinguish truncation from clean end-of-trace check `error()` after
/// draining.
///
/// ```
/// use bp_trace::{write_trace, BranchRecord, BranchStream, Trace, TraceReader};
///
/// let mut trace = Trace::new("on-disk");
/// trace.push(BranchRecord::conditional(0x40, 0x20, true));
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &trace).unwrap();
///
/// let mut reader = TraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(reader.name(), "on-disk");
/// assert_eq!(reader.version(), 1);
/// assert_eq!(reader.remaining(), 1);
/// let first = reader.next_record().unwrap();
/// assert_eq!(first.pc, 0x40);
/// assert!(reader.next_record().is_none());
/// assert!(reader.error().is_none());
/// ```
#[derive(Debug)]
pub struct TraceReader<R> {
    name: String,
    version: u32,
    error: Option<TraceIoError>,
    inner: Inner<R>,
}

#[derive(Debug)]
enum Inner<R> {
    V1 { reader: R, remaining: u64 },
    V2(V2Body<R>),
}

impl<R: Read> TraceReader<R> {
    /// Opens a serialized trace, parsing and validating the header.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] if the header is truncated, carries the
    /// wrong magic, an unsupported version, or a non-UTF-8 name.
    pub fn new(mut reader: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceIoError::BadMagic(magic));
        }
        let version = read_u32(&mut reader)?;
        if version != VERSION && version != crate::io_v2::VERSION_2 {
            return Err(TraceIoError::UnsupportedVersion(version));
        }
        let name_len = read_u32(&mut reader)?;
        if name_len > MAX_NAME_LEN {
            return Err(TraceIoError::NameTooLong(name_len));
        }
        let name_len = name_len as usize;
        let mut name_bytes = vec![0u8; name_len];
        reader.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes).map_err(|_| TraceIoError::BadName)?;
        let count = read_u64(&mut reader)?;
        let inner = if version == VERSION {
            Inner::V1 {
                reader,
                remaining: count,
            }
        } else {
            Inner::V2(V2Body::new(reader, count))
        };
        Ok(TraceReader {
            name,
            version,
            error: None,
            inner,
        })
    }

    /// The header's format version (1 or 2).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Records still to be read. Exact for v1 files and v2 files whose
    /// writer declared a count up front; for streamed v2 files (unknown
    /// count) this is the records left in the current block — a lower
    /// bound.
    pub fn remaining(&self) -> usize {
        match &self.inner {
            Inner::V1 { remaining, .. } => *remaining as usize,
            Inner::V2(body) => body.remaining(),
        }
    }

    /// The mid-stream error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    /// Reads the next record, surfacing I/O and format errors.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] if the stream is truncated or a record
    /// is corrupt; the stream yields nothing further afterwards.
    pub fn try_next(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        match &mut self.inner {
            Inner::V1 { reader, remaining } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                match read_record_v1(reader) {
                    Ok(record) => {
                        *remaining -= 1;
                        Ok(Some(record))
                    }
                    Err(e) => {
                        *remaining = 0;
                        Err(e)
                    }
                }
            }
            Inner::V2(body) => body.try_next(),
        }
    }
}

fn read_record_v1<R: Read>(reader: &mut R) -> Result<BranchRecord, TraceIoError> {
    let pc = read_u64(reader)?;
    let target = read_u64(reader)?;
    let mut flags = [0u8; 2];
    reader.read_exact(&mut flags)?;
    let kind = BranchKind::from_code(flags[0]).ok_or(TraceIoError::BadKind(flags[0]))?;
    let taken = match flags[1] {
        0 => false,
        1 => true,
        other => return Err(TraceIoError::BadTakenFlag(other)),
    };
    let leading = read_u32(reader)?;
    Ok(BranchRecord {
        pc,
        target,
        kind,
        taken,
        leading_instructions: leading,
    })
}

impl<R: Read> BranchStream for TraceReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_record(&mut self) -> Option<BranchRecord> {
        // Cursor-hit fast path for v2 bodies: skips the Result plumbing
        // on the per-record hot loop the simulator drives.
        if let Inner::V2(body) = &mut self.inner {
            if let Some(record) = body.next_cached() {
                return Some(record);
            }
        }
        match self.try_next() {
            Ok(record) => record,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    /// Copies whole slices out of the decoded v2 block instead of
    /// handing records over one at a time; a mid-stream error ends the
    /// block and is stashed for [`TraceReader::error`], exactly as in
    /// `next_record`. v1 records are parsed one by one either way.
    fn fill_block(&mut self, block: &mut Vec<BranchRecord>, max: usize) {
        let Inner::V2(body) = &mut self.inner else {
            return fill_by_records(self, block, max);
        };
        if let Err(e) = body.fill_block(block, max) {
            self.error = Some(e);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Declared counts are claims, not guarantees (the file may be
        // truncated), so they only bound from above; streamed v2 files
        // with no declared count are unbounded.
        match &self.inner {
            Inner::V1 { remaining, .. } => (0, Some(*remaining as usize)),
            Inner::V2(body) => (0, body.declared().map(|d| d as usize)),
        }
    }
}

fn read_u32<R: Read>(reader: &mut R) -> Result<u32, TraceIoError> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(reader: &mut R) -> Result<u64, TraceIoError> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("io-sample");
        t.push(
            BranchRecord::conditional(0xdead_beef, 0xdead_be00, true).with_leading_instructions(7),
        );
        t.push(BranchRecord::ret(0x1000, 0x2000));
        t.push(BranchRecord::indirect(0x44, 0x9988).with_leading_instructions(2));
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.name(), "io-sample");
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("");
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"XXXX\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic(_)));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new("x")).unwrap();
        buf[4] = 99;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::UnsupportedVersion(99)));
    }

    #[test]
    fn corrupt_kind_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        // Kind byte of the first record sits right after header + count.
        let kind_offset = 4 + 4 + 4 + "io-sample".len() + 8 + 16;
        buf[kind_offset] = 200;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadKind(200)));
    }

    #[test]
    fn corrupt_taken_flag_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        let taken_offset = 4 + 4 + 4 + "io-sample".len() + 8 + 17;
        buf[taken_offset] = 7;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadTakenFlag(7)));
    }

    #[test]
    fn truncated_stream_reports_io_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn absurd_name_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BPTR");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::NameTooLong(u32::MAX)));
        assert!(format!("{err}").contains("cap"));
    }

    #[test]
    fn streaming_reader_matches_materializing_reader() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.remaining(), t.len());
        let streamed = reader.collect_trace();
        assert_eq!(streamed, t);
    }

    #[test]
    fn streaming_reader_stashes_truncation_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut read = 0;
        while reader.next_record().is_some() {
            read += 1;
        }
        assert_eq!(read, 2, "last record is cut off");
        assert!(matches!(reader.error(), Some(TraceIoError::Io(_))));
        // try_next after the failure reports a clean end.
        assert!(matches!(reader.try_next(), Ok(None)));
    }

    #[test]
    fn streaming_reader_size_hint_is_upper_bound_only() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(BranchStream::size_hint(&reader), (0, Some(3)));
    }
}
