//! Trace format v2: block-framed, delta-encoded records.
//!
//! Format v1 (see `io.rs`) spends a fixed 22 bytes per record and
//! is written and parsed field-by-field — five small `read_exact` calls
//! per record. Version 2 keeps the same header, then frames records
//! into *blocks* that are written and read with one large I/O each:
//!
//! ```text
//! magic  "BPTR"            4 bytes
//! version u32              2
//! name_len u32, name bytes
//! record_count u64         u64::MAX when unknown (streamed writes)
//! blocks:
//!   count u32              records in this block (> 0)
//!   payload_len u32        payload bytes (> 0)
//!   payload                delta-encoded records
//! terminator:
//!   count u32 = 0
//!   payload_len u32 = 8
//!   payload                total record count u64 (authoritative)
//! ```
//!
//! Within a block each record is:
//!
//! ```text
//! flags   u8               kind code in bits 0..2, taken in bit 3,
//!                          bits 4..7 reserved (must be zero)
//! pc      varint           zigzag(pc - previous record's pc)
//! target  varint           zigzag(target - pc)
//! leading varint           leading_instructions
//! ```
//!
//! Varints are LEB128. The PC delta chain resets at every block
//! boundary (the first record of a block encodes its delta from 0), so
//! blocks are independently decodable — the property future sharding /
//! parallel-decode work builds on.
//!
//! The terminator block makes truncation detectable even for streamed
//! writes whose header count is unknown: a file that ends without the
//! terminator is reported as an I/O error, and a terminator whose count
//! disagrees with the records actually decoded is a
//! [`TraceIoError::CountMismatch`] — never a silent short read.

use crate::io::TraceIoError;
use crate::record::{BranchKind, BranchRecord};
use crate::trace::Trace;
use std::io::{Read, Write};

/// Version tag written by [`write_trace_v2`] and [`BlockWriter`].
pub(crate) const VERSION_2: u32 = 2;

/// Header count sentinel for "record count unknown at write time".
pub(crate) const UNKNOWN_COUNT: u64 = u64::MAX;

/// Records per block before the writer flushes: large enough to
/// amortize frame headers and per-block syscalls to noise, small
/// enough that a block's decoded form (~24 bytes/record) stays
/// cache-resident between the decode pass and the consumer.
const BLOCK_RECORDS: u32 = 4096;

/// Largest encoded record: the flags byte, two 10-byte varints (64-bit
/// deltas) and a 5-byte varint (32-bit leading count).
const MAX_RECORD_BYTES: usize = 26;

/// Sanity cap on a block's payload length: a corrupt frame must hit the
/// error path, not a multi-gigabyte allocation. Writers flushing at
/// [`BLOCK_RECORDS`] stay far below this even at [`MAX_RECORD_BYTES`]
/// per record.
const MAX_BLOCK_BYTES: u32 = 1 << 24;

/// Reserved flag bits that must be zero in every record's flags byte.
const FLAG_RESERVED: u8 = 0xF0;
/// Taken bit in the flags byte.
const FLAG_TAKEN: u8 = 0x08;
/// Kind code mask in the flags byte.
const FLAG_KIND: u8 = 0x07;

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Precomputed layout of a record whose three varints are all 1–2
/// bytes: bit shifts (`s*`) of each varint's first byte within the
/// 8-byte window, second-byte masks (`m*`: `0x7F` for 2-byte varints,
/// `0` for 1-byte ones), and the record's total byte length. `len == 0`
/// marks layouts that need the careful path (a varint continuing past
/// two bytes).
#[derive(Clone, Copy)]
struct FastLayout {
    s1: u8,
    m1: u8,
    s2: u8,
    m2: u8,
    s3: u8,
    m3: u8,
    len: u8,
}

/// Layout table indexed by the continuation bits of window bytes 1..=6.
///
/// Varint *lengths* are data-dependent, so decoding them sequentially
/// chains a load → test → advance dependency through every field of
/// every record. Gathering all continuation bits at once and looking
/// the whole record layout up from one hot cache region leaves the
/// three value extractions mutually independent. With it,
/// `decode_block` runs at 11–13 ns per record (release build, one core
/// of a 2-core Intel Xeon VM, the ignored `decode_cost_breakdown`
/// probe below over 1M records).
const FAST_LAYOUTS: [FastLayout; 64] = build_fast_layouts();

const fn build_fast_layouts() -> [FastLayout; 64] {
    let empty = FastLayout {
        s1: 0,
        m1: 0,
        s2: 0,
        m2: 0,
        s3: 0,
        m3: 0,
        len: 0,
    };
    let mut table = [empty; 64];
    let mut idx = 0usize;
    while idx < 64 {
        // idx bit (j - 1) is the continuation bit of window byte j.
        let mut off = 1usize; // byte offset of the next varint
        let mut s = [0u8; 3];
        let mut m = [0u8; 3];
        let mut ok = true;
        let mut k = 0usize;
        while k < 3 {
            s[k] = (off * 8) as u8;
            if (idx >> (off - 1)) & 1 == 1 {
                if (idx >> off) & 1 == 1 {
                    // Continues past two bytes: careful path.
                    ok = false;
                    break;
                }
                m[k] = 0x7F;
                off += 2;
            } else {
                m[k] = 0;
                off += 1;
            }
            k += 1;
        }
        if ok {
            table[idx] = FastLayout {
                s1: s[0],
                m1: m[0],
                s2: s[1],
                m2: m[1],
                s3: s[2],
                m3: m[2],
                len: off as u8,
            };
        }
        idx += 1;
    }
    table
}

/// Careful per-byte LEB128 decoder, used at buffer ends and for
/// ≥3-byte varints: decodes one varint from `buf` at `*pos`, advancing
/// `*pos` past it.
///
/// # Errors
///
/// [`TraceIoError::BlockOverrun`] if the varint runs past the end of
/// the buffer, [`TraceIoError::BadVarint`] if it is longer than a u64.
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(TraceIoError::BlockOverrun)?;
        *pos += 1;
        // The 10th byte of a u64 varint may only carry the top bit
        // (shift 63) and no continuation.
        if shift == 63 && byte > 1 {
            return Err(TraceIoError::BadVarint);
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceIoError::BadVarint);
        }
    }
}

fn encode_record(payload: &mut Vec<u8>, record: &BranchRecord, prev_pc: u64) {
    let flags = record.kind.code() | if record.taken { FLAG_TAKEN } else { 0 };
    payload.push(flags);
    push_varint(
        payload,
        zigzag_encode(record.pc.wrapping_sub(prev_pc) as i64),
    );
    push_varint(
        payload,
        zigzag_encode(record.target.wrapping_sub(record.pc) as i64),
    );
    push_varint(payload, u64::from(record.leading_instructions));
}

/// Branch kind by code with invalid codes (5..=7) mapped arbitrarily;
/// validity is checked separately (deferred to the block accumulator on
/// the fast path), and a masked index into a power-of-two table needs
/// no bounds check or branch.
const KIND_BY_CODE: [BranchKind; 8] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
    BranchKind::Indirect,
    BranchKind::Conditional,
    BranchKind::Conditional,
    BranchKind::Conditional,
];

/// Decodes `count` records of a block payload into `out` (pre-sized by
/// the caller to exactly `count` slots).
///
/// The fast path per record is kept free of unpredictable branches and
/// off-chain loads: the layout index is gathered with a shift/or tree,
/// the layout table supplies shifts and masks for three mutually
/// independent field extractions, and flags validation is *deferred* —
/// an invalid kind code or reserved bit sets a sticky flag that
/// triggers a careful rescan for the precise typed error after the
/// loop, so the hot loop never branches on record contents.
fn decode_block(payload: &[u8], out: &mut [BranchRecord]) -> Result<(), TraceIoError> {
    let mut pos = 0usize;
    // The delta chain resets per block so blocks decode independently.
    let mut prev_pc = 0u64;
    let mut suspect = false;
    for slot in out.iter_mut() {
        // Fast path: a record whose three varints are all 1–2 bytes
        // fits, with its flags byte, in one 8-byte window (1 + 3×2 = 7)
        // — and realistic delta streams are almost entirely such
        // records. Block tails and longer varints take the careful
        // path.
        if let Some(win) = payload.get(pos..pos + 8) {
            let w = u64::from_le_bytes(win.try_into().expect("8 bytes"));
            // Continuation bits of window bytes 1..=6 → layout bits
            // 0..=5.
            let idx = (((w >> 15) & 0x01)
                | ((w >> 22) & 0x02)
                | ((w >> 29) & 0x04)
                | ((w >> 36) & 0x08)
                | ((w >> 43) & 0x10)
                | ((w >> 50) & 0x20)) as usize;
            let layout = FAST_LAYOUTS[idx & 0x3F];
            if layout.len != 0 {
                let flags = (w & 0xFF) as u8;
                suspect |= (flags & FLAG_RESERVED != 0) | (flags & FLAG_KIND >= 5);
                let kind = KIND_BY_CODE[(flags & FLAG_KIND) as usize];
                let d_pc = ((w >> layout.s1) & 0x7F)
                    | (((w >> (layout.s1 + 8)) & u64::from(layout.m1)) << 7);
                let d_target = ((w >> layout.s2) & 0x7F)
                    | (((w >> (layout.s2 + 8)) & u64::from(layout.m2)) << 7);
                let leading = ((w >> layout.s3) & 0x7F)
                    | (((w >> (layout.s3 + 8)) & u64::from(layout.m3)) << 7);
                pos += layout.len as usize;
                let pc = prev_pc.wrapping_add(zigzag_decode(d_pc) as u64);
                prev_pc = pc;
                *slot = BranchRecord {
                    pc,
                    target: pc.wrapping_add(zigzag_decode(d_target) as u64),
                    kind,
                    taken: flags & FLAG_TAKEN != 0,
                    // A 2-byte varint is at most 0x3FFF: always a valid
                    // u32.
                    leading_instructions: leading as u32,
                };
                continue;
            }
        }
        let record = decode_record_careful(payload, &mut pos, prev_pc)?;
        prev_pc = record.pc;
        *slot = record;
    }
    if suspect {
        return Err(rescan_for_error(payload, out.len()));
    }
    if pos < payload.len() {
        return Err(TraceIoError::BlockTrailingBytes(payload.len() - pos));
    }
    debug_assert_eq!(pos, payload.len(), "window decode cannot overrun");
    Ok(())
}

/// The fast loop flagged an invalid flags byte somewhere in the block;
/// replay it carefully to produce the precise typed error.
#[cold]
fn rescan_for_error(payload: &[u8], count: usize) -> TraceIoError {
    let mut pos = 0usize;
    let mut prev_pc = 0u64;
    for _ in 0..count {
        match decode_record_careful(payload, &mut pos, prev_pc) {
            Ok(record) => prev_pc = record.pc,
            Err(e) => return e,
        }
    }
    // Unreachable in practice: the sticky flag only fires on a byte the
    // careful decoder also rejects.
    TraceIoError::BlockOverrun
}

fn decode_record_careful(
    payload: &[u8],
    pos: &mut usize,
    prev_pc: u64,
) -> Result<BranchRecord, TraceIoError> {
    let flags = *payload.get(*pos).ok_or(TraceIoError::BlockOverrun)?;
    *pos += 1;
    if flags & FLAG_RESERVED != 0 {
        return Err(TraceIoError::BadFlags(flags));
    }
    let kind =
        BranchKind::from_code(flags & FLAG_KIND).ok_or(TraceIoError::BadKind(flags & FLAG_KIND))?;
    let pc = prev_pc.wrapping_add(zigzag_decode(read_varint(payload, pos)?) as u64);
    let target = pc.wrapping_add(zigzag_decode(read_varint(payload, pos)?) as u64);
    let leading = read_varint(payload, pos)?;
    let leading = u32::try_from(leading).map_err(|_| TraceIoError::BadVarint)?;
    Ok(BranchRecord {
        pc,
        target,
        kind,
        taken: flags & FLAG_TAKEN != 0,
        leading_instructions: leading,
    })
}

pub(crate) fn write_header<W: Write>(
    writer: &mut W,
    name: &str,
    count: u64,
) -> Result<(), TraceIoError> {
    writer.write_all(crate::io::MAGIC)?;
    writer.write_all(&VERSION_2.to_le_bytes())?;
    let name = name.as_bytes();
    writer.write_all(&(name.len() as u32).to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&count.to_le_bytes())?;
    Ok(())
}

/// Streaming block writer for trace format v2.
///
/// Records are delta-encoded into an in-memory block and flushed to the
/// underlying writer with **one `write_all` per block** (4096 records),
/// instead of v1's five small writes per record. The writer is
/// streaming: it never holds more than one block, so a trace of any
/// length serializes in O(1) memory — which is what lets
/// `bp_workloads` cache generated benchmarks to disk without
/// materializing them.
///
/// [`BlockWriter::finish`] **must** be called: it flushes the final
/// partial block and writes the terminator frame carrying the
/// authoritative record count. A file abandoned mid-write has no
/// terminator and is reported as truncated by the reader.
///
/// ```
/// use bp_trace::{read_trace, BlockWriter, BranchRecord};
///
/// let mut buf = Vec::new();
/// let mut w = BlockWriter::new(&mut buf, "streamed").unwrap();
/// w.push(&BranchRecord::conditional(0x400, 0x3f0, true)).unwrap();
/// w.push(&BranchRecord::conditional(0x404, 0x3f0, false)).unwrap();
/// assert_eq!(w.finish().unwrap(), 2);
///
/// let back = read_trace(buf.as_slice()).unwrap();
/// assert_eq!(back.len(), 2);
/// assert_eq!(back.name(), "streamed");
/// ```
#[derive(Debug)]
pub struct BlockWriter<W: Write> {
    writer: W,
    /// Frame under construction: 8 header bytes then the payload.
    frame: Vec<u8>,
    block_records: u32,
    prev_pc: u64,
    total: u64,
    declared: Option<u64>,
}

impl<W: Write> BlockWriter<W> {
    /// Opens a v2 stream with an *unknown* record count (the header
    /// carries a sentinel; readers learn the true count from the
    /// terminator frame).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if writing the header fails.
    pub fn new(writer: W, name: &str) -> Result<Self, TraceIoError> {
        Self::open(writer, name, None)
    }

    /// Opens a v2 stream whose record count is known up front, letting
    /// readers report exact [`remaining()`](crate::TraceReader::remaining)
    /// counts. [`BlockWriter::finish`] fails with
    /// [`TraceIoError::CountMismatch`] if a different number of records
    /// was pushed.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if writing the header fails.
    pub fn with_declared_count(writer: W, name: &str, count: u64) -> Result<Self, TraceIoError> {
        Self::open(writer, name, Some(count))
    }

    fn open(mut writer: W, name: &str, declared: Option<u64>) -> Result<Self, TraceIoError> {
        write_header(&mut writer, name, declared.unwrap_or(UNKNOWN_COUNT))?;
        let mut frame = Vec::with_capacity(BLOCK_RECORDS as usize * 8);
        frame.resize(8, 0);
        Ok(BlockWriter {
            writer,
            frame,
            block_records: 0,
            prev_pc: 0,
            total: 0,
            declared,
        })
    }

    /// Appends one record, flushing a full block to the writer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if a block flush fails.
    pub fn push(&mut self, record: &BranchRecord) -> Result<(), TraceIoError> {
        encode_record(&mut self.frame, record, self.prev_pc);
        self.prev_pc = record.pc;
        self.block_records += 1;
        self.total += 1;
        if self.block_records == BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceIoError> {
        if self.block_records == 0 {
            return Ok(());
        }
        let payload_len = (self.frame.len() - 8) as u32;
        self.frame[0..4].copy_from_slice(&self.block_records.to_le_bytes());
        self.frame[4..8].copy_from_slice(&payload_len.to_le_bytes());
        self.writer.write_all(&self.frame)?;
        self.frame.truncate(0);
        self.frame.resize(8, 0);
        self.block_records = 0;
        // Delta chain resets per block so blocks decode independently.
        self.prev_pc = 0;
        Ok(())
    }

    /// Flushes the final block, writes the terminator frame, and
    /// flushes the underlying writer. Returns the total record count.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on write failure, or
    /// [`TraceIoError::CountMismatch`] if a count declared at open time
    /// does not match the records actually pushed.
    pub fn finish(mut self) -> Result<u64, TraceIoError> {
        self.flush_block()?;
        if let Some(declared) = self.declared {
            if declared != self.total {
                return Err(TraceIoError::CountMismatch {
                    declared,
                    actual: self.total,
                });
            }
        }
        let mut terminator = [0u8; 16];
        terminator[4..8].copy_from_slice(&8u32.to_le_bytes());
        terminator[8..16].copy_from_slice(&self.total.to_le_bytes());
        self.writer.write_all(&terminator)?;
        self.writer.flush()?;
        Ok(self.total)
    }
}

/// Serializes `trace` in format v2 (block-framed, delta-encoded).
///
/// The v2 encoding of realistic traces is a fraction of the v1 size
/// (see `BENCH_trace_io.json`); [`crate::read_trace`] and
/// [`crate::TraceReader`] read both versions transparently.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the underlying writer fails.
pub fn write_trace_v2<W: Write>(writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    let mut w = BlockWriter::with_declared_count(writer, trace.name(), trace.len() as u64)?;
    for record in trace.iter() {
        w.push(record)?;
    }
    w.finish()?;
    Ok(())
}

/// Reader-side state for a v2 body (header already consumed by
/// [`crate::TraceReader`]). Reads one block frame at a time with a
/// single large `read_exact`, batch-decodes the whole payload into a
/// record buffer in one tight loop, then hands records out as a plain
/// cursor — so the per-record hot path in the simulator is an indexed
/// copy, not a decoder state machine.
#[derive(Debug)]
pub(crate) struct V2Body<R> {
    reader: R,
    /// Header-declared record count, if the writer knew it.
    declared: Option<u64>,
    /// Records handed out so far.
    read: u64,
    /// The current block, fully decoded by `load_block`.
    records: Vec<BranchRecord>,
    /// Hand-out cursor into `records`.
    next: usize,
    /// Reused raw-payload scratch buffer.
    payload: Vec<u8>,
    finished: bool,
}

impl<R: Read> V2Body<R> {
    pub(crate) fn new(reader: R, header_count: u64) -> Self {
        V2Body {
            reader,
            declared: (header_count != UNKNOWN_COUNT).then_some(header_count),
            read: 0,
            // Sized for the largest block this crate's writers emit, so
            // a reader of their files allocates only here, not as
            // block sizes vary.
            records: Vec::with_capacity(BLOCK_RECORDS as usize),
            next: 0,
            payload: Vec::with_capacity(BLOCK_RECORDS as usize * MAX_RECORD_BYTES),
            finished: false,
        }
    }

    /// Records the stream still claims to contain: exact when the
    /// header carried a count, otherwise the records left in the
    /// current block (a lower bound).
    pub(crate) fn remaining(&self) -> usize {
        match self.declared {
            _ if self.finished => 0,
            Some(declared) => declared.saturating_sub(self.read) as usize,
            None => self.records.len() - self.next,
        }
    }

    pub(crate) fn declared(&self) -> Option<u64> {
        self.declared.map(|d| d.saturating_sub(self.read))
    }

    /// Cursor-hit fast path: the next record of the current block, with
    /// no `Result` plumbing. `None` means the block is drained — call
    /// [`V2Body::try_next`] to load the next one (or learn why not).
    #[inline]
    pub(crate) fn next_cached(&mut self) -> Option<BranchRecord> {
        let record = self.records.get(self.next).copied()?;
        self.next += 1;
        self.read += 1;
        Some(record)
    }

    #[inline]
    pub(crate) fn try_next(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        loop {
            if let Some(record) = self.next_cached() {
                return Ok(Some(record));
            }
            if !self.refill()? {
                return Ok(None);
            }
        }
    }

    /// Appends up to `max` records to `block`, copying whole slices of
    /// the decoded block and loading the next frame when one runs dry.
    /// Fewer than `max` are appended only at the end of the stream or
    /// on an error; the records appended before an error stay in
    /// `block`.
    pub(crate) fn fill_block(
        &mut self,
        block: &mut Vec<BranchRecord>,
        max: usize,
    ) -> Result<(), TraceIoError> {
        let mut want = max;
        while want > 0 {
            let ready = &self.records[self.next..];
            if ready.is_empty() {
                if !self.refill()? {
                    return Ok(());
                }
                continue;
            }
            let take = ready.len().min(want);
            block.extend_from_slice(&ready[..take]);
            self.next += take;
            self.read += take as u64;
            want -= take;
        }
        Ok(())
    }

    /// Loads the next block once the current one is drained. Returns
    /// `false` at the end of the stream. An error ends the stream: a
    /// failed block may have left partially decoded records behind,
    /// and they are dropped so the stream yields nothing further.
    fn refill(&mut self) -> Result<bool, TraceIoError> {
        if self.finished {
            return Ok(false);
        }
        self.load_block().inspect_err(|_| {
            self.records.clear();
            self.next = 0;
            self.finished = true;
        })
    }

    /// Reads and decodes the next block frame. Returns `false` on the
    /// terminator. Out of line: runs once per 4096 records, and keeping
    /// it out of `try_next` and `fill_block` lets their hot paths
    /// inline.
    #[inline(never)]
    fn load_block(&mut self) -> Result<bool, TraceIoError> {
        let mut header = [0u8; 8];
        self.reader.read_exact(&mut header)?;
        let count = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if count == 0 {
            // Terminator: payload is the authoritative total count.
            if payload_len != 8 {
                return Err(TraceIoError::BadTerminator(payload_len));
            }
            let mut total = [0u8; 8];
            self.reader.read_exact(&mut total)?;
            let total = u64::from_le_bytes(total);
            if total != self.read {
                return Err(TraceIoError::CountMismatch {
                    declared: total,
                    actual: self.read,
                });
            }
            if let Some(declared) = self.declared {
                if declared != self.read {
                    return Err(TraceIoError::CountMismatch {
                        declared,
                        actual: self.read,
                    });
                }
            }
            self.finished = true;
            return Ok(false);
        }
        if payload_len > MAX_BLOCK_BYTES {
            return Err(TraceIoError::BlockTooLarge(payload_len));
        }
        if payload_len == 0 {
            return Err(TraceIoError::BlockOverrun);
        }
        // A record is at least 4 bytes (flags + three 1-byte varints),
        // so a count the payload cannot possibly hold is provably
        // corrupt — reject it *before* sizing the decode buffer, or a
        // lying count field would trigger a multi-gigabyte allocation.
        if u64::from(count) * 4 > u64::from(payload_len) {
            return Err(TraceIoError::BlockOverrun);
        }
        // One large read per block instead of five small reads per
        // record, then one tight batch-decode loop whose output the
        // consumer drains as a plain cursor — the core of the v2
        // throughput win.
        self.payload.resize(payload_len as usize, 0);
        self.reader.read_exact(&mut self.payload)?;
        self.records.clear();
        self.records
            .resize(count as usize, BranchRecord::conditional(0, 0, false));
        decode_block(&self.payload, &mut self.records)?;
        self.next = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_trace;

    fn sample(n: usize) -> Trace {
        let mut t = Trace::new("v2-sample");
        for i in 0..n {
            let pc = 0x40_0000 + (i as u64 % 97) * 4;
            t.push(
                BranchRecord::conditional(pc, pc.wrapping_sub(0x40), i % 3 == 0)
                    .with_leading_instructions((i % 11) as u32),
            );
        }
        t
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX, u64::MAX - 1] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 10 continuation bytes followed by a large final byte encode
        // more than 64 bits.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(TraceIoError::BadVarint)
        ));
        // A varint cut off mid-way is an overrun, not a panic.
        let buf = [0x80u8];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(TraceIoError::BlockOverrun)
        ));
    }

    #[test]
    fn multi_block_trace_round_trips() {
        // More than BLOCK_RECORDS records forces several block frames.
        let t = sample(10_000);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("empty");
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.name(), "empty");
    }

    #[test]
    fn v2_is_much_smaller_than_v1_on_regular_traces() {
        let t = sample(8_192);
        let mut v1 = Vec::new();
        crate::io::write_trace(&mut v1, &t).unwrap();
        let mut v2 = Vec::new();
        write_trace_v2(&mut v2, &t).unwrap();
        assert!(
            v2.len() * 2 <= v1.len(),
            "v2 {} bytes not <= 50% of v1 {} bytes",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn streamed_writer_without_declared_count_round_trips() {
        let t = sample(5_000);
        let mut buf = Vec::new();
        let mut w = BlockWriter::new(&mut buf, t.name()).unwrap();
        for r in t.iter() {
            w.push(r).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 5_000);
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn declared_count_mismatch_is_reported_at_finish() {
        let mut buf = Vec::new();
        let mut w = BlockWriter::with_declared_count(&mut buf, "short", 3).unwrap();
        w.push(&BranchRecord::conditional(0x40, 0x20, true))
            .unwrap();
        let err = w.finish().unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::CountMismatch {
                declared: 3,
                actual: 1
            }
        ));
    }

    #[test]
    fn missing_terminator_reads_as_truncation() {
        let t = sample(100);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 16); // drop the terminator frame
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn truncated_block_payload_reads_as_truncation() {
        let t = sample(100);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &t).unwrap();
        buf.truncate(30); // mid-payload of the first block
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn lying_terminator_count_is_a_count_mismatch() {
        let t = sample(10);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &t).unwrap();
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&99u64.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::CountMismatch {
                declared: 99,
                actual: 10
            }
        ));
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        let t = sample(10);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &t).unwrap();
        // First record's flags byte sits right after header + first
        // block frame header.
        let flags_offset = 4 + 4 + 4 + "v2-sample".len() + 8 + 8;
        buf[flags_offset] |= 0x40;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadFlags(_)));
    }

    #[test]
    fn bad_kind_code_is_rejected() {
        let t = sample(10);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &t).unwrap();
        let flags_offset = 4 + 4 + 4 + "v2-sample".len() + 8 + 8;
        buf[flags_offset] = (buf[flags_offset] & !FLAG_KIND) | 5;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadKind(5)));
    }

    #[test]
    fn lying_record_count_is_rejected_without_allocating() {
        // A block claiming u32::MAX records in a 16-byte payload must
        // hit the error path before the decode buffer is sized.
        let mut buf = Vec::new();
        write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&16u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BlockOverrun));
    }

    #[test]
    fn oversized_block_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        buf.extend_from_slice(&1u32.to_le_bytes()); // one record claimed
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BlockTooLarge(u32::MAX)));
    }

    #[test]
    fn bad_terminator_length_is_rejected() {
        let mut buf = Vec::new();
        write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes()); // must be 8
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadTerminator(4)));
    }

    #[test]
    fn trailing_bytes_in_block_are_rejected() {
        // Hand-build a block claiming 1 record but carrying 2.
        let mut payload = Vec::new();
        let r = BranchRecord::conditional(0x40, 0x20, true);
        encode_record(&mut payload, &r, 0);
        encode_record(&mut payload, &r, r.pc);
        let mut buf = Vec::new();
        write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BlockTrailingBytes(_)));
    }

    #[test]
    fn overrun_block_is_rejected() {
        // A block claiming 2 records but carrying bytes for 1.
        let mut payload = Vec::new();
        encode_record(
            &mut payload,
            &BranchRecord::conditional(0x40, 0x20, true),
            0,
        );
        let mut buf = Vec::new();
        write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BlockOverrun));
    }

    #[test]
    fn extreme_field_values_round_trip() {
        let mut t = Trace::new("extremes");
        t.push(BranchRecord {
            pc: u64::MAX,
            target: 0,
            kind: BranchKind::Indirect,
            taken: false,
            leading_instructions: u32::MAX,
        });
        t.push(BranchRecord::conditional(0, u64::MAX, true));
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn decode_cost_breakdown() {
        // Build a realistic-ish delta stream: small pc deltas, backward
        // targets, small leading counts.
        let mut t = Trace::new("probe");
        let mut pc = 0x40_0000u64;
        for i in 0..1_000_000u64 {
            pc = pc.wrapping_add((i % 37) * 4);
            let target = pc.wrapping_sub(0x80 + (i % 9) * 8);
            t.push(
                BranchRecord::conditional(pc, target, i % 3 == 0)
                    .with_leading_instructions((i % 11) as u32),
            );
        }
        let mut v2 = Vec::new();
        write_trace_v2(&mut v2, &t).unwrap();
        let n = t.len() as f64;

        for _ in 0..3 {
            // Raw body decode over the in-memory payload, no reader
            // dispatch.
            let started = Instant::now();
            let mut body = V2Body::new(&v2[4 + 4 + 4 + 5 + 8..], UNKNOWN_COUNT);
            let mut records = 0u64;
            while body.try_next().unwrap().is_some() {
                records += 1;
            }
            let batch = started.elapsed().as_secs_f64();

            // Pure decode_block over one prepared payload, repeated.
            let mut payload = Vec::new();
            let mut prev = 0u64;
            for r in t.iter().take(4096) {
                encode_record(&mut payload, r, prev);
                prev = r.pc;
            }
            let mut out = vec![BranchRecord::conditional(0, 0, false); 4096];
            let started = Instant::now();
            let iters = 250;
            for _ in 0..iters {
                decode_block(&payload, &mut out).unwrap();
            }
            let pure = started.elapsed().as_secs_f64() / (iters as f64 * 4096.0);
            eprintln!("pure decode_block {:.2} ns/rec", pure * 1e9);

            // Full reader drain.
            let started = Instant::now();
            let mut reader = crate::io::TraceReader::new(v2.as_slice()).unwrap();
            let mut drained = 0u64;
            while reader.try_next().unwrap().is_some() {
                drained += 1;
            }
            let full = started.elapsed().as_secs_f64();

            assert_eq!(records, 1_000_000);
            assert_eq!(drained, 1_000_000);
            eprintln!(
                "batch decode {:.2} ns/rec | full drain {:.2} ns/rec",
                batch * 1e9 / n,
                full * 1e9 / n
            );
        }
    }
}
