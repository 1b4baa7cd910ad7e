//! Record-by-record trace streaming.
//!
//! [`BranchStream`] is the abstraction the simulator consumes: a named,
//! ordered source of [`BranchRecord`]s that is pulled one record at a
//! time, or a block at a time through [`BranchStream::fill_block`], so
//! producers (workload generators, on-disk trace readers) never have to
//! materialize a whole `Vec<BranchRecord>`. A fully in-memory
//! [`Trace`](crate::Trace) is just one implementation, via
//! [`Trace::stream`](crate::Trace::stream); the streaming reader over
//! serialized trace files is another (`TraceReader` in this crate).

use crate::record::BranchRecord;
use crate::trace::Trace;

/// A named, ordered source of branch records, consumed destructively
/// one record at a time.
///
/// Implementors produce the records of exactly one benchmark run, in
/// program order. Streams are *single-pass*: callers wanting to replay
/// a benchmark construct a fresh stream (all producers in this
/// workspace are deterministic, so a fresh stream replays bit-exactly).
///
/// ```
/// use bp_trace::{BranchRecord, BranchStream, Trace};
///
/// let mut trace = Trace::new("tiny");
/// trace.push(BranchRecord::conditional(0x400, 0x3f0, true));
/// trace.push(BranchRecord::conditional(0x400, 0x3f0, false));
///
/// let mut stream = trace.stream();
/// assert_eq!(stream.name(), "tiny");
/// let mut n = 0;
/// while let Some(record) = stream.next_record() {
///     assert_eq!(record.pc, 0x400);
///     n += 1;
/// }
/// assert_eq!(n, 2);
/// ```
pub trait BranchStream {
    /// The benchmark name this stream belongs to.
    fn name(&self) -> &str;

    /// Produces the next record, or `None` when the stream is
    /// exhausted.
    fn next_record(&mut self) -> Option<BranchRecord>;

    /// Appends up to `max` records to `block`: exactly the records
    /// `max` calls to [`next_record`](Self::next_record) would yield.
    /// Fewer than `max` are appended only when the stream is exhausted
    /// (or, for a fallible source, has ended on an error), so a short
    /// block marks the end of the stream.
    ///
    /// The default pulls record by record. Sources that already hold
    /// records in memory override it to copy whole slices: the
    /// simulator refills its blocks through this method.
    fn fill_block(&mut self, block: &mut Vec<BranchRecord>, max: usize) {
        fill_by_records(self, block, max);
    }

    /// Bounds on the number of records still to come, mirroring
    /// [`Iterator::size_hint`].
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Drains the stream into an in-memory [`Trace`] carrying the
    /// stream's name.
    fn collect_trace(mut self) -> Trace
    where
        Self: Sized,
    {
        let mut trace = Trace::with_capacity(self.name().to_owned(), self.size_hint().0);
        while let Some(record) = self.next_record() {
            trace.push(record);
        }
        trace
    }

    /// Adapts the stream into a plain [`Iterator`] over records.
    fn records(self) -> Records<Self>
    where
        Self: Sized,
    {
        Records { stream: self }
    }
}

/// [`BranchStream::fill_block`] by way of `max` calls to `next_record`:
/// the default, and the fallback of overrides with nothing to copy.
pub(crate) fn fill_by_records<S: BranchStream + ?Sized>(
    stream: &mut S,
    block: &mut Vec<BranchRecord>,
    max: usize,
) {
    for _ in 0..max {
        match stream.next_record() {
            Some(record) => block.push(record),
            None => break,
        }
    }
}

// A stream behind a mutable reference is still a stream (lets callers
// pass `&mut s` without giving the stream away).
impl<S: BranchStream + ?Sized> BranchStream for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn next_record(&mut self) -> Option<BranchRecord> {
        (**self).next_record()
    }

    fn fill_block(&mut self, block: &mut Vec<BranchRecord>, max: usize) {
        (**self).fill_block(block, max);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
}

/// [`Iterator`] adapter over a [`BranchStream`], created by
/// [`BranchStream::records`].
#[derive(Debug)]
pub struct Records<S: BranchStream> {
    stream: S,
}

impl<S: BranchStream> Iterator for Records<S> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        self.stream.next_record()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.stream.size_hint()
    }
}

/// Streaming cursor over an in-memory [`Trace`], created by
/// [`Trace::stream`](crate::Trace::stream).
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    name: &'a str,
    records: std::slice::Iter<'a, BranchRecord>,
}

impl<'a> TraceStream<'a> {
    pub(crate) fn new(name: &'a str, records: &'a [BranchRecord]) -> Self {
        TraceStream {
            name,
            records: records.iter(),
        }
    }
}

impl BranchStream for TraceStream<'_> {
    fn name(&self) -> &str {
        self.name
    }

    #[inline]
    fn next_record(&mut self) -> Option<BranchRecord> {
        self.records.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.records.len();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("s");
        t.push(BranchRecord::conditional(0x10, 0x8, true).with_leading_instructions(3));
        t.push(BranchRecord::call(0x20, 0x400));
        t.push(BranchRecord::conditional(0x30, 0x8, false));
        t
    }

    #[test]
    fn trace_stream_replays_records_in_order() {
        let trace = sample();
        let streamed: Vec<BranchRecord> = trace.stream().records().collect();
        assert_eq!(streamed.as_slice(), trace.records());
    }

    #[test]
    fn collect_trace_round_trips() {
        let trace = sample();
        let back = trace.stream().collect_trace();
        assert_eq!(back, trace);
    }

    #[test]
    fn size_hint_tracks_consumption() {
        let trace = sample();
        let mut stream = trace.stream();
        assert_eq!(BranchStream::size_hint(&stream), (3, Some(3)));
        stream.next_record();
        assert_eq!(BranchStream::size_hint(&stream), (2, Some(2)));
    }

    #[test]
    fn mut_ref_is_a_stream() {
        let trace = sample();
        let mut stream = trace.stream();
        fn first_pc(mut s: impl BranchStream) -> u64 {
            s.next_record().expect("nonempty").pc
        }
        assert_eq!(first_pc(&mut stream), 0x10);
        // The original stream advanced through the reference.
        assert_eq!(stream.next_record().expect("second").pc, 0x20);
    }
}
