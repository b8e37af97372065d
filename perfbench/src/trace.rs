//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The span buffer is allocated once, before the traced phase starts, so
//! recording a span never allocates. Spans past the capacity are counted
//! as dropped instead of growing the buffer. The spans are written out
//! when the run ends and the per-layer metrics are derived from them.

use std::io::Write;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `stream.fill`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to (a query, or a batch when serving).
    pub query: u32,
    /// Work the call did, e.g. entries streamed (0 when not counted).
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A fixed-capacity span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Record a finished span; returns its index (or [`ROOT`] if the
    /// buffer is full and the span was dropped).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        query: u32,
        items: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            query,
            items,
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `f` as a span named `name`; returns its output and span index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        query: u32,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent, query, items);
        (out, id)
    }

    /// Set the work count of a recorded span (ignored for dropped spans).
    pub fn set_items(&mut self, id: u32, items: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.items = items;
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Σ duration / Σ items over the spans named `name` (0 if none).
    pub fn ns_per_item(&self, name: &str) -> f64 {
        let (ns, items) = self
            .named(name)
            .fold((0u64, 0u64), |(ns, it), s| (ns + s.dur_ns(), it + s.items));
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64
        }
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durs_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Σ duration in seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e9
    }

    /// Write every span as one tab-separated line:
    /// `id parent query name start_ns end_ns items`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tquery\tname\tstart_ns\tend_ns\titems")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.query, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::with_capacity(2);
        let now = Instant::now();
        assert_eq!(t.record("a", now, now, ROOT, 0, 1), 0);
        assert_eq!(t.record("b", now, now, 0, 0, 1), 1);
        assert_eq!(t.record("c", now, now, 0, 0, 1), ROOT);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn ns_per_item_divides_total_time_by_total_work() {
        let mut t = Tracer::with_capacity(4);
        let s = Instant::now();
        t.record("x", s, s + std::time::Duration::from_nanos(300), ROOT, 0, 3);
        t.record("x", s, s + std::time::Duration::from_nanos(100), ROOT, 1, 1);
        assert_eq!(t.ns_per_item("x"), 100.0);
        assert_eq!(t.ns_per_item("missing"), 0.0);
    }
}
