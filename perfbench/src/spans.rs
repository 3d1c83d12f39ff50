//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around every call it makes into a layer's
//! public API. Spans nest: each records the span that was open when it
//! started, so a span's *self time* is its duration minus the durations of
//! its direct children (children never overlap, being strictly nested).
//! Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Receives span boundaries. The untraced path passes [`NoSpans`], whose
/// calls compile to nothing.
pub trait Spans {
    /// Opens a span named `name` inside the innermost open span.
    fn enter(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn exit(&mut self);
}

/// The disabled recorder of the untraced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Folded {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// The enabled recorder: spans kept in a vector, written out at the end.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn self_times(&self) -> Vec<u64> {
        assert!(self.open.is_empty(), "self times need every span closed");
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent as usize] -= span.duration_ns();
            }
        }
        self_ns
    }

    /// Totals per span name.
    pub fn fold(&self) -> BTreeMap<&'static str, Folded> {
        let self_ns = self.self_times();
        let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += own;
        }
        out
    }

    /// The spans as tab-separated lines: index, parent (`-` for a root),
    /// name, start ns, end ns, self ns.
    pub fn to_tsv(&self) -> String {
        let self_ns = self.self_times();
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{own}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

impl Spans for Recorder {
    fn enter(&mut self, name: &'static str) {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("every exit matches an enter");
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new();
        rec.enter("root");
        rec.enter("child");
        rec.enter("grandchild");
        rec.exit();
        rec.exit();
        rec.exit();
        let spans = rec.spans().to_vec();
        let own = rec.self_times();
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns() - spans[2].duration_ns());
        assert_eq!(own[2], spans[2].duration_ns());
        let folded = rec.fold();
        assert_eq!(folded["child"].count, 1);
        assert_eq!(rec.to_tsv().lines().count(), 4);
    }
}
