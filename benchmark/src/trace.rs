//! In-memory span recorder for the traced run, plus the allocation
//! counter the `nn.allocs_per_step` metric reads.
//!
//! Spans are recorded from the benchmark's own files around each call
//! into a layer — `name, start_ns, end_ns, parent, id` — kept in memory
//! and written to `trace.json` when the replay ends. A layer's *self
//! time* is its spans' duration minus the part their child spans cover.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator with a call counter in front. Counting is one
/// relaxed increment per allocation; nothing else changes.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the ones upheld.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`nn.conv_fwd`, `core.cache.write`, …).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Id of the span that caused this one.
    pub parent: Option<u32>,
}

/// Records spans in memory. When created disabled it records nothing, so
/// the same replay code gives the untraced wall the tracing overhead is
/// measured against.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals over a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus their children's, ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// The recorded spans, in start order (a span's id is its index).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, inclusive time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(children_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        totals
    }

    /// Durations (ns) of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    /// The trace as a JSON document: one `[name, start_ns, end_ns,
    /// parent, id]` row per span (parent `null` for roots).
    pub fn to_json(&self) -> Json {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Arr(vec![
                    Json::from(s.name),
                    Json::from(s.start_ns),
                    Json::from(s.end_ns),
                    s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                    Json::from(id),
                ])
            })
            .collect();
        Json::obj()
            .with(
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "id"]
                        .into_iter()
                        .map(Json::from)
                        .collect(),
                ),
            )
            .with("spans", Json::Arr(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hand_built() -> Tracer {
        // root 0..100 { a 10..40 { b 20..30 }, a 50..70 }
        let mut t = Tracer::new(true);
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
        };
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 50, 70, Some(0)),
        ];
        t
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let totals = hand_built().totals();
        assert_eq!(
            totals["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            totals["a"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(totals["b"].self_ns, 10);
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(all_self, 100, "self times partition the root span");
    }

    #[test]
    fn nesting_follows_begin_and_end() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        t.begin("inner");
        t.end();
        t.end();
        t.begin("sibling");
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations("inner").len(), 1);
        let json = t.to_json().to_line();
        assert!(json.contains("[\"inner\", "));
        assert!(
            json.contains("\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"id\"]")
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x");
        t.begin("y");
        t.end();
        t.end();
        assert!(t.spans().is_empty() && t.totals().is_empty());
    }

    #[test]
    fn the_allocator_counts_calls() {
        let before = allocations();
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        assert!(allocations() > before);
    }
}
