//! Benchmark-side spans for the traced leg.
//!
//! The traced leg wraps each public call into a layer in a span (name,
//! start, end, parent) and tags the spans of one step, request batch or
//! segment with a shared unit id. Spans stay in memory and are written
//! out as JSONL when the run ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.
//! With tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Rec {
    name: &'static str,
    parent: Option<usize>,
    unit: u64,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder; inert when constructed with `on = false`.
pub struct Tracer {
    on: bool,
    t0: Instant,
    recs: Vec<Rec>,
    stack: Vec<usize>,
}

/// Handle to an open span (`None` when tracing is off).
#[must_use = "close the span with Tracer::close"]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str, unit: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.recs.len();
        let start_ns = self.now_ns();
        self.recs.push(Rec {
            name,
            parent: self.stack.last().copied(),
            unit,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `span` (spans close innermost first).
    pub fn close(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            self.recs[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, unit);
        let out = f();
        self.close(s);
        out
    }

    /// Self time in nanoseconds of every span named `name`, summed per
    /// unit id, in unit order.
    pub fn self_ns_per_unit(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut per_unit: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, r) in self.recs.iter().enumerate() {
            if r.name == name {
                let own = (r.end_ns - r.start_ns).saturating_sub(child_ns[i]);
                *per_unit.entry(r.unit).or_default() += own as f64;
            }
        }
        per_unit.into_values().collect()
    }

    /// Whole duration in nanoseconds of every span named `name`.
    pub fn total_ns(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"unit\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.unit, r.name, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", 1);
        let inner = t.open("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.close(inner);
        t.close(outer);
        let outer_self = t.self_ns_per_unit("outer")[0];
        let inner_self = t.self_ns_per_unit("inner")[0];
        assert!(inner_self >= 5e6);
        assert!(outer_self < inner_self);
        assert_eq!(t.total_ns("outer").len(), 1);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x", 0);
        t.close(s);
        assert!(t.self_ns_per_unit("x").is_empty());
    }
}
