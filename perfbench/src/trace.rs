//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public API: name (`layer.stage`), start, end, parent span and
//! op id. Nothing is written until the run ends. A disabled tracer runs
//! the same closures and records nothing, so untraced runs pay one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and sample store of one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            samples: BTreeMap::new(),
        }
    }

    /// A recorder that shares this one's epoch (for another thread).
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.epoch)
    }

    /// A recorder that records nothing, for the untraced loops of a
    /// traced run.
    pub fn fork_disabled(&self) -> Self {
        Self::new(false, self.epoch)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the root span of a new op.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span that is a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Records a count or derived value measured at a layer boundary.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Appends another thread's recorder; its op ids and parents are
    /// renumbered after this one's.
    pub fn absorb(&mut self, other: Tracer) {
        let (base_span, base_op) = (self.spans.len(), self.op);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base_span),
            op: s.op + base_op,
            ..s
        }));
        self.op += other.op;
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds of each span's direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Per op: `(op id, root name, duration ns, unattributed ns)`, where
    /// unattributed is the root's time not covered by any child span.
    pub fn op_remainders(&self) -> Vec<(u64, &'static str, u64, u64)> {
        let child = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| {
                (
                    s.op,
                    s.name,
                    s.dur_ns(),
                    s.dur_ns().saturating_sub(child[i]),
                )
            })
            .collect()
    }

    /// Self time (span minus its children) summed per layer, where the
    /// layer is the span name up to the first `.`.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let child = self.child_ns();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += s.dur_ns().saturating_sub(child[i]);
        }
        out
    }

    /// Every span, per-op remainder and per-layer self time as one JSON
    /// document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("],\"ops\":[");
        for (i, (op, name, dur, rest)) in self.op_remainders().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"op\":{op},\"name\":\"{name}\",\"ns\":{dur},\"unattributed_ns\":{rest}}}"
            );
        }
        out.push_str("],\"layer_self_ns\":{");
        for (i, (layer, ns)) in self.layer_self_ns().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{layer}\":{ns}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_report_remainders() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.op("op.x", |tr| {
            tr.span("a.one", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b.two", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let ops = tr.op_remainders();
        assert_eq!(ops.len(), 1);
        let (_, name, dur, rest) = ops[0];
        assert_eq!(name, "op.x");
        assert!(rest < dur && dur >= 4_000_000);
        let layers = tr.layer_self_ns();
        assert!(layers["a"] >= 2_000_000 && layers["b"] >= 2_000_000);
        assert_eq!(layers["op"], rest);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let mut tr = Tracer::new(false, Instant::now());
        let v = tr.op("op.x", |tr| tr.span("a.one", |_| 7));
        tr.sample("a.count", 1.0);
        assert_eq!(v, 7);
        assert_eq!(tr.span_count(), 0);
        assert!(tr.samples("a.count").is_empty());
    }

    #[test]
    fn absorb_renumbers_parents_and_ops() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.op("op.x", |tr| tr.span("a.one", |_| ()));
        let mut b = a.fork();
        b.op("op.y", |tr| tr.span("b.two", |_| ()));
        a.absorb(b);
        assert_eq!(a.span_count(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[3].op, 2);
    }
}
