//! In-memory spans, recorded by the benchmark around each call into a
//! layer and written out when the traced run ends.
//!
//! A span is `{id, parent, op, name, start_ns, end_ns}`: `parent` is the
//! id of the span that caused it (0 for a root), and all spans of one
//! request share `op`, the request's index in the workload's input vector.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// 1-based id, unique within a [`Tracer`].
    pub id: u32,
    /// Id of the causing span; 0 for a root.
    pub parent: u32,
    /// Request index shared by the spans of one request.
    pub op: u32,
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, nanoseconds on [`now_ns`]'s clock.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// An open span: close it with [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(usize);

impl Open {
    /// The id children name as their parent.
    pub fn id(self) -> u32 {
        self.0 as u32 + 1
    }
}

/// Span recorder. Each client thread owns one; they are concatenated at
/// the end of the run.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Open a span now.
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u32) -> Open {
        let idx = self.spans.len();
        let id = idx as u32 + 1;
        self.spans.push(Span { id, parent, op, name, start_ns: now_ns(), end_ns: 0 });
        Open(idx)
    }

    /// Close a span now.
    pub fn end(&mut self, open: Open) {
        self.spans[open.0].end_ns = now_ns();
    }

    /// Append another tracer's spans, renumbering their ids past ours.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in nanoseconds and count per span name.
    pub fn mean_ns_by_name(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut acc: BTreeMap<&'static str, (u128, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = acc.entry(s.name).or_default();
            e.0 += u128::from(s.end_ns.saturating_sub(s.start_ns));
            e.1 += 1;
        }
        acc.into_iter().map(|(k, (sum, n))| (k, (sum as f64 / n as f64, n))).collect()
    }

    /// Mean *self* time per span name: a span's duration minus the part of
    /// it its direct children cover.
    pub fn mean_self_ns_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
        let mut acc: BTreeMap<&'static str, (u128, u64)> = BTreeMap::new();
        for s in &self.spans {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let e = acc.entry(s.name).or_default();
            e.0 += u128::from(own);
            e.1 += 1;
        }
        acc.into_iter().map(|(k, (sum, n))| (k, sum as f64 / n as f64)).collect()
    }

    /// The spans of the first `max_ops` requests as a JSON array. A full
    /// serve repetition records over a million spans; the file keeps the
    /// head of each so it stays readable, and the caller states both
    /// counts next to it.
    pub fn to_json(&self, max_ops: u32) -> (String, usize) {
        let mut out = String::from("[");
        let mut written = 0;
        for s in self.spans.iter().filter(|s| s.op < max_ops) {
            if written > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )
            .expect("write to String");
            written += 1;
        }
        out.push_str("\n]");
        (out, written)
    }
}

/// Where child spans of the current request go: a tracer plus the
/// request's root span, or nowhere when the run is untraced.
pub struct Scope<'t> {
    tracer: Option<&'t mut Tracer>,
    parent: u32,
    op: u32,
}

impl<'t> Scope<'t> {
    /// A scope that records nothing.
    pub fn off() -> Scope<'static> {
        Scope { tracer: None, parent: 0, op: 0 }
    }

    /// A scope recording children of span `parent` of request `op`.
    pub fn under(tracer: &'t mut Tracer, parent: u32, op: u32) -> Scope<'t> {
        Scope { tracer: Some(tracer), parent, op }
    }

    /// Run `f` as one call into a layer, inside a child span named `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.tracer {
            Some(t) => {
                let open = t.begin(name, self.parent, self.op);
                let r = f();
                t.end(open);
                r
            }
            None => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer {
            spans: vec![
                Span { id: 1, parent: 0, op: 0, name: "a", start_ns: 0, end_ns: 100 },
                Span { id: 2, parent: 1, op: 0, name: "b", start_ns: 10, end_ns: 40 },
                Span { id: 3, parent: 1, op: 0, name: "b", start_ns: 50, end_ns: 60 },
                Span { id: 4, parent: 2, op: 0, name: "c", start_ns: 15, end_ns: 20 },
            ],
        };
        assert_eq!(t.mean_ns_by_name()["b"], (20.0, 2));
        let own = t.mean_self_ns_by_name();
        assert_eq!(own["a"], 60.0);
        assert_eq!(own["b"], 17.5);
        assert_eq!(own["c"], 5.0);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Tracer::default();
        let root = a.begin("x", 0, 0);
        a.end(root);
        let mut b = Tracer::default();
        let p = b.begin("y", 0, 7);
        let c = b.begin("z", p.id(), 7);
        b.end(c);
        b.end(p);
        a.absorb(b);
        let ids: Vec<(u32, u32)> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(1, 0), (2, 0), (3, 2)]);
        let (json, written) = a.to_json(1);
        assert_eq!(written, 1);
        assert!(json.contains("\"name\":\"x\""));
    }
}
