//! The benchmark's own spans: recorded in memory around public calls into each
//! layer, written out when the run ends. A layer is the part of a span's name
//! before the first dot; a span's self time is its duration minus the part of
//! it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }

    /// The layer, or `None` for the grouping spans that belong to no layer.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A log that records nothing: the end-to-end pass runs with this one.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::new()
        }
    }

    /// An empty log on the same clock and with the same setting, for another
    /// thread; [`SpanLog::absorb`] brings its spans back.
    pub fn fork(&self) -> SpanLog {
        SpanLog {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, op: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, Some(parent), op);
        let value = f();
        self.exit(id);
        value
    }

    /// Duration in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time in ns of every span: duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Self time in µs summed by layer.
    pub fn layer_self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut layers = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            if let Some(layer) = span.layer() {
                *layers.entry(layer).or_insert(0.0) += own as f64 / 1e3;
            }
        }
        layers
    }

    /// The span file's self-check: every child lies inside its parent and
    /// belongs to its op, and the layer spans of an op add up to no more than
    /// the op's own span.
    pub fn check(&self) -> Result<(), String> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {id} ({}) ends before it starts", span.name));
            }
            let Some(parent) = span.parent else { continue };
            let outer = self
                .spans
                .get(parent)
                .ok_or(format!("span {id} has no parent {parent}"))?;
            if parent >= id || span.start_ns < outer.start_ns || span.end_ns > outer.end_ns {
                return Err(format!(
                    "span {id} ({}) is not inside its parent",
                    span.name
                ));
            }
            if span.op != outer.op {
                return Err(format!("span {id} ({}) left its op", span.name));
            }
            children_ns[parent] += span.end_ns - span.start_ns;
        }
        for (id, span) in self.spans.iter().enumerate() {
            if children_ns[id] > span.end_ns - span.start_ns {
                return Err(format!("children of span {id} ({}) outlast it", span.name));
            }
        }
        Ok(())
    }

    /// One JSON object per span: id, name, op, parent, start, end, self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_the_check_catches_escapes() {
        let mut log = SpanLog::new();
        let root = log.enter("op", None, 0);
        log.time("qasm.compile", root, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.time("opt.optimize", root, 0, || ());
        log.exit(root);
        log.check().unwrap();
        let own = log.self_ns();
        let child: u64 = log.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], log.spans[0].end_ns - log.spans[0].start_ns - child);
        assert!(log.layer_self_us()["qasm"] >= 2_000.0);

        log.spans[1].end_ns = log.spans[0].end_ns + 1;
        assert!(log.check().is_err());
        let mut off = SpanLog::disabled();
        let id = off.enter("op", None, 0);
        off.exit(id);
        assert!(off.spans.is_empty());
    }
}
