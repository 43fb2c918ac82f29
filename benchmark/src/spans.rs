//! In-memory span recorder of the staged replay.
//!
//! The harness opens a span around each call into a layer's public
//! entry point; spans nest by a stack, share their query's identifier,
//! and are written out once, when the run ends.

use contfield::obs::Json;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, query_id: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query_id,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns()
    }

    /// Runs `f` inside a span; returns its result and the duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, query_id);
        let out = f();
        (out, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .zip(self_times(&self.spans))
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("start", Json::Num(s.start_ns as f64)),
                    ("end", Json::Num(s.end_ns as f64)),
                    ("self", Json::Num(self_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("query_id", Json::Num(s.query_id as f64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(seed as f64)),
            ("unit", Json::Str("ns".into())),
            ("spans", Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            query_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(30, 50, Some(0)),
            span(60, 70, Some(0)),
            span(62, 65, Some(3)), // grandchild: only its parent pays
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 7, 3]);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut rec = Recorder::new();
        let root = rec.begin("query", 7);
        let (value, _) = rec.time("cf-rtree.filter", 7, || 42);
        assert_eq!(value, 42);
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].query_id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
