//! The benchmark's own spans: kept in memory while the run measures and
//! written out once at the end, in the `fastvg-obs` export schema so
//! `fastvg-trace` can read them.

use fastvg_obs::{IdGen, Span, SpanId, TraceId};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// An in-memory span sink with deterministic ids.
pub struct SpanLog {
    ids: IdGen,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose ids derive from `seed`.
    pub fn new(seed: u64) -> SpanLog {
        SpanLog {
            ids: IdGen::with_seed(seed),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id (for trace ids and for spans whose id must be known
    /// before they finish, such as a client span's trace header).
    pub fn next_id(&self) -> u64 {
        self.ids.next_id()
    }

    /// Records a finished span under a caller-chosen id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace: u64,
        id: u64,
        parent: Option<u64>,
        layer: &str,
        name: &str,
        start_us: u64,
        dur: Duration,
        attrs: Vec<(&'static str, String)>,
    ) {
        let span = Span {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            layer: layer.to_string(),
            name: name.to_string(),
            start_us,
            dur_us: dur.as_micros() as u64,
            attrs,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.lock().expect("span log poisoned").iter() {
            writeln!(out, "{}", span.to_json_line())?;
        }
        out.flush()
    }
}
