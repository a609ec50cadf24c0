//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that was open when it
//! started. Spans are recorded only between [`start`] and [`finish`];
//! outside that window [`span`] returns an inert guard, so the same
//! benchmark code serves the untraced and the traced run. The recorder
//! is thread-local: every span the benchmark opens is on the thread that
//! drives the workload.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since [`start`].
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, discarding any earlier ones.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Stops recording and returns every span, in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let rec = r.borrow_mut().take();
        rec.map(|rec| {
            assert!(rec.open.is_empty(), "a span is still open at finish");
            rec.spans
        })
        .unwrap_or_default()
    })
}

/// Closes its span when dropped.
pub struct Guard {
    id: Option<usize>,
}

/// Opens a span named `name`, a child of the innermost open span.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard { id: None };
        };
        let id = rec.spans.len();
        let now = rec.now_ns();
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        rec.open.push(id);
        Guard { id: Some(id) }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.now_ns();
                rec.spans[id].end_ns = now;
                if rec.open.last() == Some(&id) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Per-span self time: its duration minus the time its children cover.
/// Children of one span run one after another on one thread, so their
/// durations never overlap and simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// What every span of one name added up to.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub count: usize,
    pub total_ns: u64,
    /// Each span's duration, in record order.
    pub durations_ns: Vec<u64>,
    /// Each span's self time, in record order.
    pub self_ns_each: Vec<u64>,
}

/// Groups spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.durations_ns.push(s.duration_ns());
        t.self_ns_each.push(own);
    }
    out
}

/// Writes one JSON object per span to `path`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "c",
                start_ns: 20,
                end_ns: 25,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 10, 5]);
        let names = by_name(&spans);
        assert_eq!(names["a"].self_ns_each, vec![25]);
        assert_eq!(names["root"].total_ns, 100);
    }

    #[test]
    fn spans_nest_and_are_inert_outside_a_recording() {
        drop(span("ignored"));
        start();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(finish().is_empty());
    }
}
