//! In-memory spans recorded around calls into each layer's public
//! functions. Spans are kept in memory while the run measures and are
//! written out as Chrome trace-event JSON when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_epoch(Instant::now())
    }

    /// A tracer whose times count from `epoch`.
    pub fn with_epoch(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 for earlier times).
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Record a finished span with explicit times; returns its id.
    pub fn record(
        &mut self,
        op: u32,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Start a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, op: u32, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.now_ns();
        self.record(op, parent, name, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        op: u32,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, parent, name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of its interval that its direct
    /// children cover (overlapping children are counted once).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration_ns() - covered
    }

    /// Self time per span name for one op, summed over that op's spans.
    pub fn op_self_times_ns(&self, op: u32) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            *out.entry(s.name).or_insert(0) += self.self_time_ns(id);
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, one track per op.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Write [`Tracer::to_chrome_json`] to `path`, creating its directory.
    pub fn write_chrome(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_chrome_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let op = t.record(1, None, "op", 0, 100);
        let a = t.record(1, Some(op), "a", 10, 40);
        t.record(1, Some(a), "a.inner", 15, 35);
        t.record(1, Some(op), "b", 50, 90);
        // op: 100 − (30 + 40) = 30; a: 30 − 20 = 10; leaves keep all.
        assert_eq!(t.self_time_ns(op), 30);
        assert_eq!(t.self_time_ns(a), 10);
        assert_eq!(t.self_time_ns(2), 20);
        assert_eq!(t.self_time_ns(3), 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = Tracer::new();
        let op = t.record(1, None, "op", 100, 200);
        t.record(1, Some(op), "x", 90, 130); // overhangs the start
        t.record(1, Some(op), "y", 120, 150); // overlaps x
        t.record(1, Some(op), "z", 190, 250); // overhangs the end
                                              // Covered: [100,150) + [190,200) = 60.
        assert_eq!(t.self_time_ns(op), 40);
    }

    #[test]
    fn per_op_self_times_sum_by_name_and_ignore_other_ops() {
        let mut t = Tracer::new();
        let op = t.record(7, None, "op", 0, 100);
        t.record(7, Some(op), "sql", 0, 20);
        t.record(7, Some(op), "sql", 30, 50);
        let other = t.record(8, None, "op", 0, 10);
        t.record(8, Some(other), "sql", 0, 10);
        let times = t.op_self_times_ns(7);
        assert_eq!(times["sql"], 40);
        assert_eq!(times["op"], 60);
        assert_eq!(times.values().sum::<u64>(), 100);
    }

    #[test]
    fn open_and_close_nest_in_wall_time() {
        let mut t = Tracer::new();
        let op = t.open(1, None, "op");
        let inner = t.time(1, Some(op), "inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            5
        });
        t.close(op);
        assert_eq!(inner, 5);
        let spans = t.spans();
        assert!(spans[1].duration_ns() >= 2_000_000);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t.to_chrome_json().contains("\"name\":\"inner\""));
    }
}
