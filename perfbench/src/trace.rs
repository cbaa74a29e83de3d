//! In-memory span recorder for the traced run, written out at the end as
//! Chrome Trace Event JSON (opens in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! A disabled recorder costs one branch per span.

use std::time::Instant;

/// One completed span: `[start_ns, start_ns + dur_ns)` relative to the
/// recorder's origin, nested by time containment.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Free-form detail shown in the viewer (cell label, seed, ...).
    pub detail: String,
}

/// Collects spans for one pass.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; the detail string is built
    /// only when recording.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: impl FnOnce() -> String,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
            detail: detail(),
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Chrome Trace Event JSON ("X" complete events, microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"detail\":\"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                escape(&s.detail),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.span("a", || "x".into(), |_| 7);
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn nested_spans_are_contained_and_serialised() {
        let mut r = Recorder::new(true);
        r.span("outer", String::new, |r| {
            r.span("inner", || "q\"uote".into(), |_| ());
        });
        let (inner, outer) = (&r.spans()[0], &r.spans()[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        let json = r.to_chrome_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("q\\\"uote"));
    }
}
