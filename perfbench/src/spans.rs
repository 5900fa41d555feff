//! Layer spans recorded by the benchmark around its calls into the engine,
//! and the Perfetto file that carries them.
//!
//! Spans live in memory and are written once, after the traced run.  Each
//! span names the span that caused it, so a layer's self time is its
//! duration minus the part its children cover.

use std::io::Write;
use std::time::{Duration, Instant};

use dcme_congest::ChromeTraceSink;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"linial"`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// Duration of the call.
    pub dur: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Recording thread lane (0 for the benchmark's own thread).
    pub lane: usize,
}

/// An in-memory span list sharing one time origin.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty list whose time origin is `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished call that started at `start` and lasted `dur`;
    /// returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        lane: usize,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            dur,
            parent,
            lane,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span on the benchmark thread and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, 0, start, start.elapsed());
        out
    }

    /// Opens a span whose duration is filled in by [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> (usize, Instant) {
        let start = Instant::now();
        (self.record(name, parent, 0, start, Duration::ZERO), start)
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, (id, start): (usize, Instant)) {
        self.spans[id].dur = start.elapsed();
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64())
            .sum()
    }

    /// Seconds the direct children of the span at `id` cover; the span's
    /// self time is its duration minus this.
    pub fn children_seconds(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur.as_secs_f64())
            .sum()
    }

    /// Writes a Chrome trace-event file (loadable in Perfetto): the engine's
    /// own events, when a sink is given, followed by these spans on a
    /// separate `benchmark` track.  The engine sink should be created right
    /// after this list's epoch so both share a time origin.
    pub fn write_perfetto(
        &self,
        engine: Option<&ChromeTraceSink>,
        w: &mut impl Write,
    ) -> std::io::Result<()> {
        const PID: u32 = 1000;
        let mut events = Vec::new();
        if let Some(sink) = engine {
            sink.write_json(&mut events)?;
            // Reopen the engine's `traceEvents` array to append the spans.
            let tail = b"]}";
            if !events.ends_with(tail) {
                return Err(std::io::Error::other("unexpected trace file layout"));
            }
            events.truncate(events.len() - tail.len());
            events.push(b',');
        } else {
            events.extend_from_slice(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        }
        write!(
            events,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{PID},\"tid\":0,\"args\":{{\"name\":\"benchmark\"}}}}"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                events,
                ",{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{PID},\"tid\":{},\"args\":{{\"span\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.lane,
            )?;
        }
        events.extend_from_slice(b"]}");
        w.write_all(&events)
    }
}
