//! Host-time spans recorded by the benchmark around its calls into the
//! simulator's layers.
//!
//! The program itself carries no host-time tracing; every span here is
//! opened and closed by benchmark code on either side of a public call
//! (`System::run`, `Assembler::assemble`, ...). Spans are kept in memory
//! and only analysed or written out when the run ends. A disabled
//! recorder costs one branch per call site.

use std::time::Instant;

/// One closed span: a named interval on one host thread.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `"sim.system.run"`.
    pub name: &'static str,
    /// Operation the span belongs to (spans of one operation share it).
    pub op: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one host thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder stamping times against `epoch`; records nothing when
    /// `enabled` is false.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The epoch all span times are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The current operation id.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Tags every span opened from now on with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens on the
    /// recorder it is handed become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Moves every span recorded by `other` (another thread's recorder
    /// on the same epoch) into this one.
    pub fn absorb(&mut self, other: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(other.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans, consuming the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one span run on its thread one after
/// another, so their durations never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}
