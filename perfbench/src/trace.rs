//! Outside-in tracing: timing wrappers around the program's public
//! interfaces. Nothing here reaches inside a crate; every span is taken at
//! a call the benchmark itself makes or hands to the program (an
//! [`IncrementalScorer`] or a [`Vfs`]). Spans are kept in memory and
//! written once, at the end of the run.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tpgnn_core::{IncrementalScorer, SessionState};
use tpgnn_graph::{NodeFeatures, TemporalEdge};
use tpgnn_obs::vfs::{Vfs, VfsError, VfsFile};
use tpgnn_tensor::profile::OpProfile;
use tpgnn_tensor::Tape;

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One timed call: `[start, end)` in ns since the epoch, plus the number of
/// bytes it moved (vfs calls only).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    pub bytes: u64,
}

/// The interface call a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Open,
    Advance,
    Score,
    Append,
    Sync,
    CreateAtomic,
    Read,
    OtherIo,
}

/// Shared in-memory span sink (model calls arrive from pool workers).
#[derive(Clone, Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn timed<R>(&self, kind: Kind, bytes: u64, f: impl FnOnce() -> R) -> R {
        let start = now_ns(self.epoch);
        let r = f();
        let end = now_ns(self.epoch);
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(Span {
                kind,
                start,
                end,
                bytes,
            });
        r
    }

    /// Every span recorded so far, sorted by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        v.sort_by_key(|s| s.start);
        v
    }
}

/// An [`IncrementalScorer`] that times every call and delegates it
/// unchanged.
pub struct TimedScorer<'m, M> {
    pub inner: &'m M,
    pub rec: Recorder,
}

impl<M: IncrementalScorer> IncrementalScorer for TimedScorer<'_, M> {
    fn open_session(
        &self,
        tape: &mut Tape,
        features: &NodeFeatures,
    ) -> Result<SessionState, String> {
        self.rec
            .timed(Kind::Open, 0, || self.inner.open_session(tape, features))
    }

    fn advance_session(&self, tape: &mut Tape, state: &mut SessionState, edge: TemporalEdge) {
        self.rec.timed(Kind::Advance, 0, || {
            self.inner.advance_session(tape, state, edge)
        })
    }

    fn score_session(&self, tape: &mut Tape, state: &SessionState) -> f32 {
        self.rec
            .timed(Kind::Score, 0, || self.inner.score_session(tape, state))
    }
}

/// A [`Vfs`] that times every call (and every call on the files it opens)
/// and delegates it unchanged.
#[derive(Debug)]
pub struct TimedVfs {
    pub inner: Arc<dyn Vfs>,
    pub rec: Recorder,
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    rec: Recorder,
}

impl VfsFile for TimedFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), VfsError> {
        let inner = &mut self.inner;
        self.rec
            .timed(Kind::Append, buf.len() as u64, || inner.append(buf))
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        let inner = &mut self.inner;
        self.rec.timed(Kind::Sync, 0, || inner.sync())
    }
}

impl Vfs for TimedVfs {
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError> {
        let inner = self
            .rec
            .timed(Kind::OtherIo, 0, || self.inner.open_append(path))?;
        Ok(Box::new(TimedFile {
            inner,
            rec: self.rec.clone(),
        }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        self.rec.timed(Kind::OtherIo, bytes.len() as u64, || {
            self.inner.write(path, bytes)
        })
    }

    fn create_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        self.rec.timed(Kind::CreateAtomic, bytes.len() as u64, || {
            self.inner.create_atomic(path, bytes)
        })
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        self.rec.timed(Kind::Read, 0, || self.inner.read(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        self.rec
            .timed(Kind::OtherIo, 0, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        self.rec.timed(Kind::OtherIo, 0, || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, VfsError> {
        self.rec.timed(Kind::OtherIo, 0, || self.inner.list(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), VfsError> {
        self.rec
            .timed(Kind::OtherIo, 0, || self.inner.create_dir_all(dir))
    }
}

/// Count, mean duration (µs) and total bytes of the spans of one kind.
pub fn kind_stats(spans: &[Span], kind: Kind) -> (u64, f64, u64) {
    let (mut n, mut ns, mut bytes) = (0u64, 0u64, 0u64);
    for s in spans.iter().filter(|s| s.kind == kind) {
        n += 1;
        ns += s.end - s.start;
        bytes += s.bytes;
    }
    let mean_us = if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    };
    (n, mean_us, bytes)
}

/// For each window `[a, b)` (sorted, non-overlapping), the length of the
/// part covered by the union of `spans` (sorted by start). This is the
/// child time inside a parent span, counted once however many workers
/// ran children at the same moment.
pub fn covered_ns(windows: &[(u64, u64)], spans: &[Span]) -> Vec<u64> {
    let mut out = Vec::with_capacity(windows.len());
    let mut first = 0usize;
    for &(a, b) in windows {
        while first < spans.len() && spans[first].end <= a && spans[first].start < a {
            first += 1;
        }
        let (mut covered, mut cur_lo, mut cur_hi) = (0u64, 0u64, 0u64);
        let mut open = false;
        let mut i = first;
        while i < spans.len() && spans[i].start < b {
            let lo = spans[i].start.max(a);
            let hi = spans[i].end.min(b);
            i += 1;
            if hi <= lo {
                continue;
            }
            if open && lo <= cur_hi {
                cur_hi = cur_hi.max(hi);
            } else {
                if open {
                    covered += cur_hi - cur_lo;
                }
                (cur_lo, cur_hi, open) = (lo, hi, true);
            }
        }
        if open {
            covered += cur_hi - cur_lo;
        }
        out.push(covered);
    }
    out
}

/// Per-graph work counts and time shares read from the tape profiler.
#[derive(Clone, Copy, Debug, Default)]
pub struct TapeProfile {
    pub param_elems: f64,
    pub tape_nodes: f64,
    pub param_share: f64,
    pub matmul_share: f64,
}

impl TapeProfile {
    /// Summarise a profiler snapshot over `graphs` graphs.
    pub fn of(snap: &[OpProfile], graphs: usize) -> Self {
        let g = graphs.max(1) as f64;
        let total: u64 = snap.iter().map(OpProfile::total_ns).sum();
        let get = |name: &str| snap.iter().find(|p| p.name == name);
        let share =
            |name: &str| get(name).map_or(0.0, |p| p.total_ns() as f64 / total.max(1) as f64);
        Self {
            param_elems: get("param").map_or(0.0, |p| p.elems as f64) / g,
            tape_nodes: snap.iter().map(|p| p.calls as f64).sum::<f64>() / g,
            param_share: share("param"),
            matmul_share: share("matmul"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start: u64, end: u64) -> Span {
        Span {
            kind: Kind::Advance,
            start,
            end,
            bytes: 0,
        }
    }

    #[test]
    fn covered_counts_overlapping_children_once() {
        // Two workers overlap on [15, 20); a third child straddles the
        // second window's start.
        let spans = [sp(10, 20), sp(15, 25), sp(28, 42), sp(45, 46)];
        let got = covered_ns(&[(0, 30), (40, 50)], &spans);
        assert_eq!(got, vec![15 + 2, 2 + 1]);
    }

    #[test]
    fn covered_is_zero_without_children() {
        assert_eq!(covered_ns(&[(0, 10)], &[]), vec![0]);
        assert_eq!(covered_ns(&[(0, 10)], &[sp(20, 30)]), vec![0]);
    }
}
