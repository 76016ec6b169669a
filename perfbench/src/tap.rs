//! The transport decorator: the benchmark's span recorder for the `net`
//! and `tcp` layers.
//!
//! [`Tap`] wraps any [`Transport`] (and, for sockets, [`RealTransport`])
//! and forwards every call unchanged. With tracing on it also times each
//! `send`, `poll`, `drain_due` and `wait_activity` call and counts the
//! frames and bytes crossing it; with tracing off it is a plain
//! forwarder, so untraced and traced runs drive the exact same service
//! type and their histories can be compared byte for byte.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use sage_service::{Envelope, LinkEvent, NodeId, RealTransport, Transport};

/// How many encoded frames a traced run keeps for the wire-codec probes.
const CAPTURE: usize = 512;

/// Span totals of one traced transport.
#[derive(Default)]
pub struct TapTrace {
    pub send_ns: u64,
    pub sends: u64,
    pub send_bytes: u64,
    pub poll_ns: u64,
    pub drain_ns: u64,
    pub drains: u64,
    pub drained: u64,
    pub wait_ns: u64,
    /// The first [`CAPTURE`] frames sent, as encoded on the wire.
    pub captured: Vec<Vec<u8>>,
}

impl TapTrace {
    /// Time spent inside the transport (the wrapped layer's self time
    /// as seen from the service), blocking waits excluded.
    pub fn busy_ns(&self) -> u64 {
        self.send_ns + self.poll_ns + self.drain_ns
    }
}

/// A pass-through [`Transport`] that optionally records spans.
pub struct Tap<T> {
    inner: T,
    trace: Option<Box<TapTrace>>,
    /// `wait_activity` time (ns) not yet folded into `trace` — that call
    /// only gets `&self`.
    wait_ns: Cell<u64>,
    /// Every traced call's `(start, end)` in ns since `epoch`, until
    /// taken by [`Tap::take_spans`].
    spans: RefCell<Vec<(u64, u64)>>,
    epoch: Instant,
}

impl<T> Tap<T> {
    pub fn new(inner: T, traced: bool) -> Tap<T> {
        Tap {
            inner,
            trace: traced.then(Box::default),
            wait_ns: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Nanoseconds since this tap's epoch (the span time base).
    pub fn clock(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records the span that began at `t`, returning its duration.
    fn close(&self, t: Instant) -> u64 {
        let start = t.duration_since(self.epoch).as_nanos() as u64;
        let d = t.elapsed().as_nanos() as u64;
        self.spans.borrow_mut().push((start, start + d));
        d
    }

    /// Takes the spans recorded since the last call.
    pub fn take_spans(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }

    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// The recorded span totals (`None` when untraced).
    pub fn trace_mut(&mut self) -> Option<&mut TapTrace> {
        let waited = self.wait_ns.replace(0);
        let tr = self.trace.as_deref_mut()?;
        tr.wait_ns += waited;
        Some(tr)
    }

    /// Clears the recorded spans, so a measurement window starts at zero.
    pub fn reset(&mut self) {
        self.wait_ns.set(0);
        self.spans.borrow_mut().clear();
        if let Some(t) = self.trace.as_mut() {
            let captured = std::mem::take(&mut t.captured);
            **t = TapTrace {
                captured,
                ..TapTrace::default()
            };
        }
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, now: u64, env: Envelope) {
        let Some(tr) = self.trace.as_mut() else {
            return self.inner.send(now, env);
        };
        tr.sends += 1;
        tr.send_bytes += env.bytes.len() as u64;
        if tr.captured.len() < CAPTURE {
            tr.captured.push(env.bytes.clone());
        }
        let t = Instant::now();
        self.inner.send(now, env);
        let d = self.close(t);
        let tr = self.trace.as_mut().expect("traced");
        tr.send_ns += d;
    }

    fn poll(&mut self, now: u64, node: NodeId) -> Option<Envelope> {
        if self.trace.is_none() {
            return self.inner.poll(now, node);
        }
        let t = Instant::now();
        let out = self.inner.poll(now, node);
        let d = self.close(t);
        let tr = self.trace.as_mut().expect("traced");
        tr.poll_ns += d;
        out
    }

    fn next_event_at(&self) -> Option<u64> {
        self.inner.next_event_at()
    }

    fn drain_due(&mut self, now: u64) -> Vec<Envelope> {
        if self.trace.is_none() {
            return self.inner.drain_due(now);
        }
        let t = Instant::now();
        let out = self.inner.drain_due(now);
        let d = self.close(t);
        let tr = self.trace.as_mut().expect("traced");
        tr.drain_ns += d;
        tr.drains += 1;
        tr.drained += out.len() as u64;
        out
    }

    fn take_link_events(&mut self) -> Vec<LinkEvent> {
        self.inner.take_link_events()
    }
}

impl<T: RealTransport> RealTransport for Tap<T> {
    fn wait_activity(&self, timeout: Duration) -> bool {
        if self.trace.is_none() {
            return self.inner.wait_activity(timeout);
        }
        let t = Instant::now();
        let out = self.inner.wait_activity(timeout);
        let d = self.close(t);
        self.wait_ns.set(self.wait_ns.get() + d);
        out
    }

    fn pending_enrolls(&self) -> usize {
        self.inner.pending_enrolls()
    }
}
