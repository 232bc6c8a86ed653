//! Open-loop scheduling with due-time accounting.
//!
//! An open-loop sender issues request `k` of a stream at
//! `start + k / rate`, whether or not earlier requests have been
//! answered. Latency is measured from that due time, not from the
//! moment the request actually left, so a stall that delays later
//! sends is charged to every request it delayed. How late the sender
//! itself ran (send time − due time) is recorded separately.

use crate::hist::{Histogram, Series};

/// One fixed-rate stream of due times.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start_ns: u64,
    period_ns: f64,
    next: u64,
}

impl OpenLoop {
    /// A stream starting at `start_ns` with `rate` requests per second.
    pub fn new(start_ns: u64, rate: f64) -> Self {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        Self {
            start_ns,
            period_ns: 1e9 / rate,
            next: 0,
        }
    }

    /// Due time of the next request.
    pub fn next_due(&self) -> u64 {
        self.start_ns + (self.next as f64 * self.period_ns) as u64
    }

    /// Index of the next request.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Consumes the next request, returning `(index, due)`.
    pub fn advance(&mut self) -> (u64, u64) {
        let due = self.next_due();
        let k = self.next;
        self.next += 1;
        (k, due)
    }
}

/// Several open-loop streams merged by due time (ties go to the stream
/// listed first).
#[derive(Debug, Clone)]
pub struct Merged {
    streams: Vec<OpenLoop>,
}

impl Merged {
    /// Merges streams given as `(start_ns, rate)`; a zero rate is an
    /// empty stream and is skipped (its id is still reserved).
    pub fn new(start_ns: u64, rates: &[f64]) -> Self {
        Self {
            streams: rates
                .iter()
                .map(|&r| {
                    if r > 0.0 {
                        OpenLoop::new(start_ns, r)
                    } else {
                        OpenLoop {
                            start_ns: u64::MAX,
                            period_ns: 0.0,
                            next: 0,
                        }
                    }
                })
                .collect(),
        }
    }

    /// The earliest pending request: `(stream, index, due)`.
    pub fn peek(&self) -> (usize, u64, u64) {
        let (s, o) = self
            .streams
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| o.next_due())
            .expect("at least one stream");
        (s, o.next_index(), o.next_due())
    }

    /// Consumes the earliest pending request.
    pub fn pop(&mut self) -> (usize, u64, u64) {
        let (s, _, _) = self.peek();
        let (k, due) = self.streams[s].advance();
        (s, k, due)
    }
}

/// What one synchronous open-loop sender observed.
#[derive(Debug, Default, Clone)]
pub struct SyncOutcome {
    /// Latency from due time to reply, per stream: `(due, ns)`.
    pub latency: Vec<Series>,
    /// Lateness of each send (send time − due time), in ns.
    pub late: Histogram,
    /// Requests sent.
    pub sent: u64,
    /// Requests that failed (error answer, timeout or lost connection).
    pub failed: u64,
}

/// Drives merged streams over a synchronous (one request in flight)
/// connection until `until_ns`: waits for each due time unless already
/// behind, sends, waits for the answer, and charges the latency from
/// the due time. `send(stream, index)` performs one exchange and
/// reports success. The clock and the wait are injected so tests can
/// stall the sender deterministically.
pub fn drive_sync(
    merged: &mut Merged,
    until_ns: u64,
    streams: usize,
    mut now: impl FnMut() -> u64,
    mut wait_until: impl FnMut(u64),
    mut send: impl FnMut(usize, u64) -> bool,
) -> SyncOutcome {
    let mut out = SyncOutcome {
        latency: vec![Series::default(); streams],
        ..SyncOutcome::default()
    };
    loop {
        let (_, _, due) = merged.peek();
        if due >= until_ns {
            break;
        }
        if now() < due {
            wait_until(due);
        }
        let (s, k, due) = merged.pop();
        let sent_at = now();
        out.late.record(sent_at.saturating_sub(due));
        let ok = send(s, k);
        let done = now();
        out.sent += 1;
        if ok {
            out.latency[s].push(due, done.saturating_sub(due));
        } else {
            out.failed += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn due_times_follow_the_rate() {
        let mut o = OpenLoop::new(1_000, 1_000.0);
        assert_eq!(o.advance(), (0, 1_000));
        assert_eq!(o.advance(), (1, 1_001_000));
        assert_eq!(o.next_due(), 2_001_000);
        let mut m = Merged::new(0, &[100.0, 0.0, 1_000.0]);
        let order: Vec<usize> = (0..12).map(|_| m.pop().0).collect();
        assert_eq!(order[0], 0, "ties go to the first stream");
        assert_eq!(order.iter().filter(|&&s| s == 2).count(), 10);
        assert!(!order.contains(&1), "a zero-rate stream never fires");
    }

    #[test]
    fn a_sender_stall_is_charged_to_every_request_it_delayed() {
        // 1 kHz stream, 100 µs service time, except request 10 stalls
        // for 20 ms (10 ms → 30 ms). Requests 11..=29 fall due during
        // the stall; a timer started at the send would see them as
        // fast, the due-time accounting must not.
        let clock = Cell::new(0u64);
        let mut m = Merged::new(0, &[1_000.0]);
        let out = drive_sync(
            &mut m,
            100_000_000,
            1,
            || clock.get(),
            |t| clock.set(t),
            |_, k| {
                let service = if k == 10 { 20_000_000 } else { 100_000 };
                clock.set(clock.get() + service);
                true
            },
        );
        assert_eq!(out.sent, 100);
        assert_eq!(out.failed, 0);
        let lat = &out.latency[0].hist();
        // The stalled request itself: 20 ms.
        assert!(lat.max() >= 20_000_000, "max {}", lat.max());
        // Requests due during the stall queue behind it: request 11
        // was due at 11 ms and answered at 30.1 ms, and the sender
        // catches up only at request 32, so about a fifth of all
        // requests exceed 1 ms of latency.
        let slow = lat.count_above(1_000_000.0);
        assert!((18..=24).contains(&slow), "{slow} requests above 1 ms");
        // Measured from the send instead, only one request would be
        // slow; the sender's own lateness shows the backlog.
        assert!(out.late.max() >= 9_000_000, "late max {}", out.late.max());
        assert!(out.late.quantile(0.5) < 1_000.0);
    }

    #[test]
    fn failures_count_and_skip_latency() {
        let clock = Cell::new(0u64);
        let mut m = Merged::new(0, &[1_000.0]);
        let out = drive_sync(
            &mut m,
            10_000_000,
            1,
            || clock.get(),
            |t| clock.set(t),
            |_, k| k % 2 == 0,
        );
        assert_eq!(out.sent, 10);
        assert_eq!(out.failed, 5);
        assert_eq!(out.latency[0].len(), 5);
    }
}
