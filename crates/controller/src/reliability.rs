//! The end-to-end AFR reliability loop (§8, "Reliability of AFRs").
//!
//! AFR report clones leave the switch at the lowest queue priority, so a
//! congested fabric may drop a substantial fraction of the initial
//! stream. The recovery protocol layered on top is cheap because the
//! sequence ids are dense: after a timeout the controller computes the
//! exact set of missing ids, asks the switch to replay just those from
//! its retransmit buffer, and backs off exponentially between rounds.
//! If `max_rounds` requests all fail to complete the session — the
//! request or its replies keep getting lost — the controller escalates
//! to a full switch-OS read of the retained batch: slow (linear in
//! register entries) but reliable, so every session terminates with a
//! complete, exactly-ordered batch.
//!
//! [`ReliabilityDriver`] implements that loop over an abstract
//! [`AfrTransport`]; the transport is where experiments splice in the
//! `ow-netsim` lossy channel. All timing is virtual: waited timeouts and
//! charged OS-read latency accumulate into
//! [`ReliabilityMetrics::wall_clock`].

use ow_common::afr::FlowRecord;
use ow_common::metrics::ReliabilityMetrics;
use ow_common::time::Duration;

use crate::collector::CollectionSession;

/// Timeout/retry schedule for one collection session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmission rounds before escalating to the OS path.
    pub max_rounds: u32,
    /// Timeout before the first completeness check.
    pub base_timeout: Duration,
    /// Multiplier applied to the timeout each further round.
    pub backoff_factor: u32,
    /// Ceiling on the per-round timeout.
    pub max_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_rounds: 4,
            base_timeout: Duration::from_micros(200),
            backoff_factor: 2,
            max_timeout: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// The timeout waited before round `round` (1-based): bounded
    /// exponential backoff `base · factor^(round-1)`, capped at
    /// `max_timeout`.
    pub fn timeout_for_round(&self, round: u32) -> Duration {
        let mut t = self.base_timeout;
        for _ in 1..round {
            t = t.saturating_mul(self.backoff_factor as u64);
            if t >= self.max_timeout {
                return self.max_timeout;
            }
        }
        t.min(self.max_timeout)
    }
}

/// The controller's view of the (possibly lossy) path to one switch.
///
/// Implementations decide what actually survives: tests splice an
/// `ow-netsim` `LossyChannel` in front of a real switch, production
/// would be a socket.
pub trait AfrTransport {
    /// The initial lowest-priority AFR stream for `subwindow` —
    /// whatever survived the fabric, in arrival order.
    fn initial_afrs(&mut self, subwindow: u32) -> Vec<FlowRecord>;

    /// Send one retransmission request for exactly `seqs`; returns the
    /// replayed AFRs that made it back. The request itself may be lost,
    /// in which case nothing comes back and the next round retries.
    fn request_retransmit(&mut self, subwindow: u32, seqs: &[u32]) -> Vec<FlowRecord>;

    /// The escalation path: a reliable switch-OS read of the retained
    /// batch, returning it together with its charged latency.
    fn os_read(&mut self, subwindow: u32) -> (Vec<FlowRecord>, Duration);
}

/// [`AfrTransport`] assembled from closures (no initial stream — for
/// callers that already fed the first pass in, like the live
/// controller).
pub(crate) struct FnTransport<R, O>
where
    R: FnMut(u32, &[u32]) -> Vec<FlowRecord>,
    O: FnMut(u32) -> (Vec<FlowRecord>, Duration),
{
    /// Serves retransmission requests.
    pub retransmit: R,
    /// Serves the OS-path escalation.
    pub os_read: O,
}

impl<R, O> AfrTransport for FnTransport<R, O>
where
    R: FnMut(u32, &[u32]) -> Vec<FlowRecord>,
    O: FnMut(u32) -> (Vec<FlowRecord>, Duration),
{
    fn initial_afrs(&mut self, _subwindow: u32) -> Vec<FlowRecord> {
        Vec::new()
    }
    fn request_retransmit(&mut self, subwindow: u32, seqs: &[u32]) -> Vec<FlowRecord> {
        (self.retransmit)(subwindow, seqs)
    }
    fn os_read(&mut self, subwindow: u32) -> (Vec<FlowRecord>, Duration) {
        (self.os_read)(subwindow)
    }
}

/// Result of driving one session to completeness.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The complete batch, sorted by sequence id — identical to what a
    /// loss-free channel would have delivered.
    pub batch: Vec<FlowRecord>,
    /// What the recovery loop did to get there.
    pub metrics: ReliabilityMetrics,
    /// Whether the OS path had to be read.
    pub escalated: bool,
}

/// Drives [`CollectionSession`]s to completeness over an
/// [`AfrTransport`] according to a [`RetryPolicy`].
#[derive(Debug, Clone, Default)]
pub struct ReliabilityDriver {
    policy: RetryPolicy,
}

impl ReliabilityDriver {
    /// A driver with the given retry schedule.
    pub fn new(policy: RetryPolicy) -> ReliabilityDriver {
        ReliabilityDriver { policy }
    }

    /// Collect one announced sub-window end to end: initial stream,
    /// retransmission rounds, OS-path escalation if needed.
    ///
    /// # Panics
    /// Panics if even the transport's `os_read` cannot produce the
    /// announced sequence ids — at that point the switch itself has lost
    /// the batch and no protocol can recover it.
    pub fn collect<T: AfrTransport>(
        &self,
        transport: &mut T,
        subwindow: u32,
        announced: u32,
    ) -> SessionOutcome {
        let mut session = CollectionSession::new(subwindow, announced);
        let mut metrics = ReliabilityMetrics {
            announced: announced as u64,
            ..ReliabilityMetrics::default()
        };
        let initial = transport.initial_afrs(subwindow);
        metrics.first_pass = feed(&mut session, &mut metrics, initial);
        let escalated = self.complete_session(&mut session, &mut metrics, transport);
        SessionOutcome {
            batch: session.into_batch(),
            metrics,
            escalated,
        }
    }

    /// Drive an already-fed session the rest of the way: retransmission
    /// rounds with bounded exponential backoff, then OS-path escalation.
    /// Returns whether escalation happened. Waited timeouts and charged
    /// OS latency accumulate into `metrics.wall_clock`.
    pub(crate) fn complete_session<T: AfrTransport>(
        &self,
        session: &mut CollectionSession,
        metrics: &mut ReliabilityMetrics,
        transport: &mut T,
    ) -> bool {
        let mut round = 0u32;
        while !session.is_complete() && round < self.policy.max_rounds {
            round += 1;
            // The timeout elapses first — that is how the controller
            // discovers the previous round (or the initial stream) did
            // not complete the session.
            metrics.wall_clock += self.policy.timeout_for_round(round);
            let missing = session.missing();
            metrics.retransmit_rounds += 1;
            metrics.retransmit_requests += 1;
            let replayed = transport.request_retransmit(session.subwindow(), &missing);
            metrics.recovered += feed(session, metrics, replayed);
        }
        if session.is_complete() {
            return false;
        }
        let (batch, cost) = transport.os_read(session.subwindow());
        metrics.escalations += 1;
        metrics.wall_clock += cost;
        feed(session, metrics, batch);
        true
    }
}

/// Ingest records, counting fresh inserts (returned) and duplicates
/// (into `metrics`). Wrong-sub-window records — channel misdelivery —
/// are dropped like losses.
fn feed(
    session: &mut CollectionSession,
    metrics: &mut ReliabilityMetrics,
    recs: Vec<FlowRecord>,
) -> u64 {
    let mut fresh = 0u64;
    for rec in recs {
        let before = session.received();
        if session.receive(rec).is_ok() {
            if session.received() > before {
                fresh += 1;
            } else {
                metrics.duplicates += 1;
            }
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::flowkey::FlowKey;

    fn batch(subwindow: u32, n: u32) -> Vec<FlowRecord> {
        (0..n)
            .map(|seq| {
                let mut r =
                    FlowRecord::frequency(FlowKey::src_ip(seq + 1), seq as u64 + 1, subwindow);
                r.seq = seq;
                r
            })
            .collect()
    }

    /// A scripted transport: the initial stream delivers `deliver`, the
    /// first `failed_rounds` retransmissions return nothing, later ones
    /// replay faithfully.
    struct Scripted {
        store: Vec<FlowRecord>,
        deliver: Vec<u32>,
        failed_rounds: u32,
        requests: Vec<Vec<u32>>,
    }

    impl Scripted {
        fn new(subwindow: u32, n: u32, deliver: Vec<u32>, failed_rounds: u32) -> Scripted {
            Scripted {
                store: batch(subwindow, n),
                deliver,
                failed_rounds,
                requests: Vec::new(),
            }
        }
    }

    impl AfrTransport for Scripted {
        fn initial_afrs(&mut self, _sw: u32) -> Vec<FlowRecord> {
            self.deliver
                .iter()
                .map(|&s| self.store[s as usize])
                .collect()
        }
        fn request_retransmit(&mut self, _sw: u32, seqs: &[u32]) -> Vec<FlowRecord> {
            self.requests.push(seqs.to_vec());
            if (self.requests.len() as u32) <= self.failed_rounds {
                return Vec::new();
            }
            seqs.iter().map(|&s| self.store[s as usize]).collect()
        }
        fn os_read(&mut self, _sw: u32) -> (Vec<FlowRecord>, Duration) {
            (self.store.clone(), Duration::from_millis(50))
        }
    }

    #[test]
    fn lossless_first_pass_needs_no_rounds() {
        let mut t = Scripted::new(3, 6, (0..6).collect(), 0);
        let out = ReliabilityDriver::default().collect(&mut t, 3, 6);
        assert_eq!(out.batch, batch(3, 6));
        assert!(!out.escalated);
        assert!(out.metrics.lossless());
        assert_eq!(out.metrics.first_pass, 6);
        assert_eq!(out.metrics.wall_clock, Duration::ZERO);
    }

    #[test]
    fn one_round_recovers_exactly_the_missing_ids() {
        let mut t = Scripted::new(0, 8, vec![0, 2, 4, 6], 0);
        let out = ReliabilityDriver::default().collect(&mut t, 0, 8);
        assert_eq!(out.batch, batch(0, 8));
        assert_eq!(t.requests, vec![vec![1, 3, 5, 7]]);
        assert_eq!(out.metrics.retransmit_rounds, 1);
        assert_eq!(out.metrics.recovered, 4);
        assert!(!out.escalated);
    }

    #[test]
    fn lost_request_retries_with_backoff() {
        let policy = RetryPolicy::default();
        let mut t = Scripted::new(0, 4, vec![0], 2);
        let out = ReliabilityDriver::new(policy).collect(&mut t, 0, 4);
        assert_eq!(out.batch, batch(0, 4));
        // Rounds 1 and 2 were swallowed; round 3 delivered.
        assert_eq!(t.requests.len(), 3);
        assert!(t.requests.iter().all(|r| r == &vec![1, 2, 3]));
        assert_eq!(out.metrics.retransmit_rounds, 3);
        let expect =
            policy.timeout_for_round(1) + policy.timeout_for_round(2) + policy.timeout_for_round(3);
        assert_eq!(out.metrics.wall_clock, expect);
    }

    #[test]
    fn escalates_to_os_read_after_max_rounds() {
        let policy = RetryPolicy {
            max_rounds: 3,
            ..RetryPolicy::default()
        };
        // Every retransmission fails.
        let mut t = Scripted::new(5, 4, vec![1], u32::MAX);
        let out = ReliabilityDriver::new(policy).collect(&mut t, 5, 4);
        assert_eq!(out.batch, batch(5, 4));
        assert!(out.escalated);
        assert_eq!(out.metrics.escalations, 1);
        assert_eq!(out.metrics.retransmit_rounds, 3);
        // The OS read's latency is charged on top of the waited timeouts.
        let timeouts = (1..=3)
            .map(|r| policy.timeout_for_round(r))
            .fold(Duration::ZERO, |acc, t| acc + t);
        assert_eq!(out.metrics.wall_clock, timeouts + Duration::from_millis(50));
        // The OS batch re-delivers the one AFR we already had.
        assert_eq!(out.metrics.duplicates, 1);
    }

    #[test]
    fn backoff_is_bounded_by_max_timeout() {
        let p = RetryPolicy {
            max_rounds: 10,
            base_timeout: Duration::from_micros(100),
            backoff_factor: 4,
            max_timeout: Duration::from_millis(1),
        };
        assert_eq!(p.timeout_for_round(1), Duration::from_micros(100));
        assert_eq!(p.timeout_for_round(2), Duration::from_micros(400));
        assert_eq!(p.timeout_for_round(3), Duration::from_millis(1));
        assert_eq!(p.timeout_for_round(9), Duration::from_millis(1));
    }

    #[test]
    fn empty_announcement_is_trivially_complete() {
        let mut t = Scripted::new(0, 0, vec![], 0);
        let out = ReliabilityDriver::default().collect(&mut t, 0, 0);
        assert!(out.batch.is_empty());
        assert!(out.metrics.lossless());
    }
}
