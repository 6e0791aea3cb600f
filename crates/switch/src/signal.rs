//! Window termination signals (§5, "Window termination signal").
//!
//! A sub-window ends when a signal fires. OmniWindow supports four
//! signal kinds, all modelled here: timeout (fixed-length sub-windows),
//! counter (threshold on a packet predicate), session (inactivity gap),
//! and user-defined (application-embedded boundary tags, used by the
//! Exp#3 DML case study).

use ow_common::packet::Packet;
use ow_common::time::{Duration, Instant};

/// The signal that terminates sub-windows.
#[derive(Debug, Clone)]
pub enum WindowSignal {
    /// Fixed-length sub-windows: a new sub-window every `Duration`.
    Timeout(Duration),
    /// Counter signal: a sub-window ends after `threshold` packets
    /// matching `predicate` (e.g. TCP packets).
    Counter {
        /// Packets per sub-window.
        threshold: u64,
        /// Which packets count (None = all packets).
        predicate: Option<fn(&Packet) -> bool>,
    },
    /// Session signal: a sub-window ends after `gap` with no traffic.
    Session(Duration),
    /// User-defined: the packet's `app_tag` *is* the window id; a tag
    /// change moves to a new window (monotonically increasing tags, as
    /// the paper requires of applications).
    UserDefined,
}

/// A sub-window termination event produced by the signal engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Termination {
    /// The sub-window that just ended.
    pub ended: u32,
    /// The sub-window now current.
    pub next: u32,
    /// When the termination was detected.
    pub at: Instant,
}

/// Evaluates the configured signal against the packet stream and tracks
/// the current sub-window number.
///
/// ```
/// use ow_switch::signal::{SignalEngine, WindowSignal};
/// use ow_common::packet::{Packet, TcpFlags};
/// use ow_common::time::{Duration, Instant};
///
/// let mut engine = SignalEngine::new(WindowSignal::Timeout(Duration::from_millis(100)));
/// let p = Packet::tcp(Instant::from_millis(150), 1, 2, 3, 4, TcpFlags::ack(), 64);
/// let term = engine.on_packet(&p).expect("crossed the 100 ms boundary");
/// assert_eq!((term.ended, term.next), (0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct SignalEngine {
    signal: WindowSignal,
    current: u32,
    // Timeout state.
    next_deadline: Option<Instant>,
    subwindow_len: Option<Duration>,
    // Counter state.
    count: u64,
    // Session state.
    last_packet: Option<Instant>,
    // User-defined state.
    last_tag: Option<u32>,
}

impl SignalEngine {
    /// Create an engine for `signal`, starting in sub-window 0.
    pub fn new(signal: WindowSignal) -> SignalEngine {
        let subwindow_len = match &signal {
            WindowSignal::Timeout(d) => Some(*d),
            _ => None,
        };
        SignalEngine {
            signal,
            current: 0,
            next_deadline: subwindow_len.map(|d| Instant::ZERO + d),
            subwindow_len,
            count: 0,
            last_packet: None,
            last_tag: None,
        }
    }

    /// The current sub-window number.
    #[inline]
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Force the current sub-window forward to `sw` (used when the
    /// consistency model observes a newer embedded sub-window — the
    /// "packet D triggers the window-moving" case of Figure 4).
    pub fn fast_forward(&mut self, sw: u32, now: Instant) -> Option<Termination> {
        if sw > self.current {
            let ended = self.current;
            self.current = sw;
            self.count = 0;
            // Re-anchor the timeout deadline to the new sub-window.
            if let Some(len) = self.subwindow_len {
                self.next_deadline = Some(Instant::from_nanos((sw as u64 + 1) * len.as_nanos()));
            }
            Some(Termination {
                ended,
                next: sw,
                at: now,
            })
        } else {
            None
        }
    }

    /// Observe a packet; returns a termination if this packet moves the
    /// switch into a new sub-window. For timeout signals several
    /// sub-windows may have elapsed in silence; the returned
    /// `Termination::next` reflects the final position.
    #[inline]
    pub fn on_packet(&mut self, pkt: &Packet) -> Option<Termination> {
        match &self.signal {
            WindowSignal::Timeout(len) => {
                let deadline = self.next_deadline.expect("timeout engine has deadline");
                if pkt.ts >= deadline {
                    let ended = self.current;
                    // How many whole sub-windows fit before this packet.
                    let sw = (pkt.ts.as_nanos() / len.as_nanos()) as u32;
                    self.current = sw;
                    self.next_deadline =
                        Some(Instant::from_nanos((sw as u64 + 1) * len.as_nanos()));
                    Some(Termination {
                        ended,
                        next: sw,
                        at: pkt.ts,
                    })
                } else {
                    None
                }
            }
            WindowSignal::Counter {
                threshold,
                predicate,
            } => {
                let counts = predicate.map(|f| f(pkt)).unwrap_or(true);
                if counts {
                    self.count += 1;
                }
                if self.count >= *threshold {
                    self.count = 0;
                    let ended = self.current;
                    self.current += 1;
                    Some(Termination {
                        ended,
                        next: self.current,
                        at: pkt.ts,
                    })
                } else {
                    None
                }
            }
            WindowSignal::Session(gap) => {
                let fired = match self.last_packet {
                    Some(last) => pkt.ts.saturating_since(last) >= *gap,
                    None => false,
                };
                self.last_packet = Some(pkt.ts);
                if fired {
                    let ended = self.current;
                    self.current += 1;
                    Some(Termination {
                        ended,
                        next: self.current,
                        at: pkt.ts,
                    })
                } else {
                    None
                }
            }
            WindowSignal::UserDefined => {
                let tag = pkt.app_tag;
                let fired = match self.last_tag {
                    Some(prev) => tag > prev,
                    None => false,
                };
                if self.last_tag.is_none() || fired {
                    self.last_tag = Some(tag);
                }
                if fired {
                    let ended = self.current;
                    self.current = tag;
                    Some(Termination {
                        ended,
                        next: tag,
                        at: pkt.ts,
                    })
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::packet::TcpFlags;

    fn pkt_at(ms: u64) -> Packet {
        Packet::tcp(Instant::from_millis(ms), 1, 2, 3, 4, TcpFlags::ack(), 64)
    }

    #[test]
    fn timeout_fires_on_boundary() {
        let mut e = SignalEngine::new(WindowSignal::Timeout(Duration::from_millis(100)));
        assert!(e.on_packet(&pkt_at(50)).is_none());
        assert!(e.on_packet(&pkt_at(99)).is_none());
        let t = e.on_packet(&pkt_at(100)).expect("boundary crossing");
        assert_eq!(t.ended, 0);
        assert_eq!(t.next, 1);
        assert_eq!(e.current(), 1);
    }

    #[test]
    fn timeout_skips_silent_subwindows() {
        let mut e = SignalEngine::new(WindowSignal::Timeout(Duration::from_millis(100)));
        let t = e.on_packet(&pkt_at(570)).expect("jump");
        assert_eq!(t.ended, 0);
        assert_eq!(t.next, 5);
    }

    #[test]
    fn counter_fires_at_threshold() {
        let mut e = SignalEngine::new(WindowSignal::Counter {
            threshold: 3,
            predicate: None,
        });
        assert!(e.on_packet(&pkt_at(1)).is_none());
        assert!(e.on_packet(&pkt_at(2)).is_none());
        let t = e.on_packet(&pkt_at(3)).expect("third packet fires");
        assert_eq!((t.ended, t.next), (0, 1));
    }

    #[test]
    fn counter_predicate_filters() {
        fn is_syn(p: &Packet) -> bool {
            p.tcp_flags.is_pure_syn()
        }
        let mut e = SignalEngine::new(WindowSignal::Counter {
            threshold: 2,
            predicate: Some(is_syn),
        });
        // ACK packets never fire it.
        for i in 0..10 {
            assert!(e.on_packet(&pkt_at(i)).is_none());
        }
        let mut syn = pkt_at(11);
        syn.tcp_flags = TcpFlags::syn();
        assert!(e.on_packet(&syn).is_none());
        let mut syn2 = pkt_at(12);
        syn2.tcp_flags = TcpFlags::syn();
        assert!(e.on_packet(&syn2).is_some());
    }

    #[test]
    fn session_fires_after_gap() {
        let mut e = SignalEngine::new(WindowSignal::Session(Duration::from_millis(50)));
        assert!(e.on_packet(&pkt_at(0)).is_none());
        assert!(e.on_packet(&pkt_at(30)).is_none());
        assert!(e.on_packet(&pkt_at(60)).is_none()); // gap only 30ms
        let t = e.on_packet(&pkt_at(150)).expect("90ms gap fires");
        assert_eq!((t.ended, t.next), (0, 1));
    }

    #[test]
    fn user_defined_follows_tags() {
        let mut e = SignalEngine::new(WindowSignal::UserDefined);
        let mut p = pkt_at(0);
        p.app_tag = 1;
        assert!(e.on_packet(&p).is_none());
        let mut p2 = pkt_at(1);
        p2.app_tag = 1;
        assert!(e.on_packet(&p2).is_none());
        let mut p3 = pkt_at(2);
        p3.app_tag = 2;
        let t = e.on_packet(&p3).expect("tag change fires");
        assert_eq!(t.next, 2);
        // Stale tag (out-of-order) does not move the window backwards.
        let mut p4 = pkt_at(3);
        p4.app_tag = 1;
        assert!(e.on_packet(&p4).is_none());
        assert_eq!(e.current(), 2);
    }

    #[test]
    fn fast_forward_only_moves_forward() {
        let mut e = SignalEngine::new(WindowSignal::Timeout(Duration::from_millis(100)));
        let t = e.fast_forward(3, Instant::from_millis(250)).expect("jump");
        assert_eq!((t.ended, t.next), (0, 3));
        assert!(e.fast_forward(2, Instant::from_millis(260)).is_none());
        assert_eq!(e.current(), 3);
        // Deadline re-anchored: packet at 390ms stays in sub-window 3.
        assert!(e.on_packet(&pkt_at(390)).is_none());
        // Packet at 400ms crosses into 4.
        assert_eq!(e.on_packet(&pkt_at(400)).unwrap().next, 4);
    }
}
