//! Per-connection event tracing.
//!
//! A simulator is only as trustworthy as your ability to see what it
//! did. Tracing can be enabled per connection; the world then records
//! every wire-level event the connection participates in, timestamped,
//! in order. Traces are the ground truth behind the TCP behaviour tests
//! and invaluable when a workload behaves unexpectedly.

use crate::link::LossCause;
use crate::packet::SegIndex;
use crate::time::SimTime;

/// One traced wire/timer event on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The handshake completed; data may flow.
    Established {
        /// When.
        at: SimTime,
    },
    /// A data segment left the sender.
    SegmentSent {
        /// When.
        at: SimTime,
        /// Stream position.
        seq: SegIndex,
        /// Whether it was a retransmission.
        retransmit: bool,
    },
    /// A data segment was dropped by the path.
    SegmentDropped {
        /// When.
        at: SimTime,
        /// Stream position.
        seq: SegIndex,
        /// Why the path dropped it.
        cause: LossCause,
    },
    /// A data segment reached the receiver.
    SegmentDelivered {
        /// When.
        at: SimTime,
        /// Stream position.
        seq: SegIndex,
    },
    /// A cumulative ACK reached the sender.
    AckDelivered {
        /// When.
        at: SimTime,
        /// Acknowledged frontier.
        cum_ack: SegIndex,
        /// Sender congestion window after processing, in segments.
        cwnd_after: u32,
    },
    /// The retransmission timer fired (and was current).
    RtoFired {
        /// When.
        at: SimTime,
    },
    /// A transfer completed.
    TransferCompleted {
        /// When.
        at: SimTime,
        /// Payload size.
        bytes: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Established { at }
            | TraceEvent::SegmentSent { at, .. }
            | TraceEvent::SegmentDropped { at, .. }
            | TraceEvent::SegmentDelivered { at, .. }
            | TraceEvent::AckDelivered { at, .. }
            | TraceEvent::RtoFired { at }
            | TraceEvent::TransferCompleted { at, .. } => at,
        }
    }
}

/// An ordered trace of one connection's events.
#[derive(Debug, Clone, Default)]
pub struct ConnTrace {
    events: Vec<TraceEvent>,
}

impl ConnTrace {
    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of sent segments (including retransmissions).
    pub fn segments_sent(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SegmentSent { .. }))
            .count()
    }

    /// Count of dropped segments.
    pub fn segments_dropped(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SegmentDropped { .. }))
            .count()
    }

    /// Renders a human-readable log, one line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let line = match *e {
                TraceEvent::Established { at } => format!("{at} ESTABLISHED"),
                TraceEvent::SegmentSent {
                    at,
                    seq,
                    retransmit,
                } => format!(
                    "{at} SEND seq={seq}{}",
                    if retransmit { " (retransmit)" } else { "" }
                ),
                TraceEvent::SegmentDropped { at, seq, cause } => format!(
                    "{at} DROP seq={seq} ({})",
                    match cause {
                        LossCause::Random => "random loss",
                        LossCause::Overflow => "queue overflow",
                        LossCause::Aqm => "AQM early drop",
                    }
                ),
                TraceEvent::SegmentDelivered { at, seq } => {
                    format!("{at} DELIVER seq={seq}")
                }
                TraceEvent::AckDelivered {
                    at,
                    cum_ack,
                    cwnd_after,
                } => format!("{at} ACK cum={cum_ack} cwnd={cwnd_after}"),
                TraceEvent::RtoFired { at } => format!("{at} RTO"),
                TraceEvent::TransferCompleted { at, bytes } => {
                    format!("{at} COMPLETE bytes={bytes}")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_render() {
        let mut t = ConnTrace::default();
        assert!(t.is_empty());
        t.push(TraceEvent::Established {
            at: SimTime::from_millis(50),
        });
        t.push(TraceEvent::SegmentSent {
            at: SimTime::from_millis(51),
            seq: 0,
            retransmit: false,
        });
        t.push(TraceEvent::SegmentDropped {
            at: SimTime::from_millis(51),
            seq: 1,
            cause: LossCause::Random,
        });
        t.push(TraceEvent::SegmentSent {
            at: SimTime::from_millis(200),
            seq: 1,
            retransmit: true,
        });
        assert_eq!(t.len(), 4);
        assert_eq!(t.segments_sent(), 2);
        assert_eq!(t.segments_dropped(), 1);
        let log = t.render();
        assert!(log.contains("SEND seq=0"));
        assert!(log.contains("(retransmit)"));
        assert!(log.contains("random loss"));
    }

    #[test]
    fn timestamps_accessible() {
        let e = TraceEvent::RtoFired {
            at: SimTime::from_secs(3),
        };
        assert_eq!(e.at(), SimTime::from_secs(3));
    }
}
