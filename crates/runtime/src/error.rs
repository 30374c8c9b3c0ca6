//! Typed runtime failures.

use adaptcomm_model::units::Millis;
use std::fmt;

/// Why a live run failed.
///
/// Unlike the simulator — where a degraded link just makes a transfer
/// slow — a real transport can *lose* a message outright. Losses surface
/// here as typed errors carrying the failing link, so a driver can
/// reschedule around it and retry.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The message was dropped: at send time the link's effective
    /// bandwidth was at or below the backend's dead-link threshold.
    MessageDropped {
        /// Sending processor of the failed transfer.
        src: usize,
        /// Receiving processor of the failed transfer.
        dst: usize,
        /// Modeled time at which the drop was detected.
        at: Millis,
    },
    /// The destination (or source) processor crashed while the message
    /// was in flight or about to be granted. The traffic is recoverable
    /// once the processor restarts, so the error carries the link.
    ProcessorCrashed {
        /// The crashed processor.
        proc: usize,
        /// Sending processor of the failed transfer.
        src: usize,
        /// Receiving processor of the failed transfer.
        dst: usize,
        /// Modeled time at which the crash was observed.
        at: Millis,
    },
    /// The link crosses an active network partition: neither endpoint
    /// can reach the other until the partition heals.
    LinkPartitioned {
        /// Sending processor of the failed transfer.
        src: usize,
        /// Receiving processor of the failed transfer.
        dst: usize,
        /// Modeled time at which the partition was observed.
        at: Millis,
    },
    /// The live estimate for a link is not a finite number — a poisoned
    /// network model, not a slow link. Rescheduling cannot fix it, so
    /// [`RuntimeError::link`] deliberately returns `None`.
    CorruptEstimate {
        /// Sending processor of the affected link.
        src: usize,
        /// Receiving processor of the affected link.
        dst: usize,
        /// Modeled time at which the corrupt estimate was read.
        at: Millis,
        /// The offending value, e.g. a NaN bandwidth.
        detail: String,
    },
    /// A transport-level failure outside the fault model (socket error,
    /// worker panic, truncated frame).
    Transport {
        /// Human-readable description.
        detail: String,
    },
}

impl RuntimeError {
    /// The failing link, when the error identifies one that a driver can
    /// reschedule around and retry. Corrupt estimates are excluded: a
    /// NaN in the network model poisons every plan equally.
    pub fn link(&self) -> Option<(usize, usize)> {
        match *self {
            RuntimeError::MessageDropped { src, dst, .. }
            | RuntimeError::ProcessorCrashed { src, dst, .. }
            | RuntimeError::LinkPartitioned { src, dst, .. } => Some((src, dst)),
            RuntimeError::CorruptEstimate { .. } | RuntimeError::Transport { .. } => None,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::MessageDropped { src, dst, at } => {
                write!(f, "message {src} -> {dst} dropped at {at} (link down)")
            }
            RuntimeError::ProcessorCrashed { proc, src, dst, at } => {
                write!(
                    f,
                    "message {src} -> {dst} failed at {at}: processor {proc} crashed"
                )
            }
            RuntimeError::LinkPartitioned { src, dst, at } => {
                write!(f, "message {src} -> {dst} failed at {at}: link partitioned")
            }
            RuntimeError::CorruptEstimate {
                src,
                dst,
                at,
                detail,
            } => {
                write!(
                    f,
                    "corrupt estimate for link {src} -> {dst} at {at}: {detail}"
                )
            }
            RuntimeError::Transport { detail } => write!(f, "transport failure: {detail}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_extraction_and_display() {
        let e = RuntimeError::MessageDropped {
            src: 2,
            dst: 5,
            at: Millis::new(100.0),
        };
        assert_eq!(e.link(), Some((2, 5)));
        assert!(format!("{e}").contains("2 -> 5"));
        let t = RuntimeError::Transport {
            detail: "connection refused".into(),
        };
        assert_eq!(t.link(), None);
        assert!(format!("{t}").contains("refused"));
    }

    #[test]
    fn fault_variants_carry_their_link() {
        let c = RuntimeError::ProcessorCrashed {
            proc: 3,
            src: 3,
            dst: 1,
            at: Millis::new(50.0),
        };
        assert_eq!(c.link(), Some((3, 1)));
        assert!(format!("{c}").contains("processor 3 crashed"));
        let p = RuntimeError::LinkPartitioned {
            src: 0,
            dst: 4,
            at: Millis::new(12.0),
        };
        assert_eq!(p.link(), Some((0, 4)));
        assert!(format!("{p}").contains("partitioned"));
    }

    #[test]
    fn corrupt_estimate_is_not_retryable() {
        let e = RuntimeError::CorruptEstimate {
            src: 1,
            dst: 2,
            at: Millis::new(5.0),
            detail: "bandwidth NaN".into(),
        };
        assert_eq!(e.link(), None, "replanning cannot fix a poisoned model");
        assert!(format!("{e}").contains("NaN"));
    }
}
