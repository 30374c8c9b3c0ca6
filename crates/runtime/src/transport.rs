//! Pluggable physical byte transports.
//!
//! The shaped engine in [`crate::channel`] decides *when* each message
//! may move (the paper's port model, in modeled time); a [`Transport`]
//! decides *how* the bytes physically get from the sending thread to the
//! receiving processor. Two backends ship:
//!
//! * [`ChannelTransport`] — in-process: payloads are copied into
//!   per-processor inboxes under a mutex. Zero setup cost, fully
//!   deterministic, used by the cross-validation and property tests.
//! * [`crate::tcp::TcpTransport`] — loopback sockets with one acceptor
//!   thread per processor: genuinely concurrent kernel I/O.
//!
//! Both tally what each processor received (message count, byte count,
//! and an order-independent checksum), so a run can prove that every
//! payload arrived intact regardless of backend.

use crate::error::RuntimeError;
use adaptcomm_model::units::{Bytes, Millis};
use std::sync::Mutex;

/// Physical delivery of one payload. Implementations must be safe to
/// call from many sender threads at once.
pub trait Transport: Sync {
    /// Backend name for traces and CLI output.
    fn name(&self) -> &'static str;

    /// Moves `payload` from `src` to `dst`, blocking until the bytes
    /// have been handed to the destination.
    fn deliver(&self, src: usize, dst: usize, payload: Vec<u8>) -> Result<(), RuntimeError>;

    /// Like [`Transport::deliver`], annotated with the modeled interval
    /// `[start, finish]` the transfer occupies. The shaped engine calls
    /// this variant so that fault-injecting decorators can fail a
    /// delivery based on *when* it lands, not just on which link it
    /// uses. The default ignores the times and delegates to `deliver`.
    fn deliver_timed(
        &self,
        src: usize,
        dst: usize,
        payload: Vec<u8>,
        start: Millis,
        finish: Millis,
    ) -> Result<(), RuntimeError> {
        let _ = (start, finish);
        self.deliver(src, dst, payload)
    }

    /// What each processor has received so far.
    fn receipts(&self) -> Vec<ReceiptSummary>;
}

/// What one processor received over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceiptSummary {
    /// Number of messages delivered to this processor.
    pub messages: usize,
    /// Total payload bytes delivered.
    pub bytes: u64,
    /// Sum of per-message checksums — order-independent, so it is
    /// comparable across backends that deliver in different orders.
    pub checksum: u64,
}

impl ReceiptSummary {
    fn absorb(&mut self, payload: &[u8]) {
        self.messages += 1;
        self.bytes += payload.len() as u64;
        self.checksum = self.checksum.wrapping_add(checksum(payload));
    }
}

/// Deterministic payload for the `(src, dst)` message: the receiver (or
/// a receipt audit) can recompute exactly what should have arrived.
pub fn fill_payload(src: usize, dst: usize, len: usize) -> Vec<u8> {
    let seed = (src as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(dst as u64);
    (0..len)
        .map(|i| {
            (seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                >> 56) as u8
        })
        .collect()
}

/// FNV-1a over the payload.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = adaptcomm_obs::Fnv1a::new();
    h.write(payload);
    h.finish()
}

/// The number of bytes physically moved for a message of modeled size
/// `bytes` under an optional cap.
///
/// Modeled durations always use the full size; the cap only bounds the
/// memory the physical layer copies, so stress tests with 1 MB modeled
/// messages stay cheap.
pub fn physical_len(bytes: Bytes, cap: Option<u64>) -> usize {
    let n = bytes.as_u64();
    cap.map_or(n, |c| n.min(c)) as usize
}

/// The receipts every processor *should* end up with once all messages
/// in `sizes` have been delivered. Every off-diagonal pair counts: a
/// `SendOrder` covers the full all-to-all, and even a zero-byte message
/// is a real (empty) delivery costing its startup time.
pub fn expected_receipts(sizes: &[Vec<Bytes>], cap: Option<u64>) -> Vec<ReceiptSummary> {
    let p = sizes.len();
    let mut out = vec![ReceiptSummary::default(); p];
    for (src, row) in sizes.iter().enumerate() {
        for (dst, &b) in row.iter().enumerate() {
            if src == dst {
                continue;
            }
            let payload = fill_payload(src, dst, physical_len(b, cap));
            out[dst].absorb(&payload);
        }
    }
    out
}

/// In-process transport: delivery is a locked copy into the
/// destination's inbox. The inbox keeps tallies, not payload bodies, so
/// memory stays bounded on long runs.
pub struct ChannelTransport {
    inboxes: Vec<Mutex<ReceiptSummary>>,
}

impl ChannelTransport {
    /// A transport connecting `p` processors.
    pub fn new(p: usize) -> Self {
        ChannelTransport {
            inboxes: (0..p)
                .map(|_| Mutex::new(ReceiptSummary::default()))
                .collect(),
        }
    }
}

impl Transport for ChannelTransport {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn deliver(&self, _src: usize, dst: usize, payload: Vec<u8>) -> Result<(), RuntimeError> {
        let mut inbox = self
            .inboxes
            .get(dst)
            .ok_or_else(|| RuntimeError::Transport {
                detail: format!("destination {dst} out of range"),
            })?
            .lock()
            .map_err(|_| RuntimeError::Transport {
                detail: "inbox mutex poisoned".into(),
            })?;
        inbox.absorb(&payload);
        Ok(())
    }

    fn receipts(&self) -> Vec<ReceiptSummary> {
        self.inboxes
            .iter()
            .map(|m| *m.lock().expect("inbox mutex poisoned"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_deterministic_and_link_specific() {
        assert_eq!(fill_payload(1, 2, 64), fill_payload(1, 2, 64));
        assert_ne!(fill_payload(1, 2, 64), fill_payload(2, 1, 64));
        assert_eq!(fill_payload(0, 1, 0).len(), 0);
    }

    #[test]
    fn channel_transport_tallies_receipts() {
        let t = ChannelTransport::new(3);
        t.deliver(0, 2, fill_payload(0, 2, 10)).unwrap();
        t.deliver(1, 2, fill_payload(1, 2, 5)).unwrap();
        let r = t.receipts();
        assert_eq!(r[2].messages, 2);
        assert_eq!(r[2].bytes, 15);
        assert_eq!(r[0].messages, 0);
        assert!(t.deliver(0, 9, vec![1]).is_err());
    }

    #[test]
    fn expected_receipts_match_actual_delivery() {
        let sizes = vec![
            vec![Bytes::ZERO, Bytes::KB, Bytes::new(10)],
            vec![Bytes::new(7), Bytes::ZERO, Bytes::ZERO],
            vec![Bytes::new(3), Bytes::new(4), Bytes::ZERO],
        ];
        let t = ChannelTransport::new(3);
        for src in 0..3 {
            for dst in 0..3 {
                let b = sizes[src][dst];
                if src != dst {
                    t.deliver(src, dst, fill_payload(src, dst, physical_len(b, None)))
                        .unwrap();
                }
            }
        }
        assert_eq!(t.receipts(), expected_receipts(&sizes, None));
    }

    #[test]
    fn physical_cap_bounds_the_copy_not_the_model() {
        assert_eq!(physical_len(Bytes::MB, Some(4096)), 4096);
        assert_eq!(physical_len(Bytes::new(10), Some(4096)), 10);
        assert_eq!(physical_len(Bytes::MB, None), 1_000_000);
    }
}
