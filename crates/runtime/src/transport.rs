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
use adaptcomm_obs::Fnv1a;
use std::sync::{Mutex, PoisonError};

/// Physical delivery of one payload. Implementations must be safe to
/// call from many sender threads at once.
pub trait Transport: Sync {
    /// Backend name for traces and CLI output.
    fn name(&self) -> &'static str;

    /// Moves `payload` from `src` to `dst`, blocking until the bytes
    /// have been handed to the destination.
    fn deliver(&self, src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError>;

    /// Like [`Transport::deliver`], annotated with the modeled interval
    /// `[start, finish]` the transfer occupies. The shaped engine calls
    /// this variant so that fault-injecting decorators can fail a
    /// delivery based on *when* it lands, not just on which link it
    /// uses. The default ignores the times and delegates to `deliver`.
    fn deliver_timed(
        &self,
        src: usize,
        dst: usize,
        payload: &[u8],
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
    /// Tallies one message of `len` bytes with checksum `checksum`.
    pub(crate) fn add(&mut self, len: usize, checksum: u64) {
        self.messages += 1;
        self.bytes += len as u64;
        self.checksum = self.checksum.wrapping_add(checksum);
    }
}

/// Bytes `8k..8k + 8` of the `(src, dst)` payload, little-endian: the one
/// definition of a payload, eight bytes per multiply.
fn word(src: usize, dst: usize, k: usize) -> u64 {
    (src as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(dst as u64)
        .wrapping_add(k as u64)
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Deterministic payload for the `(src, dst)` message: the receiver (or
/// a receipt audit) can recompute exactly what should have arrived.
pub fn fill_payload(src: usize, dst: usize, len: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    refill_payload(&mut payload, src, dst, len);
    payload
}

/// [`fill_payload`] into `buf`, which a sender reuses for every message.
pub(crate) fn refill_payload(buf: &mut Vec<u8>, src: usize, dst: usize, len: usize) {
    buf.clear();
    buf.resize(len, 0);
    let (words, tail) = buf.as_chunks_mut::<8>();
    for (k, w) in words.iter_mut().enumerate() {
        *w = word(src, dst, k).to_le_bytes();
    }
    let last = word(src, dst, len / 8).to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// FNV-1a over the payload's little-endian 64-bit words
/// ([`Fnv1a::fold_word`]), then its last `len % 8` bytes one at a time.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    let (words, tail) = payload.as_chunks::<8>();
    for w in words {
        h.fold_word(u64::from_le_bytes(*w));
    }
    h.write(tail);
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
            // `checksum(&fill_payload(..))`, streamed: no payload is built.
            let len = physical_len(b, cap);
            let mut h = Fnv1a::new();
            for k in 0..len / 8 {
                h.fold_word(word(src, dst, k));
            }
            h.write(&word(src, dst, len / 8).to_le_bytes()[..len % 8]);
            out[dst].add(len, h.finish());
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

    fn deliver(&self, _src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError> {
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
        inbox.add(payload.len(), checksum(payload));
        Ok(())
    }

    /// A poisoned inbox is read as it stands: a damaged tally fails the
    /// receipt comparison instead of panicking here.
    fn receipts(&self) -> Vec<ReceiptSummary> {
        self.inboxes
            .iter()
            .map(|m| *m.lock().unwrap_or_else(PoisonError::into_inner))
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
        t.deliver(0, 2, &fill_payload(0, 2, 10)).unwrap();
        t.deliver(1, 2, &fill_payload(1, 2, 5)).unwrap();
        let r = t.receipts();
        assert_eq!(r[2].messages, 2);
        assert_eq!(r[2].bytes, 15);
        assert_eq!(r[0].messages, 0);
        assert!(t.deliver(0, 9, &[1]).is_err());
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
                    t.deliver(src, dst, &fill_payload(src, dst, physical_len(b, None)))
                        .unwrap();
                }
            }
        }
        assert_eq!(t.receipts(), expected_receipts(&sizes, None));
    }

    #[test]
    fn the_streamed_tally_is_the_tally_of_the_filled_bytes() {
        let mut reused = fill_payload(3, 4, 70_000);
        for len in (0..=24).chain([65_535, 65_536, 65_537]) {
            for cap in [None, Some(64 * 1024)] {
                let sizes = vec![
                    vec![Bytes::ZERO, Bytes::new(len as u64)],
                    vec![Bytes::new(len as u64 + 5), Bytes::ZERO],
                ];
                let mut by_filling = vec![ReceiptSummary::default(); 2];
                for (src, dst) in [(0, 1), (1, 0)] {
                    let n = physical_len(sizes[src][dst], cap);
                    let payload = fill_payload(src, dst, n);
                    // A worker's reused buffer holds the same bytes.
                    refill_payload(&mut reused, src, dst, n);
                    assert_eq!(reused, payload);
                    by_filling[dst] = ReceiptSummary {
                        messages: 1,
                        bytes: n as u64,
                        checksum: checksum(&payload),
                    };
                }
                assert_eq!(
                    expected_receipts(&sizes, cap),
                    by_filling,
                    "len {len}, cap {cap:?}"
                );
            }
        }
    }

    #[test]
    fn a_poisoned_inbox_is_read_as_it_stands() {
        let t = ChannelTransport::new(2);
        t.deliver(0, 1, &fill_payload(0, 1, 9)).unwrap();
        std::thread::scope(|s| {
            let died = s.spawn(|| {
                let _inbox = t.inboxes[1].lock();
                panic!("a sender died holding the inbox");
            });
            assert!(died.join().is_err());
        });
        assert!(t.inboxes[1].is_poisoned());
        let r = t.receipts();
        assert_eq!((r[1].messages, r[1].bytes), (1, 9));
    }

    #[test]
    fn physical_cap_bounds_the_copy_not_the_model() {
        assert_eq!(physical_len(Bytes::MB, Some(4096)), 4096);
        assert_eq!(physical_len(Bytes::new(10), Some(4096)), 10);
        assert_eq!(physical_len(Bytes::MB, None), 1_000_000);
    }
}
