//! The paper's two-parameter analytic communication model (§3.2).
//!
//! Network performance between a processor pair `(P_i, P_j)` is captured
//! by a start-up cost `T_ij` and a data transmission rate `B_ij`; the time
//! for an `m`-byte message is `T_ij + m / B_ij`. The two parameters
//! abstractly represent the total time for traversing *all* links on the
//! path between the nodes — topology, routing and flow control are
//! invisible at the application layer.

use crate::params::NetParams;
use crate::units::{Bandwidth, Bytes, Millis};

/// The per-pair link estimate `(T_ij, B_ij)` as published by a directory
/// service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEstimate {
    /// Start-up cost `T_ij` (paper: typically 10–50 ms in metacomputing
    /// systems).
    pub startup: Millis,
    /// End-to-end data transmission rate `B_ij` (paper: kb/s to hundreds
    /// of Mb/s).
    pub bandwidth: Bandwidth,
}

impl LinkEstimate {
    /// Creates an estimate from a start-up cost and bandwidth.
    pub fn new(startup: Millis, bandwidth: Bandwidth) -> Self {
        assert!(
            startup.as_ms().is_finite() && startup.as_ms() >= 0.0,
            "start-up cost must be finite and non-negative, got {}",
            startup.as_ms()
        );
        LinkEstimate { startup, bandwidth }
    }

    /// Time for an `m`-byte message over this link: `T + m/B`.
    #[inline]
    pub fn message_time(&self, m: Bytes) -> Millis {
        self.startup + self.bandwidth.transfer_time(m)
    }
}

/// A cost model maps `(sender, receiver, message size)` to a predicted
/// transfer time. The basic model is the paper's `T_ij + m/B_ij`;
/// decorated models implement the §6.1 extensions.
pub trait CostModel {
    /// Number of processors the model covers.
    fn len(&self) -> usize;

    /// True if the model covers zero processors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predicted time for sending `m` bytes from `src` to `dst`.
    ///
    /// By the paper's convention, a local transfer (`src == dst`) is a
    /// memory copy with negligible cost and must return zero.
    fn message_time(&self, src: usize, dst: usize, m: Bytes) -> Millis;
}

impl CostModel for NetParams {
    fn len(&self) -> usize {
        self.len()
    }

    fn message_time(&self, src: usize, dst: usize, m: Bytes) -> Millis {
        if src == dst {
            return Millis::ZERO;
        }
        self.estimate(src, dst).message_time(m)
    }
}

/// §6.1 model extension: receivers multiplex up to `fan_in` simultaneous
/// incoming messages, paying a context-switching overhead `α` — receiving
/// two messages of times `t1`, `t2` together costs `(1+α)(t1+t2)`.
///
/// The decorated `message_time` is unchanged (the overhead applies only
/// when the *simulator* overlaps receives); this type carries the α
/// parameter alongside the base model so schedulers and simulators agree
/// on it.
#[derive(Debug, Clone)]
pub struct InterleavedModel<M> {
    /// The underlying pairwise model.
    pub base: M,
    /// Context-switch overhead fraction `α ≥ 0`.
    pub alpha: f64,
    /// Maximum simultaneous receives a node supports (≥ 1). A value of 1
    /// degenerates to the paper's base model.
    pub fan_in: usize,
}

impl<M: CostModel> InterleavedModel<M> {
    /// Wraps a base model with interleaving parameters.
    pub fn new(base: M, alpha: f64, fan_in: usize) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be ≥ 0");
        assert!(fan_in >= 1, "fan_in must be ≥ 1");
        InterleavedModel {
            base,
            alpha,
            fan_in,
        }
    }

    /// Cost of receiving a batch of messages concurrently:
    /// `(1+α)·Σ t_k` if the batch exceeds one message, `t_1` otherwise.
    pub fn batch_receive_time(&self, individual: &[Millis]) -> Millis {
        let sum: Millis = individual.iter().copied().sum();
        if individual.len() <= 1 {
            sum
        } else {
            sum * (1.0 + self.alpha)
        }
    }
}

impl<M: CostModel> CostModel for InterleavedModel<M> {
    fn len(&self) -> usize {
        self.base.len()
    }

    fn message_time(&self, src: usize, dst: usize, m: Bytes) -> Millis {
        self.base.message_time(src, dst, m)
    }
}

/// §6.1 model extension: each receiver has a finite staging buffer.
/// A sender completes as soon as its message is *stored* in the buffer;
/// the receive into the application drains the buffer later. A full
/// buffer blocks senders.
#[derive(Debug, Clone)]
pub struct BufferedModel<M> {
    /// The underlying pairwise model.
    pub base: M,
    /// Per-receiver staging buffer capacity in bytes.
    pub buffer_capacity: Bytes,
    /// Rate at which the application drains the buffer, as a bandwidth.
    pub drain_rate: Bandwidth,
}

impl<M: CostModel> BufferedModel<M> {
    /// Wraps a base model with receiver-buffer parameters.
    pub fn new(base: M, buffer_capacity: Bytes, drain_rate: Bandwidth) -> Self {
        BufferedModel {
            base,
            buffer_capacity,
            drain_rate,
        }
    }
}

impl<M: CostModel> CostModel for BufferedModel<M> {
    fn len(&self) -> usize {
        self.base.len()
    }

    fn message_time(&self, src: usize, dst: usize, m: Bytes) -> Millis {
        self.base.message_time(src, dst, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetParams;

    fn two_node_params() -> NetParams {
        let mut p = NetParams::uniform(2, Millis::new(10.0), Bandwidth::from_kbps(800.0));
        p.set_estimate(
            0,
            1,
            LinkEstimate::new(Millis::new(5.0), Bandwidth::from_kbps(400.0)),
        );
        p
    }

    #[test]
    fn link_estimate_message_time_is_startup_plus_transfer() {
        let e = LinkEstimate::new(Millis::new(12.0), Bandwidth::from_kbps(1_000.0));
        // 1 kB = 8000 bits over 1000 kbit/s = 8 ms, plus 12 ms startup.
        assert!((e.message_time(Bytes::KB).as_ms() - 20.0).abs() < 1e-9);
        // Zero-byte message costs just the startup.
        assert_eq!(e.message_time(Bytes::ZERO).as_ms(), 12.0);
    }

    #[test]
    #[should_panic(expected = "start-up cost")]
    fn negative_startup_rejected() {
        let _ = LinkEstimate::new(Millis::new(-1.0), Bandwidth::from_kbps(1.0));
    }

    #[test]
    fn netparams_local_transfer_is_free() {
        let p = two_node_params();
        assert_eq!(p.message_time(0, 0, Bytes::MB), Millis::ZERO);
        assert_eq!(p.message_time(1, 1, Bytes::MB), Millis::ZERO);
    }

    #[test]
    fn netparams_uses_directional_estimate() {
        let p = two_node_params();
        // 0→1 overridden to 5ms + 8000/400 = 25 ms.
        assert!((p.message_time(0, 1, Bytes::KB).as_ms() - 25.0).abs() < 1e-9);
        // 1→0 keeps the uniform 10ms + 8000/800 = 20 ms.
        assert!((p.message_time(1, 0, Bytes::KB).as_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_batch_cost() {
        let m = InterleavedModel::new(two_node_params(), 0.25, 4);
        let t = m.batch_receive_time(&[Millis::new(8.0), Millis::new(12.0)]);
        assert!((t.as_ms() - 25.0).abs() < 1e-9); // (1+0.25)*(8+12)
        let single = m.batch_receive_time(&[Millis::new(8.0)]);
        assert_eq!(single.as_ms(), 8.0); // no overhead for a lone receive
        assert_eq!(m.batch_receive_time(&[]).as_ms(), 0.0);
    }

    #[test]
    fn decorated_models_delegate_point_cost() {
        let p = two_node_params();
        let want = p.message_time(0, 1, Bytes::KB);
        let inter = InterleavedModel::new(p.clone(), 0.1, 2);
        let buf = BufferedModel::new(p.clone(), Bytes::MB, Bandwidth::from_kbps(1e6));
        assert_eq!(inter.message_time(0, 1, Bytes::KB), want);
        assert_eq!(buf.message_time(0, 1, Bytes::KB), want);
        assert_eq!(inter.len(), 2);
        assert_eq!(buf.len(), 2);
        assert!(!inter.is_empty());
    }

    #[test]
    #[should_panic(expected = "fan_in")]
    fn interleaved_requires_fan_in() {
        let _ = InterleavedModel::new(two_node_params(), 0.1, 0);
    }
}
