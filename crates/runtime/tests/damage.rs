//! Receipts catch damaged payloads: a decorator transport damages the
//! bytes of one link's message on their way to the destination, and the
//! tally the destination keeps must then differ from the expected one
//! (`expected_receipts`, the comparison behind `RunReport::receipts_ok`),
//! on both backends.

use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_runtime::channel::{run_shaped, CheckpointAction, FrozenNetwork, ShapedConfig};
use adaptcomm_runtime::transport::{expected_receipts, ChannelTransport, ReceiptSummary};
use adaptcomm_runtime::{RuntimeError, TcpTransport, Transport};

const P: usize = 3;
/// Physical length of every message: two whole words and a 4-byte tail.
const LEN: usize = 20;
/// The one link whose message is damaged.
const LINK: (usize, usize) = (0, 1);

#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Flip every bit of the byte at this offset.
    Flip(usize),
    DropLast,
    /// Swap 8-byte words `a` and `b`.
    SwapWords(usize, usize),
}

const DAMAGES: [Damage; 6] = [
    Damage::Flip(0),
    Damage::Flip(7),
    Damage::Flip(8),
    Damage::Flip(LEN - 1),
    Damage::DropLast,
    Damage::SwapWords(0, 1),
];

/// Delivers every payload through `inner`, `LINK`'s damaged.
struct Damaging<T> {
    inner: T,
    damage: Option<Damage>,
}

impl<T: Transport> Transport for Damaging<T> {
    fn name(&self) -> &'static str {
        "damaging"
    }

    fn deliver(&self, src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError> {
        let Some(damage) = self.damage.filter(|_| (src, dst) == LINK) else {
            return self.inner.deliver(src, dst, payload);
        };
        let mut bytes = payload.to_vec();
        match damage {
            Damage::Flip(at) => bytes[at] ^= 0xff,
            Damage::DropLast => {
                bytes.pop();
            }
            Damage::SwapWords(a, b) => {
                let (wa, wb) = (8 * a..8 * a + 8, 8 * b..8 * b + 8);
                assert_ne!(bytes[wa.clone()], bytes[wb.clone()], "distinct words");
                let first = bytes[wa.clone()].to_vec();
                bytes.copy_within(wb.clone(), wa.start);
                bytes[wb].copy_from_slice(&first);
            }
        }
        self.inner.deliver(src, dst, &bytes)
    }

    fn receipts(&self) -> Vec<ReceiptSummary> {
        self.inner.receipts()
    }
}

fn sizes() -> Vec<Vec<Bytes>> {
    (0..P)
        .map(|s| {
            (0..P)
                .map(|d| {
                    if s == d {
                        Bytes::ZERO
                    } else {
                        Bytes::new(LEN as u64)
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the all-to-all over `transport` through the shaped engine.
fn run<T: Transport>(transport: &Damaging<T>) {
    let net = NetParams::from_fn(P, |_, _| {
        LinkEstimate::new(Millis::new(1.0), Bandwidth::from_kbps(800.0))
    });
    let lists: Vec<Vec<usize>> = (0..P)
        .map(|s| (1..P).map(|k| (s + k) % P).collect())
        .collect();
    run_shaped(
        &lists,
        &sizes(),
        &mut FrozenNetwork(net),
        transport,
        ShapedConfig::default(),
        |_| CheckpointAction::Continue,
    )
    .expect("the network is healthy; only bytes are damaged");
}

/// The destination's tally after a channel run under `damage`.
fn channel_receipts(damage: Option<Damage>) -> Vec<ReceiptSummary> {
    let transport = Damaging {
        inner: ChannelTransport::new(P),
        damage,
    };
    run(&transport);
    transport.receipts()
}

/// The same over loopback TCP, whose acceptors tally what they read.
fn tcp_receipts(damage: Option<Damage>) -> Vec<ReceiptSummary> {
    let transport = Damaging {
        inner: TcpTransport::new(P).expect("bind loopback"),
        damage,
    };
    run(&transport);
    transport.inner.finish().expect("clean shutdown")
}

fn assert_caught(got: &[ReceiptSummary], damage: Damage, backend: &str) {
    let expected = expected_receipts(&sizes(), None);
    assert_ne!(got, expected, "{backend}: {damage:?} went unnoticed");
    let (want, seen) = (expected[LINK.1], got[LINK.1]);
    assert_eq!(seen.messages, want.messages, "{backend}: {damage:?}");
    if let Damage::DropLast = damage {
        assert_eq!(seen.bytes, want.bytes - 1, "{backend}");
    } else {
        // Same count and length: only the checksum can tell.
        assert_eq!(seen.bytes, want.bytes, "{backend}: {damage:?}");
        assert_ne!(seen.checksum, want.checksum, "{backend}: {damage:?}");
    }
}

#[test]
fn undamaged_runs_verify_on_both_backends() {
    let expected = expected_receipts(&sizes(), None);
    assert_eq!(channel_receipts(None), expected);
    assert_eq!(tcp_receipts(None), expected);
}

#[test]
fn every_damage_fails_the_channel_tally() {
    for damage in DAMAGES {
        assert_caught(&channel_receipts(Some(damage)), damage, "channel");
    }
}

#[test]
fn every_damage_fails_the_tcp_receivers_tally() {
    for damage in DAMAGES {
        assert_caught(&tcp_receipts(Some(damage)), damage, "tcp");
    }
}
