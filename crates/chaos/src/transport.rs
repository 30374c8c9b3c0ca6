//! Fault injection at the byte path.

use crate::plan::ChaosPlan;
use adaptcomm_model::units::Millis;
use adaptcomm_runtime::transport::ReceiptSummary;
use adaptcomm_runtime::{RuntimeError, Transport};

/// A [`Transport`] decorator that drops deliveries landing inside a
/// fault window. The shaped engine announces each transfer's modeled
/// `[start, finish]`; a payload whose *finish* falls while its link is
/// crashed or partitioned never reaches the destination — the message
/// was in flight when the fault hit — and the engine surfaces the
/// plan's typed error with the link in `ShapedFailure::lost`, so the
/// recovery driver re-queues it exactly once.
pub struct ChaosTransport<'a, T: Transport + ?Sized> {
    inner: &'a T,
    plan: &'a ChaosPlan,
}

impl<'a, T: Transport + ?Sized> ChaosTransport<'a, T> {
    /// Wraps `inner`, injecting the faults of `plan`.
    pub fn new(inner: &'a T, plan: &'a ChaosPlan) -> Self {
        ChaosTransport { inner, plan }
    }
}

impl<T: Transport + ?Sized> Transport for ChaosTransport<'_, T> {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn deliver(&self, src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError> {
        self.inner.deliver(src, dst, payload)
    }

    fn deliver_timed(
        &self,
        src: usize,
        dst: usize,
        payload: &[u8],
        start: Millis,
        finish: Millis,
    ) -> Result<(), RuntimeError> {
        if let Some(err) = self.plan.blocking_error(src, dst, finish) {
            return Err(err);
        }
        self.inner.deliver_timed(src, dst, payload, start, finish)
    }

    fn receipts(&self) -> Vec<ReceiptSummary> {
        self.inner.receipts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_runtime::ChannelTransport;

    #[test]
    fn deliveries_landing_in_a_fault_window_are_refused() {
        let plan = ChaosPlan::parse(4, "crash:2@100..200").unwrap();
        let inner = ChannelTransport::new(4);
        let chaos = ChaosTransport::new(&inner, &plan);
        chaos
            .deliver_timed(0, 2, &[1; 8], Millis::new(50.0), Millis::new(90.0))
            .expect("a delivery landing before the crash survives");
        let err = chaos
            .deliver_timed(0, 2, &[1; 8], Millis::new(90.0), Millis::new(110.0))
            .expect_err("a delivery landing inside the crash is lost");
        assert!(matches!(
            err,
            RuntimeError::ProcessorCrashed { proc: 2, .. }
        ));
        chaos
            .deliver_timed(3, 1, &[1; 8], Millis::new(90.0), Millis::new(110.0))
            .expect("links not touching the crashed node are unaffected");
        assert_eq!(
            chaos.receipts().iter().map(|r| r.messages).sum::<usize>(),
            2
        );
    }
}
