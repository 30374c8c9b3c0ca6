//! Networks whose state evolves over (modeled) time.
//!
//! §6.3 prices each transfer "from the network state at its start"; the
//! price is one multiply-add on one link's `(T_ij, B_ij)`. A
//! [`NetworkEvolution`] therefore answers for *one link at one instant*,
//! and the whole `P×P` table — which only a replan or a fault probe needs
//! — is derived from that read in one place, [`NetworkEvolution::table_at`].

use crate::cost::LinkEstimate;
use crate::params::NetParams;
use crate::units::Millis;

/// A network whose live state is a function of time.
///
/// # Contract
///
/// * **Clock.** Callers query non-decreasing instants: executors price
///   transfers in modeled-time order. A read costs `O(1)` amortised over
///   such a sequence (`O(#events)` for a fault plan that is scanned).
/// * **Rewinding.** An implementor that *accumulates* state as time
///   passes ([`crate::variation::VariationTrace`]'s random walk, a fault
///   script's cursor) is forward-only: asked about an instant earlier
///   than one it has already answered for, it reports the latest state it
///   reached. An implementor that is a pure function of `t` (a frozen
///   table, a windowed fault plan) answers for the instant asked, in any
///   order.
/// * **Diagonal.** [`link_at`](Self::link_at) is total: `src == dst`
///   returns the implementor's diagonal entry and never panics. The cost
///   model never consults it (local copies are free).
/// * **One state.** At any one instant the per-link read and the derived
///   table agree cell for cell; neither is allowed a second opinion.
pub trait NetworkEvolution {
    /// Number of processors.
    fn processors(&self) -> usize;

    /// The estimates the directory reported at scheduling time.
    fn planning_estimates(&self) -> &NetParams;

    /// The live estimate of the directed link `src → dst` at time `t`.
    fn link_at(&mut self, t: Millis, src: usize, dst: usize) -> LinkEstimate;

    /// The whole live table at time `t` — every cell is
    /// [`link_at`](Self::link_at). `O(P²)` reads: for consumers that
    /// genuinely need every link (a replan's fresh snapshot, a fault
    /// probe's reachability analysis), never for pricing one transfer.
    fn table_at(&mut self, t: Millis) -> NetParams {
        NetParams::from_fn(self.processors(), |src, dst| self.link_at(t, src, dst))
    }
}
