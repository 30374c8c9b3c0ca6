//! Cross-process trace context: deterministic ids that let spans from
//! different processes be stitched into one request tree.
//!
//! A [`TraceContext`] is a `(trace_id, span_id)` pair plus the span's
//! parent. Ids are **derived, not drawn**: the root is an FNV-1a hash
//! of `(tenant, seq)` and every child id is a hash of `(trace_id,
//! parent span_id, slot)`, so the same request always produces the
//! same tree on every run — a test (or a human) can recompute the ids
//! two processes' captures must contain without any side channel.
//!
//! On the wire ids travel as 16-hex-digit strings (the same convention
//! as plan fingerprints): JSON numbers are f64 and silently lose u64
//! precision.

use crate::fnv::Fnv1a;

/// FNV-1a over the concatenation of `parts`.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv1a::new();
    parts.iter().for_each(|part| h.write(part));
    h.finish()
}

/// A span's position in a cross-process request tree: which trace it
/// belongs to, its own id, and its parent's id (`None` for the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The request's trace id, shared by every span in the tree.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span's id (`None` for the root span).
    pub parent_id: Option<u64>,
}

impl TraceContext {
    /// The deterministic root context for request `seq` of `tenant`.
    /// Ids are never zero (zero is reserved as "absent" on the wire).
    pub fn root(tenant: &str, seq: u64) -> TraceContext {
        let h = fnv1a(&[b"trace:", tenant.as_bytes(), b":", &seq.to_le_bytes()]);
        let trace_id = nonzero(h);
        let span_id = nonzero(fnv1a(&[&trace_id.to_le_bytes(), b"root"]));
        TraceContext {
            trace_id,
            span_id,
            parent_id: None,
        }
    }

    /// The deterministic child context at `slot` under this span.
    /// Distinct slots give distinct ids; the same slot always gives the
    /// same id.
    pub fn child(&self, slot: u64) -> TraceContext {
        let (trace, span) = (self.trace_id.to_le_bytes(), self.span_id.to_le_bytes());
        let h = fnv1a(&[&trace, &span, &slot.to_le_bytes()]);
        TraceContext {
            trace_id: self.trace_id,
            span_id: nonzero(h),
            parent_id: Some(self.span_id),
        }
    }

    /// Rebuilds a context from wire ids (parent unknown — the receiving
    /// process only ever derives children from it).
    pub fn from_wire(trace_id: u64, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id,
            span_id,
            parent_id: None,
        }
    }
}

fn nonzero(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

/// Formats an id as the 16-hex-digit wire form.
pub fn id_to_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses the 16-hex-digit wire form back to an id. Rejects anything
/// that is not exactly 16 hex digits.
pub fn id_from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_deterministic_and_tenant_separated() {
        let a = TraceContext::root("tenant-a", 0);
        assert_eq!(a, TraceContext::root("tenant-a", 0));
        assert_ne!(a.trace_id, TraceContext::root("tenant-b", 0).trace_id);
        assert_ne!(a.trace_id, TraceContext::root("tenant-a", 1).trace_id);
        assert!(a.trace_id != 0 && a.span_id != 0);
        assert_eq!(a.parent_id, None);
    }

    #[test]
    fn children_chain_deterministically() {
        let root = TraceContext::root("t", 7);
        let c1 = root.child(1);
        let c2 = root.child(2);
        assert_eq!(c1, root.child(1));
        assert_ne!(c1.span_id, c2.span_id);
        assert_eq!(c1.trace_id, root.trace_id);
        assert_eq!(c1.parent_id, Some(root.span_id));
        let grandchild = c1.child(1);
        assert_eq!(grandchild.parent_id, Some(c1.span_id));
        assert_ne!(grandchild.span_id, c1.span_id);
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let id = TraceContext::root("t", 3).trace_id;
        let hex = id_to_hex(id);
        assert_eq!(hex.len(), 16);
        assert_eq!(id_from_hex(&hex), Some(id));
        assert_eq!(id_from_hex("abc"), None);
        assert_eq!(id_from_hex("00000000000000zz"), None);
        assert_eq!(id_from_hex("00000000000000001"), None);
    }

    #[test]
    fn from_wire_children_match_the_sender_derivation() {
        // The receiving process reconstructs the context from the two
        // wire ids; children it derives must match what the sender
        // would derive from the full context.
        let root = TraceContext::root("tenant", 9);
        let rebuilt = TraceContext::from_wire(root.trace_id, root.span_id);
        assert_eq!(rebuilt.child(1).span_id, root.child(1).span_id);
        assert_eq!(rebuilt.child(1).parent_id, Some(root.span_id));
    }
}
