//! A sharded, multi-tenant front over [`DirectoryService`].
//!
//! The plan server serves many tenants, each with its own view of the
//! network (its own processor set, its own published measurements, its
//! own snapshot epoch). Rather than one global service — a single lock
//! every tenant contends on — tenants are hashed onto a fixed set of
//! shards, and each tenant owns a full [`DirectoryService`] inside its
//! shard. Everything the single-tenant service provides (snapshot
//! epochs, staleness budgets, health tracking, stats) carries over
//! unchanged; the front only adds routing and per-tenant accounting.

use crate::service::{DirectoryService, DirectoryStats};
use adaptcomm_model::params::NetParams;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// FNV-1a over a tenant name; the stable shard router.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Shard {
    tenants: Mutex<BTreeMap<String, Arc<DirectoryService>>>,
}

/// Tenant-sharded directory front: `tenant name → shard → service`.
pub struct ShardedDirectory {
    shards: Vec<Shard>,
}

impl ShardedDirectory {
    /// A front with `shards` shards (at least one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedDirectory {
            shards: (0..shards)
                .map(|_| Shard {
                    tenants: Mutex::new(BTreeMap::new()),
                })
                .collect(),
        }
    }

    /// The shard a tenant routes to (stable across restarts).
    pub fn shard_of(&self, tenant: &str) -> usize {
        (fnv1a(tenant.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The tenant's directory service, if it has published before.
    pub fn tenant(&self, tenant: &str) -> Option<Arc<DirectoryService>> {
        let shard = &self.shards[self.shard_of(tenant)];
        shard
            .tenants
            .lock()
            .expect("shard poisoned")
            .get(tenant)
            .cloned()
    }

    /// The tenant's directory service, created from `initial` on first
    /// use. Subsequent calls ignore `initial` and return the existing
    /// service regardless of dimension — tenants republish through
    /// [`DirectoryService::publish`] to change their view.
    pub fn tenant_or_create(
        &self,
        tenant: &str,
        initial: impl FnOnce() -> NetParams,
    ) -> Arc<DirectoryService> {
        let shard = &self.shards[self.shard_of(tenant)];
        let mut tenants = shard.tenants.lock().expect("shard poisoned");
        tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Arc::new(DirectoryService::new(initial())))
            .clone()
    }

    /// Tenants registered on every shard, in name order.
    pub fn tenants(&self) -> Vec<String> {
        let mut names = Vec::new();
        for shard in &self.shards {
            names.extend(
                shard
                    .tenants
                    .lock()
                    .expect("shard poisoned")
                    .keys()
                    .cloned(),
            );
        }
        names.sort();
        names
    }

    /// Per-tenant directory statistics (publishes, queries, staleness
    /// splits), in tenant-name order — the observability feed the plan
    /// server exports per tenant.
    pub fn per_tenant_stats(&self) -> Vec<(String, DirectoryStats)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (name, service) in shard.tenants.lock().expect("shard poisoned").iter() {
                out.push((name.clone(), service.detailed_stats()));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The tenant's current snapshot epoch (0 if never registered).
    pub fn epoch(&self, tenant: &str) -> u64 {
        self.tenant(tenant)
            .map(|service| service.snapshot().sequence())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_model::units::{Bandwidth, Millis};

    fn params(p: usize) -> NetParams {
        NetParams::uniform(p, Millis::new(1.0), Bandwidth::from_kbps(1000.0))
    }

    #[test]
    fn routing_is_stable_and_total() {
        let front = ShardedDirectory::new(4);
        for name in ["alice", "bob", "carol", "dave", "erin"] {
            let s = front.shard_of(name);
            assert!(s < 4);
            assert_eq!(s, front.shard_of(name), "routing must be deterministic");
        }
        // Zero shards is clamped to one, so routing stays total.
        assert_eq!(ShardedDirectory::new(0).shard_of("alice"), 0);
    }

    #[test]
    fn tenants_are_isolated_but_share_shards() {
        let front = ShardedDirectory::new(2);
        let a = front.tenant_or_create("alice", || params(3));
        let b = front.tenant_or_create("bob", || params(5));
        assert_eq!(a.snapshot().params().len(), 3);
        assert_eq!(b.snapshot().params().len(), 5);
        // Publishing as alice moves only alice's epoch.
        a.publish(params(3));
        assert_eq!(front.epoch("alice"), 1);
        assert_eq!(front.epoch("bob"), 0);
        assert_eq!(front.epoch("nobody"), 0);
        // The same tenant resolves to the same service.
        let a2 = front.tenant_or_create("alice", || params(9));
        assert_eq!(
            a2.snapshot().params().len(),
            3,
            "initial ignored on re-entry"
        );
        assert_eq!(front.tenants(), vec!["alice", "bob"]);
    }

    #[test]
    fn per_tenant_stats_split_by_tenant() {
        let front = ShardedDirectory::new(3);
        let a = front.tenant_or_create("alice", || params(2));
        let b = front.tenant_or_create("bob", || params(2));
        a.publish(params(2));
        a.publish(params(2));
        let _ = b.snapshot();
        let stats = front.per_tenant_stats();
        assert_eq!(stats.len(), 2);
        let alice = &stats.iter().find(|(n, _)| n == "alice").unwrap().1;
        let bob = &stats.iter().find(|(n, _)| n == "bob").unwrap().1;
        assert_eq!(alice.publishes, 2);
        assert_eq!(bob.publishes, 0);
        assert_eq!(bob.queries, 1);
    }

    #[test]
    fn concurrent_tenant_creation_is_safe() {
        let front = std::sync::Arc::new(ShardedDirectory::new(4));
        std::thread::scope(|s| {
            for t in 0..8 {
                let front = front.clone();
                s.spawn(move || {
                    let name = format!("tenant-{}", t % 4);
                    let svc = front.tenant_or_create(&name, || params(4));
                    svc.publish(params(4));
                });
            }
        });
        assert_eq!(front.tenants().len(), 4);
        for (_, stats) in front.per_tenant_stats() {
            assert_eq!(stats.publishes, 2);
        }
    }
}
