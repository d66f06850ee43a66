//! Per-tenant token-bucket quotas.
//!
//! Each tenant owns a bucket that refills continuously at `refill_per_sec`
//! up to `capacity`. A submission costs a flat per-job amount plus a
//! per-shot amount, so a tenant can spend its budget on many small jobs or
//! a few large ones. An empty bucket rejects with the exact time until the
//! bucket will hold enough tokens — the retry-after hint the wire protocol
//! hands back to clients. The buckets live in [`Core`](crate::state::Core).

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Quota parameters shared by every tenant (buckets are per-tenant, the
/// policy is global).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuotaPolicy {
    /// Bucket capacity in tokens; also the initial fill of a new tenant.
    pub capacity: f64,
    /// Continuous refill rate, tokens per second.
    pub refill_per_sec: f64,
    /// Flat token cost per submission.
    pub cost_per_job: f64,
    /// Additional token cost per thousand shots.
    pub cost_per_kshot: f64,
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        QuotaPolicy {
            capacity: 1_000.0,
            refill_per_sec: 100.0,
            cost_per_job: 1.0,
            cost_per_kshot: 1.0,
        }
    }
}

impl QuotaPolicy {
    /// An effectively unlimited policy (benchmarks, trusted callers).
    pub fn unlimited() -> Self {
        QuotaPolicy {
            capacity: f64::INFINITY,
            refill_per_sec: f64::INFINITY,
            cost_per_job: 0.0,
            cost_per_kshot: 0.0,
        }
    }

    /// The token cost of a submission with this many shots.
    pub fn cost(&self, shots: u64) -> f64 {
        self.cost_per_job + self.cost_per_kshot * shots as f64 / 1_000.0
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Bucket {
    tokens: f64,
    refilled_at: Instant,
}

/// The tenant → bucket map. Buckets are created full on a tenant's first
/// submission.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TenantQuotas {
    policy: QuotaPolicy,
    buckets: HashMap<String, Bucket>,
}

impl TenantQuotas {
    /// An empty quota table under `policy`.
    pub fn new(policy: QuotaPolicy) -> TenantQuotas {
        TenantQuotas {
            policy,
            buckets: HashMap::new(),
        }
    }

    /// The shared policy.
    pub fn policy(&self) -> &QuotaPolicy {
        &self.policy
    }

    /// Try to spend `cost` tokens from `tenant`'s bucket, refilled to
    /// `now`. On refusal, returns how long until the bucket will have
    /// refilled enough — the retry-after hint.
    pub fn try_acquire(&mut self, tenant: &str, cost: f64, now: Instant) -> Result<(), Duration> {
        if cost <= 0.0 || self.policy.capacity.is_infinite() {
            return Ok(());
        }
        let bucket = self.buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.policy.capacity,
            refilled_at: now,
        });
        let elapsed = now.duration_since(bucket.refilled_at).as_secs_f64();
        bucket.tokens =
            (bucket.tokens + elapsed * self.policy.refill_per_sec).min(self.policy.capacity);
        bucket.refilled_at = now;
        if bucket.tokens >= cost {
            bucket.tokens -= cost;
            return Ok(());
        }
        let missing = cost - bucket.tokens;
        let wait = if self.policy.refill_per_sec > 0.0 {
            Duration::from_secs_f64(missing / self.policy.refill_per_sec)
        } else {
            // Never refills: an honest "don't bother soon" hint.
            Duration::from_secs(3600)
        };
        Err(wait)
    }

    /// Return `cost` tokens to `tenant`'s bucket (a submission that was
    /// admitted by quota but then rejected by the queue is not charged).
    pub fn refund(&mut self, tenant: &str, cost: f64) {
        if cost <= 0.0 {
            return;
        }
        if let Some(bucket) = self.buckets.get_mut(tenant) {
            bucket.tokens = (bucket.tokens + cost).min(self.policy.capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(capacity: f64, refill: f64) -> QuotaPolicy {
        QuotaPolicy {
            capacity,
            refill_per_sec: refill,
            cost_per_job: 1.0,
            cost_per_kshot: 0.0,
        }
    }

    #[test]
    fn fresh_tenants_start_full_and_deplete() {
        let now = Instant::now();
        let mut q = TenantQuotas::new(policy(2.0, 0.0));
        assert!(q.try_acquire("a", 1.0, now).is_ok());
        assert!(q.try_acquire("a", 1.0, now).is_ok());
        let wait = q.try_acquire("a", 1.0, now).unwrap_err();
        assert!(wait >= Duration::from_secs(3600));
        // Tenants are isolated: `b` still has a full bucket.
        assert!(q.try_acquire("b", 2.0, now).is_ok());
    }

    #[test]
    fn retry_after_reflects_refill_rate() {
        let now = Instant::now();
        let mut q = TenantQuotas::new(policy(1.0, 10.0));
        assert!(q.try_acquire("a", 1.0, now).is_ok());
        let wait = q.try_acquire("a", 1.0, now).unwrap_err();
        // Missing 1 token at 10/s → 100ms, and refilled by then.
        assert_eq!(wait, Duration::from_millis(100));
        assert!(q.try_acquire("a", 1.0, now + wait).is_ok());
    }

    #[test]
    fn refunds_restore_tokens() {
        let now = Instant::now();
        let mut q = TenantQuotas::new(policy(1.0, 0.0));
        assert!(q.try_acquire("a", 1.0, now).is_ok());
        q.refund("a", 1.0);
        assert!(q.try_acquire("a", 1.0, now).is_ok());
    }

    #[test]
    fn cost_scales_with_shots() {
        let p = QuotaPolicy::default();
        assert!(p.cost(10_000) > p.cost(10));
        assert_eq!(QuotaPolicy::unlimited().cost(1_000_000), 0.0);
    }
}
