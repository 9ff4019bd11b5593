//! The payment ledger.
//!
//! AMT pays the posted reward when a worker submits a completed HIT; the
//! requester's spend is the number of paid assignments times the reward.
//! The ledger records per-worker earnings and exposes the accounting
//! invariants the integration tests check (total spend = Σ earnings).

use std::collections::BTreeMap;

use crate::hit::HitId;

/// Per-worker earnings and requester spend, in cents.
#[derive(Debug, Clone, Default)]
pub struct PaymentLedger {
    /// Earnings per external worker id.
    earnings: BTreeMap<String, u64>,
    /// Paid `(worker, hit)` submissions, for audit.
    payments: Vec<(String, HitId, u32)>,
}

impl PaymentLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pays `reward_cents` to `worker` for submitting `hit`.
    pub fn pay(&mut self, worker: &str, hit: HitId, reward_cents: u32) {
        *self.earnings.entry(worker.to_owned()).or_insert(0) += u64::from(reward_cents);
        self.payments.push((worker.to_owned(), hit, reward_cents));
    }

    /// Total earnings of `worker`, in cents.
    pub fn earnings(&self, worker: &str) -> u64 {
        self.earnings.get(worker).copied().unwrap_or(0)
    }

    /// Total requester spend, in cents.
    pub fn total_spend(&self) -> u64 {
        self.payments.iter().map(|&(_, _, c)| u64::from(c)).sum()
    }

    /// Number of paid submissions.
    pub fn num_payments(&self) -> usize {
        self.payments.len()
    }

    /// Iterates over `(worker, earnings_cents)` pairs, workers sorted.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.earnings.iter().map(|(w, &c)| (w.as_str(), c))
    }

    /// The audit trail of individual payments.
    pub fn payments(&self) -> &[(String, HitId, u32)] {
        &self.payments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payments_accumulate_per_worker() {
        let mut ledger = PaymentLedger::new();
        ledger.pay("A", HitId(0), 10);
        ledger.pay("B", HitId(0), 10);
        ledger.pay("A", HitId(1), 10);
        assert_eq!(ledger.earnings("A"), 20);
        assert_eq!(ledger.earnings("B"), 10);
        assert_eq!(ledger.earnings("C"), 0);
        assert_eq!(ledger.total_spend(), 30);
        assert_eq!(ledger.num_payments(), 3);
    }

    #[test]
    fn spend_equals_sum_of_earnings() {
        let mut ledger = PaymentLedger::new();
        for i in 0..20u32 {
            ledger.pay(&format!("W{}", i % 7), HitId(i), 10);
        }
        let sum: u64 = ledger.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, ledger.total_spend());
    }
}
