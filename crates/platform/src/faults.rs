//! Seedable fault injection for the simulated marketplace.
//!
//! The paper's adaptive assigner exists precisely because AMT is
//! unreliable: workers vanish mid-HIT, submissions get lost or arrive
//! late, and answer streams contain duplicates. A [`FaultPlan`] injects
//! exactly those failure modes into [`crate::market::Marketplace`] runs —
//! deterministically under a seed, so every chaos run is reproducible and
//! regressions bisect cleanly:
//!
//! * **drop** — the worker answers but the submission is lost in
//!   transit; the server never sees it and the assignment lease must
//!   expire before the task is reassignable.
//! * **duplicate** — an accepted submission is delivered a second time;
//!   the server must reject the copy so each answer is recorded and paid
//!   at most once.
//! * **late** — the answer arrives a bounded number of ticks after the
//!   assignment, possibly after the lease expired or the task reached
//!   consensus; the server must reject stale deliveries.
//! * **stall** — the worker holds her assignment forever and never
//!   returns (a no-show); only lease reclamation frees the capacity.
//! * **churn spikes** — a fraction of the crowd departs at a given tick,
//!   modelling mass abandonment.
//!
//! Decisions come from a [`DecisionStream`], a counter-keyed splitmix64
//! stream, *not* a shared mutable RNG: given the same event sequence
//! (the marketplace loop is deterministic) every decision is identical
//! run to run, and a plan with all rates at zero takes exactly the
//! no-fault code paths, keeping fault-free runs bit-identical to a run
//! without any plan at all.

/// A crowd-departure spike: at tick `at`, each not-yet-departed worker
/// leaves with probability `fraction`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpike {
    /// The tick at (or after) which the spike applies.
    pub at: u64,
    /// The probability that a worker departs, in `[0, 1]`.
    pub fraction: f64,
}

/// Configuration of the fault injector. All rates are per-event
/// probabilities in `[0, 1]`; the default injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Probability that a submitted answer is lost in transit.
    pub drop_rate: f64,
    /// Probability that an accepted answer is delivered a second time.
    pub dup_rate: f64,
    /// Probability that an answer is delayed rather than delivered
    /// immediately.
    pub late_rate: f64,
    /// Maximum delay of a late answer, in ticks (delays are drawn
    /// uniformly from `1..=late_max_ticks`).
    pub late_max_ticks: u64,
    /// Probability that a worker stalls on an assignment (holds it
    /// forever and never returns).
    pub stall_rate: f64,
    /// Departure spikes, evaluated per worker at her first turn at or
    /// after each spike's tick.
    pub churn: Vec<ChurnSpike>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            dup_rate: 0.0,
            late_rate: 0.0,
            late_max_ticks: 8,
            stall_rate: 0.0,
            churn: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// Validates rate ranges.
    ///
    /// # Errors
    /// Returns a human-readable message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let unit = |name: &str, v: f64| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must lie in [0, 1], got {v}"))
            }
        };
        unit("drop rate", self.drop_rate)?;
        unit("dup rate", self.dup_rate)?;
        unit("late rate", self.late_rate)?;
        unit("stall rate", self.stall_rate)?;
        for c in &self.churn {
            unit("churn fraction", c.fraction)?;
        }
        if self.late_max_ticks == 0 {
            return Err("late_max_ticks must be at least 1".into());
        }
        Ok(())
    }

    /// Parses a compact fault specification, the format accepted by
    /// `icrowd campaign|compare|serve --faults <spec>`:
    ///
    /// ```text
    /// drop=0.2,stall=0.05,dup=0.1,late=0.1:12,churn=50:0.3,seed=7
    /// ```
    ///
    /// `late` takes an optional `:maxticks` suffix; `churn=TICK:FRACTION`
    /// may repeat. Unknown keys and out-of-range rates are errors.
    ///
    /// # Errors
    /// Returns a human-readable message describing the malformed field.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut config = Self::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{part}` is not key=value"))?;
            let bad = |what: &str| format!("invalid {what} in fault spec entry `{part}`");
            match key.trim() {
                "seed" => config.seed = value.parse().map_err(|_| bad("seed"))?,
                "drop" => config.drop_rate = value.parse().map_err(|_| bad("rate"))?,
                "dup" => config.dup_rate = value.parse().map_err(|_| bad("rate"))?,
                "stall" => config.stall_rate = value.parse().map_err(|_| bad("rate"))?,
                "late" => match value.split_once(':') {
                    Some((rate, max)) => {
                        config.late_rate = rate.parse().map_err(|_| bad("rate"))?;
                        config.late_max_ticks = max.parse().map_err(|_| bad("max ticks"))?;
                    }
                    None => config.late_rate = value.parse().map_err(|_| bad("rate"))?,
                },
                "churn" => {
                    let (at, fraction) = value
                        .split_once(':')
                        .ok_or_else(|| bad("churn spike (want TICK:FRACTION)"))?;
                    config.churn.push(ChurnSpike {
                        at: at.parse().map_err(|_| bad("churn tick"))?,
                        fraction: fraction.parse().map_err(|_| bad("churn fraction"))?,
                    });
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        config.churn.sort_by_key(|c| c.at);
        config.validate()?;
        Ok(config)
    }
}

/// Tally of faults actually injected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Answers lost in transit.
    pub drops: u64,
    /// Duplicate deliveries injected.
    pub dups: u64,
    /// Answers delivered late.
    pub lates: u64,
    /// Workers stalled on an assignment.
    pub stalls: u64,
    /// Workers departed in churn spikes.
    pub churned: u64,
}

/// The per-run fault injector: a [`FaultConfig`] plus its decision
/// stream and the injection tally.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    stream: DecisionStream,
    stats: FaultStats,
}

/// The splitmix64 finalizer: a bijective 64-bit mix, the step of every
/// [`DecisionStream`].
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded decision stream: its n-th draw is `splitmix64(key ^ n)`, so
/// a fault schedule is a pure function of the seed and the number of
/// decisions taken. Every seeded fault injector draws from one: this
/// module's [`FaultPlan`], the journal's `FaultyIo`, the server's chaos
/// proxy (one stream per connection) and the fault simulator test.
#[derive(Debug, Clone)]
pub struct DecisionStream {
    key: u64,
    counter: u64,
}

impl DecisionStream {
    /// The stream a seed names.
    pub fn new(seed: u64) -> Self {
        Self::nth(seed, 0)
    }

    /// Stream `index` of the family a seed names, independent of the
    /// others (stream 0 is [`DecisionStream::new`]'s).
    pub fn nth(seed: u64, index: u64) -> Self {
        Self {
            key: seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            counter: 0,
        }
    }

    /// A fresh stream keyed by this one's key XOR `salt`: how one
    /// stream splits into independent ones.
    pub fn derive(&self, salt: u64) -> Self {
        Self {
            key: self.key ^ salt,
            counter: 0,
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        splitmix64(self.key ^ self.counter)
    }

    /// The next draw mapped to `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether the next draw falls under probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_unit() < p
    }

    /// The next draw reduced below `n`, which must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

impl FaultPlan {
    /// Builds the injector for one run.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            stream: DecisionStream::new(config.seed),
            config,
            stats: FaultStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Should this answer stall (never be submitted)?
    pub fn stall(&mut self) -> bool {
        let hit = self.stream.chance(self.config.stall_rate);
        if hit {
            self.stats.stalls += 1;
        }
        hit
    }

    /// Should this submission be lost in transit?
    pub fn drop_answer(&mut self) -> bool {
        let hit = self.stream.chance(self.config.drop_rate);
        if hit {
            self.stats.drops += 1;
        }
        hit
    }

    /// Delay for a late delivery, if this answer is late.
    pub fn late_delay(&mut self) -> Option<u64> {
        if self.stream.chance(self.config.late_rate) {
            self.stats.lates += 1;
            Some(1 + self.stream.below(self.config.late_max_ticks))
        } else {
            None
        }
    }

    /// Should this accepted answer be delivered a second time?
    pub fn duplicate(&mut self) -> bool {
        let hit = self.stream.chance(self.config.dup_rate);
        if hit {
            self.stats.dups += 1;
        }
        hit
    }

    /// Number of churn spikes configured.
    pub fn num_spikes(&self) -> usize {
        self.config.churn.len()
    }

    /// Evaluates spike `spike` for one worker: does she depart?
    pub fn churn_hits(&mut self, spike: usize) -> bool {
        let hit = self.stream.chance(self.config.churn[spike].fraction);
        if hit {
            self.stats.churned += 1;
        }
        hit
    }

    /// The tick of spike `spike`.
    pub fn spike_at(&self, spike: usize) -> u64 {
        self.config.churn[spike].at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first two outputs of the reference generator seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    /// Every stream's n-th draw is `splitmix64(key ^ n)`, with the key
    /// each fault injector derived from its seed before the injectors
    /// shared one type.
    #[test]
    fn decision_streams_draw_from_their_seed_keys() {
        let key = 7u64.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut s = DecisionStream::new(7);
        assert_eq!(s.next_u64(), splitmix64(key ^ 1));
        assert_eq!(s.next_u64(), splitmix64(key ^ 2));
        let conn = key.wrapping_add(3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(DecisionStream::nth(7, 3).next_u64(), splitmix64(conn ^ 1));
        let mut up = DecisionStream::nth(7, 3).derive(0x5555_5555_5555_5555);
        assert_eq!(up.next_u64(), splitmix64(conn ^ 0x5555_5555_5555_5555 ^ 1));
    }

    #[test]
    fn parse_full_spec() {
        let c = FaultConfig::parse("drop=0.2,stall=0.05,dup=0.1,late=0.1:12,churn=50:0.3,seed=7")
            .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.drop_rate, 0.2);
        assert_eq!(c.stall_rate, 0.05);
        assert_eq!(c.dup_rate, 0.1);
        assert_eq!(c.late_rate, 0.1);
        assert_eq!(c.late_max_ticks, 12);
        assert_eq!(
            c.churn,
            vec![ChurnSpike {
                at: 50,
                fraction: 0.3
            }]
        );
    }

    #[test]
    fn parse_defaults_and_noop() {
        let c = FaultConfig::parse("").unwrap();
        assert_eq!(c, FaultConfig::default());
        let c = FaultConfig::parse("late=0.5").unwrap();
        assert_eq!(c.late_max_ticks, 8, "default max delay");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultConfig::parse("drop").is_err());
        assert!(FaultConfig::parse("drop=banana").is_err());
        assert!(FaultConfig::parse("drop=1.5").is_err());
        assert!(FaultConfig::parse("warp=0.1").is_err());
        assert!(FaultConfig::parse("churn=50").is_err());
        assert!(FaultConfig::parse("late=0.1:0").is_err());
    }

    #[test]
    fn churn_spikes_sort_by_tick() {
        let c = FaultConfig::parse("churn=90:0.1,churn=10:0.2").unwrap();
        assert_eq!(c.churn[0].at, 10);
        assert_eq!(c.churn[1].at, 90);
    }

    #[test]
    fn decision_stream_is_deterministic() {
        let config = FaultConfig {
            seed: 99,
            drop_rate: 0.3,
            late_rate: 0.3,
            ..Default::default()
        };
        let mut a = FaultPlan::new(config.clone());
        let mut b = FaultPlan::new(config);
        let da: Vec<_> = (0..64).map(|_| (a.drop_answer(), a.late_delay())).collect();
        let db: Vec<_> = (0..64).map(|_| (b.drop_answer(), b.late_delay())).collect();
        assert_eq!(da, db);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().drops > 0, "30% of 64 draws should hit");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = FaultPlan::new(FaultConfig {
            seed: 1,
            drop_rate: 0.5,
            ..Default::default()
        });
        let mut b = FaultPlan::new(FaultConfig {
            seed: 2,
            drop_rate: 0.5,
            ..Default::default()
        });
        let da: Vec<_> = (0..64).map(|_| a.drop_answer()).collect();
        let db: Vec<_> = (0..64).map(|_| b.drop_answer()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn zero_rates_never_fire() {
        let mut p = FaultPlan::new(FaultConfig::default());
        for _ in 0..100 {
            assert!(!p.stall());
            assert!(!p.drop_answer());
            assert!(p.late_delay().is_none());
            assert!(!p.duplicate());
        }
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut p = FaultPlan::new(FaultConfig {
            seed: 42,
            drop_rate: 0.25,
            ..Default::default()
        });
        let hits = (0..4000).filter(|_| p.drop_answer()).count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "empirical drop rate {rate}");
    }
}
