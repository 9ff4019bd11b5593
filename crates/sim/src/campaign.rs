//! The campaign harness: run any approach over a dataset on the
//! simulated marketplace and score the outcome.
//!
//! A *campaign* publishes a dataset's microtasks, lets the dataset's
//! worker population churn through them under one of the paper's
//! approaches, aggregates answers, and measures per-domain accuracy
//! against ground truth. All approaches share the same qualification /
//! gold task set (as in Section 6.4) and are measured on the remaining
//! tasks only, since the gold answers were requester-labelled.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

use icrowd::{AssignStrategy, ICrowd, ICrowdBuilder};
use icrowd_assign::{select_qualification_influence, select_qualification_random};
use icrowd_baselines::aggregate::{Aggregator, MajorityAggregator, TaskVotes};
use icrowd_baselines::avgacc::{GoldAccuracyTracker, PvAggregator};
use icrowd_baselines::dawid_skene::DawidSkene;
use icrowd_core::answer::{Answer, Vote};
use icrowd_core::config::ICrowdConfig;
use icrowd_core::task::{TaskId, TaskSet};
use icrowd_core::worker::{Tick, WorkerId};
use icrowd_estimate::EstimationMode;
use icrowd_graph::{GraphBuilder, LinearityIndex, SimilarityGraph};
use icrowd_platform::market::{
    ExternalQuestionServer, MarketAccounting, MarketConfig, Marketplace, SubmitOutcome,
    WorkerBehavior, WorkerScript,
};
use icrowd_platform::{FaultConfig, FaultStats, RejectReason};
use icrowd_text::{
    CosineTfIdf, EditDistanceSimilarity, JaccardSimilarity, LdaConfig, TaskSimilarity, Tokenizer,
    TopicCosine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::datasets::Dataset;
use crate::metrics::{evaluate, DomainAccuracy};

/// Which approach runs the campaign (Sections 6.1 and 6.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// iCrowd with the given strategy (Adapt / BestEffort / QF-Only).
    ICrowd(AssignStrategy),
    /// Random assignment + majority voting.
    RandomMV,
    /// Random assignment + Dawid–Skene EM aggregation.
    RandomEM,
    /// Gold-injected average accuracy + probabilistic verification.
    AvgAccPV,
}

impl Approach {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Approach::ICrowd(AssignStrategy::Adapt) => "iCrowd".into(),
            Approach::ICrowd(s) => s.name().into(),
            Approach::RandomMV => "RandomMV".into(),
            Approach::RandomEM => "RandomEM".into(),
            Approach::AvgAccPV => "AvgAccPV".into(),
        }
    }
}

/// Qualification-selection strategy (Section 6.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QualStrategy {
    /// Influence-maximizing selection (Algorithm 4) — `InfQF`.
    #[default]
    Influence,
    /// Uniform random selection — `RandomQF`.
    Random,
}

impl QualStrategy {
    /// Display name matching Figure 7.
    pub fn name(self) -> &'static str {
        match self {
            QualStrategy::Influence => "InfQF",
            QualStrategy::Random => "RamdomQF", // sic — the paper's spelling
        }
    }
}

/// Similarity metric choice (Appendix D.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricChoice {
    /// Token-set Jaccard.
    Jaccard,
    /// Cosine over tf-idf vectors.
    CosTfIdf,
    /// Cosine over LDA topic distributions with `num_topics` topics.
    CosTopic {
        /// LDA topic count.
        num_topics: usize,
    },
    /// Normalized character edit distance.
    EditDistance,
}

impl MetricChoice {
    /// Display name matching Figure 12.
    pub fn name(&self) -> &'static str {
        match self {
            MetricChoice::Jaccard => "Jaccard",
            MetricChoice::CosTfIdf => "Cos(tf-idf)",
            MetricChoice::CosTopic { .. } => "Cos(topic)",
            MetricChoice::EditDistance => "EditDistance",
        }
    }

    /// Instantiates the metric over a task set.
    pub fn build(&self, tasks: &TaskSet, seed: u64) -> Box<dyn TaskSimilarity + Send + Sync> {
        let tokenizer = Tokenizer::new();
        match *self {
            MetricChoice::Jaccard => Box::new(JaccardSimilarity::new(tasks, &tokenizer)),
            MetricChoice::CosTfIdf => Box::new(CosineTfIdf::new(tasks, &tokenizer)),
            MetricChoice::CosTopic { num_topics } => Box::new(TopicCosine::new(
                tasks,
                &tokenizer,
                &LdaConfig {
                    num_topics,
                    iterations: 150,
                    seed,
                    ..Default::default()
                },
            )),
            MetricChoice::EditDistance => Box::new(EditDistanceSimilarity::new(tasks)),
        }
    }
}

/// How much work each simulated worker is willing to do, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerDynamics {
    /// Every worker arrives immediately and answers until the campaign
    /// completes (or the given cap). With the whole population always
    /// active there is no contention for expertise, so myopic strategies
    /// look artificially good; kept for ablations.
    Uniform {
        /// Per-worker answer cap.
        max_answers: usize,
    },
    /// Heavy-tailed patience and pace: budgets are `5 + Exp(4 x fair
    /// share)` and per-answer pace `1 + Exp(8)` ticks, matching the
    /// empirical AMT volume skew behind Figure 15. Both draws are
    /// independent of skill.
    HeavyTail,
    /// The paper's premise (Section 2.1): the worker set is *dynamic* —
    /// workers arrive staggered over the campaign, work one session with
    /// an `Exp`-distributed budget, and leave. Only about `concurrency`
    /// workers are active at any time, so assignment must spend the
    /// expertise that is present *now* — the regime where adaptive
    /// assignment earns its keep. This is the default.
    Sessions {
        /// Target number of concurrently active workers.
        concurrency: usize,
    },
}

/// Campaign parameters. Defaults mirror the paper: `k = 3`, `alpha = 1`,
/// `Cos(topic)` similarity at threshold 0.8, `Q = 10` qualification
/// tasks selected by influence maximization, heavy-tailed worker
/// patience.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base RNG seed; every stochastic component derives from it.
    pub seed: u64,
    /// Framework configuration (k, alpha, thresholds, ...).
    pub icrowd: ICrowdConfig,
    /// Similarity metric for the graph.
    pub metric: MetricChoice,
    /// Qualification-selection strategy.
    pub qual: QualStrategy,
    /// Estimation mode (centered by default; raw for the literal paper).
    pub estimation_mode: EstimationMode,
    /// Worker patience model.
    pub dynamics: WorkerDynamics,
    /// Aggregate iCrowd results by estimate-weighted majority voting
    /// instead of plain consensus (Section 2.1's "(weighted) majority
    /// voting"; compared in the `ablation` bench).
    pub weighted_aggregation: bool,
    /// Fault-injection plan for the marketplace loop (dropped, duplicated,
    /// late answers; stalls; churn spikes). `None` runs the fault-free
    /// loop, bit-identical to the pre-fault harness.
    pub faults: Option<FaultConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            icrowd: ICrowdConfig {
                similarity_threshold: 0.8,
                ..Default::default()
            },
            metric: MetricChoice::CosTopic { num_topics: 8 },
            qual: QualStrategy::Influence,
            estimation_mode: EstimationMode::default(),
            dynamics: WorkerDynamics::Sessions { concurrency: 6 },
            weighted_aggregation: false,
            faults: None,
        }
    }
}

/// A scored campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Approach name.
    pub approach: String,
    /// Dataset name.
    pub dataset: String,
    /// Overall accuracy over measured (non-gold) tasks.
    pub overall: f64,
    /// Per-domain accuracies in domain-id order.
    pub per_domain: Vec<DomainAccuracy>,
    /// Crowd answers collected (warm-up included).
    pub answers: usize,
    /// Requester spend in cents.
    pub spend_cents: u64,
    /// Regular assignments per worker (profile names).
    pub worker_assignments: Vec<(String, u32)>,
    /// Wall-clock time of the whole campaign, offline phase included,
    /// milliseconds.
    pub elapsed_ms: f64,
    /// The shared qualification/gold set used.
    pub gold: Vec<TaskId>,
    /// Answer-flow accounting from the marketplace (submitted, accepted,
    /// rejected, paid, abandoned).
    pub accounting: MarketAccounting,
    /// Faults the marketplace actually injected.
    pub fault_stats: FaultStats,
    /// Whether every task reached its consensus before the crowd ran out.
    pub completed: bool,
    /// Final consensus labels in task-id order (gold tasks resolve to
    /// their requester labels). This is the artifact compared
    /// byte-for-byte between the in-process and served campaign paths.
    pub labels: Vec<(TaskId, Answer)>,
}

impl CampaignResult {
    /// Accuracy in a named domain.
    pub fn domain_accuracy(&self, domain: &str) -> Option<f64> {
        self.per_domain
            .iter()
            .find(|d| d.domain == domain)
            .map(DomainAccuracy::accuracy)
    }
}

/// Builds the similarity graph a campaign will use.
pub fn build_graph(dataset: &Dataset, config: &CampaignConfig) -> SimilarityGraph {
    let metric = config.metric.build(&dataset.tasks, config.seed);
    let mut builder = GraphBuilder::new(config.icrowd.similarity_threshold)
        .with_threads(config.icrowd.ppr.threads);
    if let Some(m) = config.icrowd.max_neighbors {
        builder = builder.with_max_neighbors(m);
    }
    builder.build(&dataset.tasks, &metric)
}

/// Selects the shared qualification/gold set for a campaign.
///
/// Influence selection (Algorithm 4) reads the supports of the
/// campaign's linearity index, so `index` must be given under
/// [`QualStrategy::Influence`]; a campaign builds that index once and
/// hands the same value on to the iCrowd estimator. Random selection
/// reads no index.
///
/// # Panics
/// Panics under influence selection when `index` is `None`.
pub fn select_gold(
    dataset: &Dataset,
    index: Option<&LinearityIndex>,
    config: &CampaignConfig,
) -> Vec<TaskId> {
    match config.qual {
        QualStrategy::Influence => select_qualification_influence(
            index.expect("influence qualification reads the linearity index"),
            config.icrowd.warmup.num_qualification,
        ),
        QualStrategy::Random => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x51ED);
            select_qualification_random(
                dataset.tasks.len(),
                config.icrowd.warmup.num_qualification,
                &mut rng,
            )
        }
    }
}

/// Runs one campaign end to end.
///
/// ```
/// use icrowd::AssignStrategy;
/// use icrowd_sim::campaign::{run_campaign, Approach, CampaignConfig, MetricChoice};
/// use icrowd_sim::datasets::table1;
///
/// let dataset = table1();
/// let mut config = CampaignConfig {
///     metric: MetricChoice::Jaccard,
///     ..Default::default()
/// };
/// config.icrowd.similarity_threshold = 0.4;
/// config.icrowd.warmup.num_qualification = 3;
/// let result = run_campaign(&dataset, Approach::ICrowd(AssignStrategy::Adapt), &config);
/// assert!(result.overall > 0.0);
/// assert_eq!(result.per_domain.len(), 3);
/// ```
pub fn run_campaign(
    dataset: &Dataset,
    approach: Approach,
    config: &CampaignConfig,
) -> CampaignResult {
    let start = Instant::now();
    let CampaignSetup {
        mut server,
        scripts,
        market: market_config,
        gold,
    } = prepare_campaign(dataset, approach, config);
    let behaviors: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = dataset
        .spawn_workers(config.seed)
        .into_iter()
        .zip(scripts)
        .map(|(w, script)| (script, Box::new(w) as Box<dyn WorkerBehavior>))
        .collect();
    let market = Marketplace::new(dataset.tasks.clone(), market_config);

    let outcome = market.run_with_faults(&mut server, behaviors, config.faults.clone());
    score_campaign(
        dataset,
        approach,
        config,
        &mut server,
        gold,
        &outcome,
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// The marketplace-side ingredients of a campaign: the answer server,
/// the worker scripts, the market configuration and the shared gold
/// set. Both the in-process harness ([`run_campaign`]) and the TCP
/// serving layer build exactly this, so a served campaign runs the same
/// deterministic schedule as an in-process one at the same seed.
pub struct CampaignSetup {
    /// The ExternalQuestion server for the chosen approach.
    pub server: CampaignServer,
    /// Per-worker marketplace scripts in roster order.
    pub scripts: Vec<WorkerScript>,
    /// Marketplace parameters (HIT count scaled to expected demand).
    pub market: MarketConfig,
    /// The shared qualification/gold set.
    pub gold: Vec<TaskId>,
}

/// Builds a [`CampaignSetup`], running the offline work first: the
/// graph, then one linearity index shared by influence gold selection
/// and the iCrowd estimator (none when neither reads it), then the gold
/// set.
pub fn prepare_campaign(
    dataset: &Dataset,
    approach: Approach,
    config: &CampaignConfig,
) -> CampaignSetup {
    let graph = build_graph(dataset, config);
    prepare(dataset, approach, config, graph, None)
}

/// Builds a [`CampaignSetup`] from a pre-built graph and gold set. The
/// gold set is given, so the linearity index is built here only for an
/// iCrowd server's estimator, once.
pub fn prepare_campaign_with(
    dataset: &Dataset,
    approach: Approach,
    config: &CampaignConfig,
    graph: SimilarityGraph,
    gold: Vec<TaskId>,
) -> CampaignSetup {
    prepare(dataset, approach, config, graph, Some(gold))
}

/// Builds a [`CampaignSetup`] over `graph`. This is the one place a
/// campaign builds Algorithm 1's linearity index (lines 2–4): at most
/// once, and only when something reads it. Influence qualification
/// selects the gold set from it when `gold` is not given, and an iCrowd
/// server's estimator propagates over it; a random baseline under
/// random qualification builds none.
fn prepare(
    dataset: &Dataset,
    approach: Approach,
    config: &CampaignConfig,
    graph: SimilarityGraph,
    gold: Option<Vec<TaskId>>,
) -> CampaignSetup {
    let selects_by_influence = gold.is_none() && config.qual == QualStrategy::Influence;
    let server_reads = matches!(approach, Approach::ICrowd(_));
    let index = (selects_by_influence || server_reads)
        .then(|| LinearityIndex::build(&graph, config.icrowd.alpha, &config.icrowd.ppr));
    let gold = gold.unwrap_or_else(|| select_gold(dataset, index.as_ref(), config));
    let total_answers =
        dataset.tasks.len() * config.icrowd.assignment_size + dataset.workers.len() * gold.len();
    let scripts = worker_scripts(config, dataset.workers.len(), total_answers);
    let market = MarketConfig {
        num_hits: total_answers / 100 + dataset.workers.len() + 1,
        ..Default::default()
    };
    let server = CampaignServer::new(dataset, approach, config, graph, index, gold.clone());
    CampaignSetup {
        server,
        scripts,
        market,
        gold,
    }
}

/// Scores a finished marketplace run into a [`CampaignResult`] (shared
/// by the in-process harness and the serving layer's drain path).
pub fn score_campaign(
    dataset: &Dataset,
    approach: Approach,
    config: &CampaignConfig,
    server: &mut CampaignServer,
    gold: Vec<TaskId>,
    outcome: &icrowd_platform::market::MarketOutcome,
    elapsed_ms: f64,
) -> CampaignResult {
    let completed = server.is_complete();
    let results = server.results(config.weighted_aggregation);
    let excluded: HashSet<TaskId> = gold.iter().copied().collect();
    let (overall, per_domain) = evaluate(dataset, &results, &excluded);
    let mut labels: Vec<(TaskId, Answer)> = results.iter().map(|(&t, &a)| (t, a)).collect();
    labels.sort_unstable_by_key(|(t, _)| *t);

    // Map platform external ids ("W<i>") back to profile names; ids
    // outside that format (e.g. from a misbehaving network client) are
    // reported verbatim instead of panicking.
    let worker_assignments = server
        .worker_assignments()
        .into_iter()
        .map(|(external, count)| {
            let name = external
                .strip_prefix('W')
                .and_then(|s| s.parse::<usize>().ok())
                .and_then(|i| i.checked_sub(1))
                .and_then(|i| dataset.workers.get(i))
                .map_or(external.clone(), |w| w.name.clone());
            (name, count)
        })
        .collect();

    CampaignResult {
        approach: approach.name(),
        dataset: dataset.name.clone(),
        overall,
        per_domain,
        answers: outcome.answers,
        spend_cents: outcome.ledger.total_spend(),
        worker_assignments,
        elapsed_ms,
        gold,
        accounting: outcome.accounting,
        fault_stats: outcome.faults,
        completed,
        labels,
    }
}

/// Renders consensus labels in the canonical `<task> <answer>` line
/// format used for byte-for-byte comparison between the in-process and
/// served campaign paths (and by `--labels-out`).
pub fn labels_lines(labels: &[(TaskId, Answer)]) -> String {
    let mut out = String::with_capacity(labels.len() * 8);
    for (t, a) in labels {
        writeln!(out, "{} {}", t.0, a.0).expect("write to String");
    }
    out
}

/// Draws per-worker marketplace scripts for the configured dynamics.
///
/// Heavy-tail mode skews both *rate* and *budget*: a worker's pace is
/// `1 + Exp(8)` ticks per answer (a few prolific workers answer an order
/// of magnitude faster than the long tail — the empirical AMT regime
/// behind Figure 15) and her budget is `5 + Exp(4 x fair share)`. Both
/// draws are independent of skill, so no assignment strategy is
/// favoured.
fn worker_scripts(
    config: &CampaignConfig,
    num_workers: usize,
    total_answers: usize,
) -> Vec<WorkerScript> {
    match config.dynamics {
        WorkerDynamics::Uniform { max_answers } => (0..num_workers)
            .map(|i| WorkerScript {
                arrival: Tick(i as u64),
                max_answers,
                ticks_per_answer: 1,
            })
            .collect(),
        WorkerDynamics::HeavyTail => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9A71_ECE5);
            let mean_budget = 4.0 * total_answers as f64 / num_workers.max(1) as f64;
            let mut exp = |mean: f64| {
                let u: f64 = rand::Rng::gen_range(&mut rng, 1e-9..1.0f64);
                -mean * u.ln()
            };
            (0..num_workers)
                .map(|i| WorkerScript {
                    arrival: Tick(i as u64),
                    max_answers: 5 + exp(mean_budget) as usize,
                    ticks_per_answer: 1 + (exp(8.0) as u64).min(40),
                })
                .collect()
        }
        WorkerDynamics::Sessions { concurrency } => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5E55_10A5);
            // Budgets sum to ~2x demand; arrivals staggered so ~
            // `concurrency` sessions overlap (each session lasts about
            // its budget in ticks at one answer per tick).
            let fair = total_answers as f64 / num_workers.max(1) as f64;
            let mean_budget = 2.0 * fair;
            let spacing = (mean_budget / concurrency.max(1) as f64).max(1.0);
            let mut exp = |mean: f64| {
                let u: f64 = rand::Rng::gen_range(&mut rng, 1e-9..1.0f64);
                -mean * u.ln()
            };
            (0..num_workers)
                .map(|i| {
                    let jitter = exp(spacing / 2.0);
                    WorkerScript {
                        arrival: Tick((i as f64 * spacing + jitter) as u64),
                        max_answers: 5 + exp(mean_budget) as usize,
                        ticks_per_answer: 1,
                    }
                })
                .collect()
        }
    }
}

/// Dispatch wrapper over the two server families (iCrowd's adaptive
/// assigner and the random-assignment baselines) — the
/// [`ExternalQuestionServer`] a campaign runs against, whichever host
/// (in-process marketplace or TCP serving layer) drives it.
pub enum CampaignServer {
    /// iCrowd with one of its assignment strategies.
    ICrowd(Box<ICrowd>),
    /// A random-assignment baseline (RandomMV / RandomEM / AvgAccPV).
    Random(Box<RandomServer>),
}

impl CampaignServer {
    /// Builds the server for `approach` over the dataset's tasks, with
    /// the shared graph, linearity index and gold set. An iCrowd server
    /// takes the index [`prepare`] built for it; the random baselines
    /// read neither graph nor index.
    fn new(
        dataset: &Dataset,
        approach: Approach,
        config: &CampaignConfig,
        graph: SimilarityGraph,
        index: Option<LinearityIndex>,
        gold: Vec<TaskId>,
    ) -> Self {
        match approach {
            Approach::ICrowd(strategy) => CampaignServer::ICrowd(Box::new(
                ICrowdBuilder::new(dataset.tasks.clone())
                    .config(config.icrowd.clone())
                    .strategy(strategy)
                    .estimation_mode(config.estimation_mode)
                    .graph(graph)
                    .index(index.expect("an iCrowd server reads the campaign's index"))
                    .qualification(gold)
                    .build(),
            )),
            Approach::RandomMV => CampaignServer::Random(Box::new(RandomServer::new(
                dataset.tasks.clone(),
                config,
                gold,
                BaselineMode::MajorityVote,
            ))),
            Approach::RandomEM => CampaignServer::Random(Box::new(RandomServer::new(
                dataset.tasks.clone(),
                config,
                gold,
                BaselineMode::DawidSkene,
            ))),
            Approach::AvgAccPV => CampaignServer::Random(Box::new(RandomServer::new(
                dataset.tasks.clone(),
                config,
                gold,
                BaselineMode::ProbabilisticVerification,
            ))),
        }
    }

    /// Aggregated answers per task (gold tasks resolve to their
    /// requester labels).
    pub fn results(&mut self, weighted: bool) -> HashMap<TaskId, Answer> {
        match self {
            CampaignServer::ICrowd(s) if weighted => s.results_weighted(),
            CampaignServer::ICrowd(s) => s.results(),
            CampaignServer::Random(s) => s.results(),
        }
    }

    /// Regular assignments per worker, by external id.
    pub fn worker_assignments(&self) -> Vec<(String, u32)> {
        match self {
            CampaignServer::ICrowd(s) => s.worker_assignments(),
            CampaignServer::Random(s) => s.worker_assignments(),
        }
    }
}

impl ExternalQuestionServer for CampaignServer {
    fn request_task(&mut self, worker: &str, now: Tick) -> Option<TaskId> {
        match self {
            CampaignServer::ICrowd(s) => s.request_task(worker, now),
            CampaignServer::Random(s) => s.request_task(worker, now),
        }
    }

    fn submit_answer(
        &mut self,
        worker: &str,
        task: TaskId,
        answer: Answer,
        now: Tick,
    ) -> SubmitOutcome {
        match self {
            CampaignServer::ICrowd(s) => s.submit_answer(worker, task, answer, now),
            CampaignServer::Random(s) => s.submit_answer(worker, task, answer, now),
        }
    }

    fn is_complete(&self) -> bool {
        match self {
            CampaignServer::ICrowd(s) => s.is_complete(),
            CampaignServer::Random(s) => s.is_complete(),
        }
    }
}

/// How a random-assignment baseline aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BaselineMode {
    MajorityVote,
    DawidSkene,
    ProbabilisticVerification,
}

/// The random-assignment server shared by RandomMV, RandomEM and
/// AvgAccPV.
///
/// All three treat the shared gold set as requester-known (excluded from
/// crowd work and from measurement). AvgAccPV additionally warms every
/// worker up on the gold set to estimate her average accuracy and
/// eliminates workers below the threshold, per CDAS.
pub struct RandomServer {
    tasks: TaskSet,
    k: usize,
    num_choices: u8,
    mode: BaselineMode,
    gold: Vec<TaskId>,
    gold_set: HashSet<TaskId>,
    /// Votes per task (regular assignments only).
    votes: Vec<Vec<Vote>>,
    /// Worker registry: external id → dense index.
    ids: HashMap<String, usize>,
    names: Vec<String>,
    answered: Vec<HashSet<TaskId>>,
    gold_progress: Vec<usize>,
    assignments: Vec<u32>,
    in_flight: Vec<Option<TaskId>>,
    tracker: GoldAccuracyTracker,
    reject_threshold: f64,
    reject_after: usize,
    uses_gold: bool,
    remaining: usize,
    rng: StdRng,
}

impl RandomServer {
    fn new(tasks: TaskSet, config: &CampaignConfig, gold: Vec<TaskId>, mode: BaselineMode) -> Self {
        let n = tasks.len();
        let gold_set: HashSet<TaskId> = gold.iter().copied().collect();
        let remaining = n - gold_set.len();
        let num_choices = tasks.iter().map(|t| t.num_choices).max().unwrap_or(2);
        Self {
            tasks,
            k: config.icrowd.assignment_size,
            num_choices,
            mode,
            gold,
            gold_set,
            votes: vec![Vec::new(); n],
            ids: HashMap::new(),
            names: Vec::new(),
            answered: Vec::new(),
            gold_progress: Vec::new(),
            assignments: Vec::new(),
            in_flight: Vec::new(),
            tracker: GoldAccuracyTracker::new(),
            reject_threshold: config.icrowd.warmup.reject_threshold,
            reject_after: config.icrowd.warmup.reject_after,
            uses_gold: mode == BaselineMode::ProbabilisticVerification,
            remaining,
            rng: StdRng::seed_from_u64(config.seed ^ 0xBA5E),
        }
    }

    fn worker_index(&mut self, external: &str) -> usize {
        if let Some(&i) = self.ids.get(external) {
            return i;
        }
        let i = self.names.len();
        self.ids.insert(external.to_owned(), i);
        self.names.push(external.to_owned());
        self.answered.push(HashSet::new());
        self.gold_progress.push(0);
        self.assignments.push(0);
        self.in_flight.push(None);
        i
    }

    fn results(&self) -> HashMap<TaskId, Answer> {
        let n = self.tasks.len();
        let task_votes: Vec<TaskVotes> = self
            .votes
            .iter()
            .enumerate()
            .map(|(i, votes)| TaskVotes {
                task: TaskId(i as u32),
                votes: votes.clone(),
            })
            .collect();
        let aggregated: Vec<Option<Answer>> = match self.mode {
            BaselineMode::MajorityVote => {
                MajorityAggregator.aggregate(n, self.num_choices, &task_votes)
            }
            BaselineMode::DawidSkene => {
                DawidSkene::default().aggregate(n, self.num_choices, &task_votes)
            }
            BaselineMode::ProbabilisticVerification => {
                PvAggregator::new(self.tracker.clone()).aggregate(n, self.num_choices, &task_votes)
            }
        };
        let mut out: HashMap<TaskId, Answer> = aggregated
            .into_iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|a| (TaskId(i as u32), a)))
            .collect();
        // Gold tasks resolve to their requester labels.
        for &g in &self.gold {
            if let Some(truth) = self.tasks[g].ground_truth {
                out.insert(g, truth);
            }
        }
        out
    }

    fn worker_assignments(&self) -> Vec<(String, u32)> {
        self.names
            .iter()
            .cloned()
            .zip(self.assignments.iter().copied())
            .collect()
    }
}

impl ExternalQuestionServer for RandomServer {
    fn request_task(&mut self, external: &str, _now: Tick) -> Option<TaskId> {
        let w = self.worker_index(external);
        if let Some(t) = self.in_flight[w] {
            return Some(t);
        }
        // AvgAccPV: gold phase first, then elimination.
        if self.uses_gold {
            if self.gold_progress[w] < self.gold.len() {
                let task = self.gold[self.gold_progress[w]];
                self.in_flight[w] = Some(task);
                return Some(task);
            }
            if self.tracker.is_eliminated(
                WorkerId(w as u32),
                self.reject_threshold,
                self.reject_after as u32,
            ) {
                return None;
            }
        }
        // Random eligible open task.
        let eligible: Vec<TaskId> = (0..self.tasks.len() as u32)
            .map(TaskId)
            .filter(|t| {
                !self.gold_set.contains(t)
                    && self.votes[t.index()].len() + usize::from(self.in_flight.contains(&Some(*t)))
                        < self.k
                    && !self.answered[w].contains(t)
                    && !self.votes[t.index()].iter().any(|v| v.worker.index() == w)
            })
            .collect();
        let pick = icrowd_baselines::pickers::random_pick(&eligible, &mut self.rng)?;
        self.in_flight[w] = Some(pick);
        self.assignments[w] += 1;
        Some(pick)
    }

    fn submit_answer(
        &mut self,
        external: &str,
        task: TaskId,
        answer: Answer,
        _now: Tick,
    ) -> SubmitOutcome {
        let w = self.worker_index(external);
        // Only answers matching the worker's outstanding assignment count;
        // anything else is a duplicate or was never assigned.
        if self.in_flight[w] != Some(task) {
            let reason = if self.answered[w].contains(&task) {
                RejectReason::Duplicate
            } else {
                RejectReason::NotAssigned
            };
            return SubmitOutcome::Rejected(reason);
        }
        self.in_flight[w] = None;
        self.answered[w].insert(task);
        if self.gold_set.contains(&task) {
            let truth = self.tasks[task].ground_truth.expect("gold carries truth");
            self.gold_progress[w] += 1;
            self.tracker.record(WorkerId(w as u32), answer, truth);
            return SubmitOutcome::Accepted;
        }
        let votes = &mut self.votes[task.index()];
        // Several holders can race for the last slot (the eligibility
        // filter counts at most one in-flight copy); late finishers lose.
        if votes.len() >= self.k {
            return SubmitOutcome::Rejected(RejectReason::TaskCompleted);
        }
        debug_assert!(
            !votes.iter().any(|v| v.worker.index() == w),
            "assignment validation admitted a repeated vote"
        );
        votes.push(Vote {
            worker: WorkerId(w as u32),
            answer,
        });
        if votes.len() == self.k {
            self.remaining -= 1;
        }
        SubmitOutcome::Accepted
    }

    fn is_complete(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::table1;

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            metric: MetricChoice::Jaccard,
            icrowd: ICrowdConfig {
                similarity_threshold: 0.3,
                warmup: icrowd_core::config::WarmupConfig {
                    num_qualification: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn all_approaches_complete_on_table1() {
        let ds = table1();
        let config = quick_config();
        for approach in [
            Approach::ICrowd(AssignStrategy::Adapt),
            Approach::ICrowd(AssignStrategy::BestEffort),
            Approach::ICrowd(AssignStrategy::QfOnly),
            Approach::RandomMV,
            Approach::RandomEM,
            Approach::AvgAccPV,
        ] {
            let r = run_campaign(&ds, approach, &config);
            assert!(
                (0.0..=1.0).contains(&r.overall),
                "{}: accuracy {}",
                r.approach,
                r.overall
            );
            assert!(r.answers > 0, "{} collected no answers", r.approach);
            assert_eq!(r.gold.len(), 3);
            // 12 tasks - 3 gold = 9 measured.
            let measured: usize = r.per_domain.iter().map(|d| d.total).sum();
            assert_eq!(measured, 9, "{}", r.approach);
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let ds = table1();
        let config = quick_config();
        let a = run_campaign(&ds, Approach::ICrowd(AssignStrategy::Adapt), &config);
        let b = run_campaign(&ds, Approach::ICrowd(AssignStrategy::Adapt), &config);
        assert_eq!(a.overall, b.overall);
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.worker_assignments, b.worker_assignments);
    }

    #[test]
    fn random_baseline_collects_exactly_k_votes_per_task() {
        let ds = table1();
        let config = quick_config();
        let r = run_campaign(&ds, Approach::RandomMV, &config);
        // 9 non-gold tasks x k=3 votes; RandomMV has no warm-up answers.
        assert_eq!(r.answers, 27);
    }

    #[test]
    fn avgaccpv_spends_gold_answers_too() {
        let ds = table1();
        let config = quick_config();
        let r = run_campaign(&ds, Approach::AvgAccPV, &config);
        // 27 regular + up to 5 workers x 3 gold.
        assert!(r.answers > 27, "gold answers missing: {}", r.answers);
        assert!(r.answers <= 27 + 15);
    }

    #[test]
    fn gold_set_is_shared_across_approaches() {
        let ds = table1();
        let config = quick_config();
        let a = run_campaign(&ds, Approach::RandomMV, &config);
        let b = run_campaign(&ds, Approach::ICrowd(AssignStrategy::Adapt), &config);
        assert_eq!(a.gold, b.gold);
    }
}
