//! The four workloads: their inputs, their engine, their oracle, and the
//! closed loop that drives them.
//!
//! One client sends the next request only after the previous one has
//! returned. A request is one query (`bigdata_scan`, `bigdata_multipass`,
//! `wire_loss`) or one batch of [`SERVE_BATCH`] queries (`serve_small`).
//! Every result is compared with the `reference::evaluate` oracle, which
//! is computed once per (table version, query) pair before timing starts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cheetah_bench::bigdata_db;
use cheetah_core::filter::{Atom, CmpOp, Formula};
use cheetah_engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah_engine::threaded::worker_threads_spawned;
use cheetah_engine::{
    reference, Agg, CostModel, Database, DistributedExecutor, ExecutionReport, Executor,
    FailurePlan, PlannerExecutor, Predicate, Query, QueryResult, ServeExecutor, ServeReport,
    ShardedExecutor, Table,
};

use crate::layers::Probes;

/// Queries per `serve_small` batch.
pub const SERVE_BATCH: usize = 16;

/// `serve_small` batches per cycle: batch compositions repeat every 3
/// batches (16 mod 6 = 4) and a write follows every second batch, so 6
/// batches see every composition before and after a write.
const SERVE_CYCLE: usize = 6;

/// Shards of the `wire_loss` distributed executor.
pub const WIRE_SHARDS: usize = 2;

/// Per-hop packet loss of the `wire_loss` failure plan.
pub const WIRE_LOSS: f64 = 0.05;

/// The single-pass pruning shapes (`bigdata_scan`).
pub const SINGLE_PASS: [&str; 5] = ["filter_count", "distinct", "topn", "groupby_max", "skyline"];

/// The multi-pass shapes (`bigdata_multipass`).
pub const MULTIPASS: [&str; 5] = [
    "join",
    "having",
    "distinct_multi",
    "groupby_sum",
    "filter_fetch",
];

/// The repeated-predicate serving mix: four shareable single-pass
/// shapes plus the two cacheable two-pass shapes.
pub const SERVE_MIX: [&str; 6] = [
    "filter_count",
    "distinct",
    "topn",
    "groupby_max",
    "having",
    "join",
];

/// The combine-heavy shapes shipped over the lossy wire.
pub const WIRE_MIX: [&str; 3] = ["join", "groupby_sum", "distinct_multi"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `PlannerExecutor` over the single-pass pruning shapes.
    BigdataScan,
    /// `PlannerExecutor` over the multi-pass shapes.
    BigdataMultipass,
    /// `ServeExecutor` batches with a table write every second batch.
    ServeSmall,
    /// `DistributedExecutor` over a 5%-loss wire.
    WireLoss,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BigdataScan,
        Workload::BigdataMultipass,
        Workload::ServeSmall,
        Workload::WireLoss,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BigdataScan => "bigdata_scan",
            Workload::BigdataMultipass => "bigdata_multipass",
            Workload::ServeSmall => "serve_small",
            Workload::WireLoss => "wire_loss",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `uservisits` rows at full size (`rankings` has a fifth of that).
    pub fn rows(self) -> usize {
        match self {
            Workload::BigdataScan | Workload::BigdataMultipass => 1_000_000,
            Workload::ServeSmall => 100_000,
            Workload::WireLoss => 300_000,
        }
    }

    /// The shapes the workload's requests draw from, in cycle order.
    pub fn shapes(self) -> &'static [&'static str] {
        match self {
            Workload::BigdataScan => &SINGLE_PASS,
            Workload::BigdataMultipass => &MULTIPASS,
            Workload::ServeSmall => &SERVE_MIX,
            Workload::WireLoss => &WIRE_MIX,
        }
    }
}

/// The query behind a shape name (the Big Data queries `streaming.rs`
/// measures, over `uservisits` and `rankings`).
pub fn query(shape: &str) -> Query {
    let uv = || "uservisits".to_string();
    match shape {
        "filter_count" => Query::FilterCount {
            table: uv(),
            predicate: Predicate {
                columns: vec!["adRevenue".into(), "duration".into()],
                atoms: vec![
                    Atom::cmp(0, CmpOp::Lt, 1_000),
                    Atom::cmp(1, CmpOp::Gt, 5_000),
                ],
                formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
            },
        },
        "filter_fetch" => Query::Filter {
            table: uv(),
            predicate: Predicate {
                columns: vec!["adRevenue".into()],
                atoms: vec![Atom::cmp(0, CmpOp::Lt, 100)],
                formula: Formula::Atom(0),
            },
        },
        "distinct" => Query::Distinct {
            table: uv(),
            column: "userAgent".into(),
        },
        "distinct_multi" => Query::DistinctMulti {
            table: uv(),
            columns: vec!["userAgent".into(), "languageCode".into()],
        },
        "topn" => Query::TopN {
            table: uv(),
            order_by: "adRevenue".into(),
            n: 250,
        },
        "groupby_max" => Query::GroupBy {
            table: uv(),
            key: "userAgent".into(),
            val: "adRevenue".into(),
            agg: Agg::Max,
        },
        "groupby_sum" => Query::GroupBy {
            table: uv(),
            key: "sourcePrefix".into(),
            val: "adRevenue".into(),
            agg: Agg::Sum,
        },
        "having" => Query::Having {
            table: uv(),
            key: "languageCode".into(),
            val: "adRevenue".into(),
            threshold: 2_000_000,
        },
        "join" => Query::Join {
            left: uv(),
            right: "rankings".into(),
            left_col: "destURL".into(),
            right_col: "pageURL".into(),
        },
        "skyline" => Query::Skyline {
            table: "rankings".into(),
            columns: vec!["pageRankShuffled".into(), "avgDuration".into()],
        },
        other => panic!("unknown shape '{other}'"),
    }
}

/// The Big Data table set `streaming.rs` uses, at `rows` uservisits.
fn tables(rows: usize, seed: u64) -> Database {
    bigdata_db(rows, rows / 5, 2_000, 0.5, seed)
}

/// Requests served, requests that failed, and how long they took.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Queries attempted.
    pub attempted: u64,
    /// Queries whose result differed from the oracle or that panicked.
    pub failed: u64,
    /// Time spent inside timed calls into the engine (queries, batches
    /// and writes); the benchmark's own checking is left out.
    pub busy: Duration,
    /// Completion time of each request, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl Tally {
    /// Queries completed with a correct result per second of busy time.
    pub fn qps(&self) -> f64 {
        crate::stats::ratio(
            (self.attempted - self.failed) as f64,
            self.busy.as_secs_f64(),
        )
    }

    /// Add `other`'s requests to this tally.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.latencies_ms.extend(&other.latencies_ms);
    }

    /// Failed over attempted queries.
    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

enum Engine {
    Planner(PlannerExecutor),
    Serve(ServeExecutor),
    Distributed(DistributedExecutor),
}

/// A workload's prepared inputs and engine, ready to be timed.
pub struct Runner {
    workload: Workload,
    rows: usize,
    db: Database,
    /// Versions of `uservisits` the `serve_small` writes cycle through;
    /// version 0 is the one the database starts with.
    versions: Vec<Table>,
    version: usize,
    engine: Engine,
    queries: Vec<Query>,
    /// `oracle[version][shape]`, filled by [`Runner::compute_oracle`].
    oracle: Vec<Vec<QueryResult>>,
    batches: usize,
    /// Worker-pool width of the engine's cost model.
    workers: usize,
}

/// Run `f`, turning a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

impl Runner {
    /// Generate the inputs, build the database and the executor, and warm
    /// the executor up with one pass over every shape. This is what
    /// `setup_s` times.
    pub fn prepare(workload: Workload, rows: usize, seed: u64) -> Runner {
        let nproc = crate::stats::nproc();
        let db = tables(rows, seed);
        let config = PrunerConfig::default();
        let (engine, versions, workers) = match workload {
            Workload::BigdataScan | Workload::BigdataMultipass => {
                let base = CheetahExecutor::new(CostModel::default(), config);
                let workers = base.model.workers;
                (
                    Engine::Planner(PlannerExecutor::new(base)),
                    Vec::new(),
                    workers,
                )
            }
            Workload::ServeSmall => {
                let next = tables(rows, seed ^ 0x5e7e).table("uservisits").clone();
                let versions = vec![db.table("uservisits").clone(), next];
                let base = CheetahExecutor::new(CostModel::default(), config);
                let workers = base.model.workers;
                (
                    Engine::Serve(ServeExecutor::with_pool(base, nproc)),
                    versions,
                    workers,
                )
            }
            Workload::WireLoss => {
                let workers = (nproc / WIRE_SHARDS).max(1);
                let model = CostModel {
                    workers,
                    ..CostModel::default()
                };
                let plan = FailurePlan {
                    loss_rate: WIRE_LOSS,
                    seed,
                    ..FailurePlan::default()
                };
                let exec = DistributedExecutor::with_failure_plan(
                    CheetahExecutor::new(model, config),
                    WIRE_SHARDS,
                    plan,
                );
                (Engine::Distributed(exec), Vec::new(), workers)
            }
        };
        let queries = workload.shapes().iter().map(|s| query(s)).collect();
        let runner = Runner {
            workload,
            rows,
            db,
            versions,
            version: 0,
            engine,
            queries,
            oracle: Vec::new(),
            batches: 0,
            workers,
        };
        runner.warm_up();
        runner
    }

    fn warm_up(&self) {
        match &self.engine {
            Engine::Serve(serve) => {
                for b in 0..SERVE_CYCLE / 2 {
                    guarded(|| serve.serve(&self.db, &self.batch(b)));
                }
            }
            Engine::Planner(p) => self.queries.iter().for_each(|q| {
                guarded(|| p.execute(&self.db, q));
            }),
            Engine::Distributed(d) => self.queries.iter().for_each(|q| {
                guarded(|| d.execute(&self.db, q));
            }),
        }
    }

    /// Evaluate every (table version, query) pair with the reference
    /// oracle. Not part of any metric.
    pub fn compute_oracle(&mut self) {
        let eval = |db: &Database| {
            self.queries
                .iter()
                .map(|q| reference::evaluate(db, q))
                .collect()
        };
        self.oracle = if self.versions.is_empty() {
            vec![eval(&self.db)]
        } else {
            self.versions
                .iter()
                .map(|v| {
                    let mut db = self.db.clone();
                    db.add(v.clone());
                    eval(&db)
                })
                .collect()
        };
    }

    /// The oracle results, `[version][shape]` (tests corrupt one entry to
    /// check that a mismatch is counted, not fatal).
    pub fn oracle_mut(&mut self) -> &mut Vec<Vec<QueryResult>> {
        &mut self.oracle
    }

    /// `uservisits` rows of the generated inputs.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes of generated table data (u64 lanes).
    pub fn input_bytes(&self) -> u64 {
        self.db
            .names()
            .iter()
            .map(|n| {
                let t = self.db.table(n);
                (t.rows() * t.width() * 8) as u64
            })
            .sum()
    }

    /// Table versions the writes cycle through (1 when nothing writes).
    pub fn table_versions(&self) -> usize {
        self.versions.len().max(1)
    }

    /// Engine workers per pipeline (the fill probes interleave as many
    /// partition streams).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The `b`-th serving batch: the mix cycled to [`SERVE_BATCH`].
    fn batch(&self, b: usize) -> Vec<Query> {
        (0..SERVE_BATCH)
            .map(|j| self.queries[self.shape_of_batch_slot(b, j)].clone())
            .collect()
    }

    /// Index into the mix of slot `j` of the `b`-th serving batch.
    fn shape_of_batch_slot(&self, b: usize, j: usize) -> usize {
        (b * SERVE_BATCH + j) % self.queries.len()
    }

    /// Run whole cycles until `seconds` of wall time have passed (at
    /// least one cycle), so every run sees the mix in the same shares.
    pub fn run_for(&mut self, seconds: f64, mut probes: Option<&mut Probes>) -> Tally {
        let mut tally = Tally::default();
        let started = Instant::now();
        loop {
            self.cycle(&mut tally, probes.as_deref_mut());
            if started.elapsed().as_secs_f64() >= seconds {
                return tally;
            }
        }
    }

    /// One cycle: every shape once, or [`SERVE_CYCLE`] serving batches.
    fn cycle(&mut self, tally: &mut Tally, mut probes: Option<&mut Probes>) {
        if matches!(self.engine, Engine::Serve(_)) {
            for _ in 0..SERVE_CYCLE {
                self.serve_batch(tally, probes.as_deref_mut());
            }
        } else {
            for i in 0..self.queries.len() {
                self.single(i, tally, probes.as_deref_mut());
            }
        }
    }

    fn single(&mut self, i: usize, tally: &mut Tally, probes: Option<&mut Probes>) {
        let exec: &dyn Executor = match &self.engine {
            Engine::Planner(p) => p,
            Engine::Distributed(d) => d,
            Engine::Serve(_) => unreachable!("serving runs batches"),
        };
        let q = &self.queries[i];
        let spawns = worker_threads_spawned();
        let start = Instant::now();
        let out = guarded(|| exec.execute(&self.db, q));
        let end = Instant::now();
        let spawns = worker_threads_spawned() - spawns;
        let ok = out
            .as_ref()
            .is_some_and(|r| r.result == self.oracle[self.version][i]);
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
        tally.busy += end - start;
        tally.latencies_ms.push((end - start).as_secs_f64() * 1e3);
        if let Some(p) = probes {
            let shape = self.workload.shapes()[i];
            p.after_query(&self.db, shape, q, (start, end), out.as_ref(), spawns);
        }
    }

    fn serve_batch(&mut self, tally: &mut Tally, probes: Option<&mut Probes>) {
        let Engine::Serve(serve) = &self.engine else {
            unreachable!("only the serving workload runs batches")
        };
        let b = self.batches;
        let batch = self.batch(b);
        let spawns = worker_threads_spawned();
        let start = Instant::now();
        let out: Option<(Vec<ExecutionReport>, ServeReport)> =
            guarded(|| serve.serve(&self.db, &batch));
        let end = Instant::now();
        let spawns = worker_threads_spawned() - spawns;
        let failed = match &out {
            Some((reports, _)) if reports.len() == batch.len() => reports
                .iter()
                .enumerate()
                .filter(|(j, r)| {
                    r.result != self.oracle[self.version][self.shape_of_batch_slot(b, *j)]
                })
                .count(),
            _ => batch.len(),
        };
        tally.attempted += batch.len() as u64;
        tally.failed += failed as u64;
        tally.busy += end - start;
        tally.latencies_ms.push((end - start).as_secs_f64() * 1e3);
        let mut probes = probes;
        if let Some(p) = probes.as_deref_mut() {
            let shapes: Vec<&'static str> = (0..batch.len())
                .map(|j| self.workload.shapes()[self.shape_of_batch_slot(b, j)])
                .collect();
            p.after_batch(
                &self.db,
                &shapes,
                &batch,
                (start, end),
                out.as_ref(),
                spawns,
            );
        }
        self.batches += 1;
        if self.batches.is_multiple_of(2) {
            self.write(tally, probes);
        }
    }

    /// The write: swap in the next pre-built version of `uservisits`.
    /// Copying the version out of the ring is bookkeeping, not timed.
    fn write(&mut self, tally: &mut Tally, probes: Option<&mut Probes>) {
        let next = (self.version + 1) % self.versions.len();
        let table = self.versions[next].clone();
        let start = Instant::now();
        self.db.add(table);
        let end = Instant::now();
        self.version = next;
        tally.busy += end - start;
        if let Some(p) = probes {
            p.after_write(start, end);
        }
    }

    /// A sharded executor with the distributed engine's configuration
    /// (the in-process baseline `distributed.wire_ms` subtracts), for
    /// the workload that ships over the wire.
    pub fn wire_baseline(&self) -> Option<ShardedExecutor> {
        match &self.engine {
            Engine::Distributed(d) => {
                Some(ShardedExecutor::with_shards(d.inner.clone(), d.shards()))
            }
            _ => None,
        }
    }
}
