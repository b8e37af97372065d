//! The traced run: spans around the benchmark's calls into each layer,
//! counters read from the engine's reports, and the per-layer metrics
//! derived from both.
//!
//! Every span is recorded here, in the benchmark, around a public call;
//! no engine code is instrumented. A layer the workload never reaches
//! reports 0 (for example `distributed.*` outside `wire_loss`).

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cheetah_core::decision::{PruneStats, RowPruner};
use cheetah_core::fingerprint::Fingerprinter;
use cheetah_core::groupby::Extremum;
use cheetah_engine::backend;
use cheetah_engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah_engine::{
    CostModel, Database, EntryStream, ExecutionReport, Executor, FetchSpec, PlanContext,
    PlannerExecutor, Query, ServeReport, ShardedExecutor, SparkExecutor, Table,
};

use crate::stats::{mean, median, ratio};
use crate::trace::{Tracer, ROOT};
use crate::workload::{query, MULTIPASS, SINGLE_PASS};
use crate::Metric;

/// Spans the traced phase can hold; recording never grows the buffer.
pub const SPAN_CAPACITY: usize = 1 << 18;

/// Span names of the per-shape switch-decision probes.
fn decide_span(shape: &str) -> &'static str {
    match shape {
        "filter_count" => "backend.decide.filter_count",
        "distinct" => "backend.decide.distinct",
        "topn" => "backend.decide.topn",
        "groupby_max" => "backend.decide.groupby_max",
        "skyline" => "backend.decide.skyline",
        other => panic!("no single-pass decide probe for '{other}'"),
    }
}

/// The table a query streams from and its switch lanes, in the order the
/// executors stream them.
fn switch_lanes<'a>(db: &'a Database, q: &Query) -> (&'a Table, Vec<usize>) {
    let on = |table: &str, cols: &[&String]| {
        let t = db.table(table);
        (t, cols.iter().map(|c| t.col_index(c)).collect())
    };
    match q {
        Query::FilterCount { table, predicate } | Query::Filter { table, predicate } => {
            on(table, &predicate.columns.iter().collect::<Vec<_>>())
        }
        Query::Distinct { table, column } => on(table, &[column]),
        Query::DistinctMulti { table, columns } | Query::Skyline { table, columns } => {
            on(table, &columns.iter().collect::<Vec<_>>())
        }
        Query::TopN {
            table, order_by, ..
        } => on(table, &[order_by]),
        Query::GroupBy {
            table, key, val, ..
        }
        | Query::Having {
            table, key, val, ..
        } => on(table, &[key, val]),
        Query::Join { left, left_col, .. } => on(left, &[left_col]),
    }
}

/// The switch pruner a single-pass query runs under the chosen backend.
fn single_pass_pruner(cfg: &PrunerConfig, q: &Query) -> Box<dyn RowPruner + Send> {
    match q {
        Query::FilterCount { predicate, .. } => backend::filter(cfg, predicate),
        Query::Distinct { .. } => backend::distinct(cfg),
        Query::TopN { n, .. } => backend::topn(cfg, *n),
        Query::GroupBy { .. } => backend::groupby(cfg, Extremum::Max),
        Query::Skyline { columns, .. } => backend::skyline(cfg, columns.len()),
        other => panic!("not a single-pass shape: {}", other.kind()),
    }
}

/// Counters read from the engine's own reports during the traced phase.
#[derive(Debug, Default)]
pub struct LayerStats {
    processed: u64,
    forwarded: u64,
    prune_rate: BTreeMap<&'static str, Vec<f64>>,
    unattributed_ms: Vec<f64>,
    switch_pass_ms: Vec<f64>,
    spawns: Vec<f64>,
    merge_ms: Vec<f64>,
    combine_ms: Vec<f64>,
    misprediction: Vec<f64>,
    threads: Vec<f64>,
    picks: BTreeMap<&'static str, BTreeSet<(&'static str, usize, usize)>>,
    fetch_rows: Vec<f64>,
    fetch_mb: Vec<f64>,
    serve: ServeReport,
    batches: u64,
    dist_queries: u64,
    retransmissions: u64,
    retries: u64,
    losses: u64,
    degraded: u64,
    /// Probe calls that panicked (a bug; the run is then not correct).
    pub probe_panics: u64,
}

impl LayerStats {
    fn add_report(&mut self, db: &Database, shape: &'static str, q: &Query, r: &ExecutionReport) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let stats = r.prune_stats();
        self.processed += stats.processed;
        self.forwarded += r.shuffle_entries;
        self.prune_rate
            .entry(shape)
            .or_default()
            .push(ratio(stats.pruned as f64, stats.processed as f64));
        let passes: Duration = r.pass_walls.iter().sum();
        let merges: Duration = r.merge_walls.iter().sum();
        let combine = r.combine_wall.unwrap_or_default();
        if let Some(wall) = r.wall {
            self.unattributed_ms
                .push(ms(wall) - ms(passes) - ms(combine));
        }
        self.switch_pass_ms.push(ms(passes));
        self.merge_ms.push(ms(merges));
        self.combine_ms.push(ms(combine));
        // The planner plans every Filter's fetch down to the referenced
        // lanes; everything else fetches with the default full-row spec.
        let spec = if r.plan.is_some() && matches!(q, Query::Filter { .. }) {
            FetchSpec::Referenced
        } else {
            FetchSpec::All
        };
        let width = q.projection(switch_lanes(db, q).0, &spec).width();
        self.fetch_rows.push(r.fetch_rows as f64);
        self.fetch_mb
            .push((r.fetch_rows * width as u64 * 8) as f64 / 1e6);
        if let Some(res) = &r.resilience {
            self.dist_queries += 1;
            self.retransmissions += res.retransmissions;
            self.retries += res.retries;
            self.losses += res.losses;
            self.degraded += u64::from(res.degraded);
        }
    }

    fn add_pick(&mut self, shape: &'static str, arm: &'static str, workers: usize, shards: usize) {
        self.threads
            .push((workers * shards) as f64 / crate::stats::nproc() as f64);
        self.picks
            .entry(shape)
            .or_default()
            .insert((arm, workers, shards));
    }
}

/// The traced phase's span buffer, counters and the side executors the
/// probes call.
pub struct Probes {
    /// Spans recorded so far.
    pub tracer: Tracer,
    /// Counters read from reports.
    pub stats: LayerStats,
    config: PrunerConfig,
    workers: usize,
    planner: PlannerExecutor,
    spark: SparkExecutor,
    solo: CheetahExecutor,
    wire_baseline: Option<ShardedExecutor>,
    requests: u32,
    decide_turn: usize,
}

impl Probes {
    /// Probes streaming with `workers` partition streams; `wire_baseline`
    /// is the in-process twin of a distributed engine, if there is one.
    pub fn new(workers: usize, wire_baseline: Option<ShardedExecutor>) -> Self {
        let base = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        Probes {
            tracer: Tracer::with_capacity(SPAN_CAPACITY),
            stats: LayerStats::default(),
            config: PrunerConfig::default(),
            workers,
            planner: PlannerExecutor::new(base.clone()),
            spark: SparkExecutor::new(CostModel::default()),
            solo: base,
            wire_baseline,
            requests: 0,
            decide_turn: 0,
        }
    }

    fn next_request(&mut self) -> u32 {
        self.requests += 1;
        self.requests - 1
    }

    /// Record one timed query and probe the layers under it.
    pub fn after_query(
        &mut self,
        db: &Database,
        shape: &'static str,
        q: &Query,
        (start, end): (Instant, Instant),
        report: Option<&ExecutionReport>,
        spawns: u64,
    ) {
        let id = self.next_request();
        let span = self.tracer.record("query", start, end, ROOT, id, 1);
        self.stats.spawns.push(spawns as f64);
        if let Some(r) = report {
            self.stats.add_report(db, shape, q, r);
            if let Some(p) = &r.plan {
                self.stats.misprediction.push(p.misprediction());
                self.stats.add_pick(shape, p.arm, p.workers, p.shards);
            }
        }
        let planned = report.is_some_and(|r| r.plan.is_some());
        self.guard(|p| {
            if let Some(sharded) = &p.wire_baseline {
                p.tracer.time("sharded.execute", span, id, 1, || {
                    black_box(sharded.execute(db, q));
                });
            }
            let plan = p.probe_layers(db, q, span, id);
            if !planned {
                p.stats.add_pick(shape, plan.0, plan.1, plan.2);
            }
        });
    }

    /// Record one timed serving batch and probe the layers under it:
    /// each query alone on the deterministic executor, then the probes
    /// every query gets.
    pub fn after_batch(
        &mut self,
        db: &Database,
        shapes: &[&'static str],
        batch: &[Query],
        (start, end): (Instant, Instant),
        out: Option<&(Vec<ExecutionReport>, ServeReport)>,
        spawns: u64,
    ) {
        let id = self.next_request();
        let span = self
            .tracer
            .record("serve.batch", start, end, ROOT, id, batch.len() as u64);
        self.stats.batches += 1;
        if let Some((reports, agg)) = out {
            let s = &mut self.stats.serve;
            s.queries += agg.queries;
            s.packed += agg.packed;
            s.spilled += agg.spilled;
            s.shared_scans += agg.shared_scans;
            s.cache_hits += agg.cache_hits;
            s.cache_misses += agg.cache_misses;
            for ((shape, q), r) in shapes.iter().zip(batch).zip(reports) {
                self.stats.add_report(db, shape, q, r);
            }
        }
        for _ in batch {
            self.stats.spawns.push(spawns as f64 / batch.len() as f64);
        }
        self.guard(|p| {
            for (shape, q) in shapes.iter().zip(batch) {
                p.tracer.time("cheetah.solo", span, id, 1, || {
                    black_box(p.solo.execute(db, q));
                });
                let plan = p.probe_layers(db, q, span, id);
                p.stats.add_pick(shape, plan.0, plan.1, plan.2);
            }
        });
    }

    /// Record one table write.
    pub fn after_write(&mut self, start: Instant, end: Instant) {
        let id = self.requests.saturating_sub(1);
        self.tracer.record("table.replace", start, end, ROOT, id, 1);
    }

    fn guard(&mut self, f: impl FnOnce(&mut Probes)) {
        if catch_unwind(AssertUnwindSafe(|| f(self))).is_err() {
            self.stats.probe_panics += 1;
        }
    }

    /// The probes every request gets: stream fill and fingerprint on the
    /// query's lanes, one single-pass decision pass (shapes in turn),
    /// planning and its probe, and the Spark baseline. Returns the
    /// plan's (arm, workers, shards).
    fn probe_layers(
        &mut self,
        db: &Database,
        q: &Query,
        parent: u32,
        id: u32,
    ) -> (&'static str, usize, usize) {
        let fp = Fingerprinter::new(self.config.seed ^ 0xf1f1, 64);
        let mut stream = self.fill(db, q, parent, id);
        let n = stream.len() as u64;
        self.tracer.time("stream.fingerprint", parent, id, n, || {
            stream.fingerprint_lane(&fp)
        });
        drop(stream);

        let shape = SINGLE_PASS[self.decide_turn % SINGLE_PASS.len()];
        self.decide_turn += 1;
        let dq = query(shape);
        let stream = self.fill(db, &dq, parent, id);
        let mut pruner = single_pass_pruner(&self.config, &dq);
        let mut stats = PruneStats::default();
        self.tracer
            .time(decide_span(shape), parent, id, stream.len() as u64, || {
                stream.prune(pruner.as_mut(), &mut stats, |rid, _| {
                    black_box(rid);
                })
            });

        let (plan, _) = self
            .tracer
            .time("plan.plan", parent, id, 1, || self.planner.plan(db, q));
        self.tracer.time("plan.probe", parent, id, 1, || {
            black_box(PlanContext::probe(&self.planner.inner, db, q));
        });
        self.tracer.time("spark.execute", parent, id, 1, || {
            black_box(self.spark.execute(db, q));
        });
        let c = plan.chosen;
        (c.arm.label(), c.workers, c.shards)
    }

    fn fill(&mut self, db: &Database, q: &Query, parent: u32, id: u32) -> EntryStream {
        let (t, lanes) = switch_lanes(db, q);
        let workers = self.workers;
        let (stream, span) = self.tracer.time("stream.fill", parent, id, 0, || {
            EntryStream::interleaved(t, &lanes, workers)
        });
        self.tracer.set_items(span, stream.len() as u64);
        stream
    }
}

/// Every per-layer metric name with its unit, in output order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("stream.fill_ns_per_entry".into(), "ns"),
        ("stream.fingerprint_ns_per_entry".into(), "ns"),
    ];
    for s in SINGLE_PASS {
        out.push((format!("backend.decide_ns_per_entry.{s}"), "ns"));
    }
    for s in SINGLE_PASS.iter().chain(MULTIPASS.iter()) {
        out.push((format!("backend.prune_rate.{s}"), "ratio"));
    }
    for (n, u) in [
        ("cheetah.forwarded_frac", "ratio"),
        ("report.unattributed_ms", "ms"),
        ("threaded.switch_pass_ms", "ms"),
        ("threaded.spawns_per_query", "count"),
        ("sharded.merge_ms", "ms"),
        ("sharded.combine_ms", "ms"),
        ("plan.plan_ms", "ms"),
        ("plan.probe_ms", "ms"),
        ("plan.misprediction_median", "ratio"),
        ("plan.misprediction_max", "ratio"),
        ("plan.threads_chosen", "ratio"),
        ("plan.distinct_plans", "count"),
        ("table.fetch_rows", "count"),
        ("table.fetch_mb", "MB"),
        ("table.replace_ms", "ms"),
        ("serve.packed_frac", "ratio"),
        ("serve.spilled_frac", "ratio"),
        ("serve.cache_hit_rate", "ratio"),
        ("serve.shared_scans", "count"),
        ("serve.batch_vs_solo", "ratio"),
        ("distributed.wire_ms", "ms"),
        ("distributed.retransmissions", "count"),
        ("distributed.retries", "count"),
        ("distributed.losses", "count"),
        ("distributed.degraded_frac", "ratio"),
        ("spark.speedup", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ] {
        out.push((n.into(), u));
    }
    out
}

/// Derive every per-layer metric from the traced phase; `untraced_p50`
/// and `traced_p50` are the median request latencies of the untraced
/// and traced phases.
pub fn derive(p: &Probes, untraced_p50: f64, traced_p50: f64) -> Vec<Metric> {
    let t = &p.tracer;
    let s = &p.stats;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |n: &str, v: f64| {
        values.insert(n.to_string(), v);
    };
    put("stream.fill_ns_per_entry", t.ns_per_item("stream.fill"));
    put(
        "stream.fingerprint_ns_per_entry",
        t.ns_per_item("stream.fingerprint"),
    );
    for shape in SINGLE_PASS {
        put(
            &format!("backend.decide_ns_per_entry.{shape}"),
            t.ns_per_item(decide_span(shape)),
        );
    }
    for shape in SINGLE_PASS.iter().chain(MULTIPASS.iter()) {
        let rates = s.prune_rate.get(shape).map_or(&[][..], Vec::as_slice);
        put(&format!("backend.prune_rate.{shape}"), median(rates));
    }
    put(
        "cheetah.forwarded_frac",
        ratio(s.forwarded as f64, s.processed as f64),
    );
    put("report.unattributed_ms", median(&s.unattributed_ms));
    put("threaded.switch_pass_ms", mean(&s.switch_pass_ms));
    put("threaded.spawns_per_query", mean(&s.spawns));
    put("sharded.merge_ms", mean(&s.merge_ms));
    put("sharded.combine_ms", mean(&s.combine_ms));
    put("plan.plan_ms", median(&t.durs_ms("plan.plan")));
    put("plan.probe_ms", median(&t.durs_ms("plan.probe")));
    put("plan.misprediction_median", median(&s.misprediction));
    put(
        "plan.misprediction_max",
        s.misprediction.iter().copied().fold(0.0, f64::max),
    );
    put("plan.threads_chosen", median(&s.threads));
    let picks: Vec<f64> = s.picks.values().map(|p| p.len() as f64).collect();
    put("plan.distinct_plans", mean(&picks));
    put("table.fetch_rows", mean(&s.fetch_rows));
    put("table.fetch_mb", mean(&s.fetch_mb));
    put("table.replace_ms", median(&t.durs_ms("table.replace")));
    let served = s.serve.queries as f64;
    put("serve.packed_frac", ratio(s.serve.packed as f64, served));
    put("serve.spilled_frac", ratio(s.serve.spilled as f64, served));
    put("serve.cache_hit_rate", s.serve.cache_hit_rate());
    put(
        "serve.shared_scans",
        ratio(s.serve.shared_scans as f64, s.batches as f64),
    );
    put(
        "serve.batch_vs_solo",
        ratio(t.total_s("serve.batch"), t.total_s("cheetah.solo")),
    );
    // The in-process twin runs right after each distributed query, as a
    // child of its span: pair them by parent.
    let wire: Vec<f64> = t
        .named("sharded.execute")
        .filter_map(|sh| {
            let q = t.spans().get(sh.parent as usize)?;
            Some((q.dur_ns() as f64 - sh.dur_ns() as f64) / 1e6)
        })
        .collect();
    put("distributed.wire_ms", median(&wire));
    let dq = s.dist_queries as f64;
    put(
        "distributed.retransmissions",
        ratio(s.retransmissions as f64, dq),
    );
    put("distributed.retries", ratio(s.retries as f64, dq));
    put("distributed.losses", ratio(s.losses as f64, dq));
    put("distributed.degraded_frac", ratio(s.degraded as f64, dq));
    let system_s = t.total_s("query") + t.total_s("serve.batch");
    put("spark.speedup", ratio(t.total_s("spark.execute"), system_s));
    put(
        "trace.overhead_frac",
        ratio(traced_p50 - untraced_p50, untraced_p50),
    );
    names()
        .into_iter()
        .map(|(name, unit)| {
            let value = values[&name];
            Metric { name, unit, value }
        })
        .collect()
}
