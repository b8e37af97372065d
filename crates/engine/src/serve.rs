//! Concurrent multi-query serving: admission, §6 TCAM packing, a bounded
//! executor pool, and a cross-query filter cache.
//!
//! Every executor in this engine runs exactly one query per call; a
//! switch serves *many* (§6: queries share the pipeline, split ALU/SRAM,
//! and a final stage selects the prune bit for the packet's flow id).
//! [`ServeExecutor`] is the front-end that turns a batch of queries into
//! switch work:
//!
//! 1. **Admission** groups compatible single-pass shapes (filter,
//!    distinct, top-n, group-by max/min, skyline) by table. Each group
//!    becomes **one** shared-scan task: one [`EntryStream`] pass over
//!    the union of the member queries' metadata columns, with per-query
//!    [`Decision`] lanes routed through
//!    [`cheetah_core::multiquery::MultiQueryPruner`] by flow id. The
//!    interleave permutation and block boundaries depend only on the
//!    table and worker count, so every packed query's decisions (and
//!    result) are bit-identical to a solo [`CheetahExecutor`] run.
//! 2. **Packing** admits each flow against the switch resource budget
//!    ([`SwitchModel`], Table 2 costs). Flows that don't fit spill to
//!    software: they run solo and are counted in
//!    [`ServeReport::spilled`].
//! 3. **Dispatch** puts the shared-scan tasks and then everything that
//!    can't share a scan (two-pass JOIN/HAVING, register-aggregating
//!    GROUP BY SUM/COUNT, spills, singleton groups — one executor call
//!    per query) on one queue, drained by a bounded worker pool, so no
//!    scan runs serially before the solo queries start. Results are
//!    delivered in admission order.
//! 4. **The filter cache** keys the Bloom-filter pair of a JOIN and the
//!    Count-Min sketch of a HAVING on `(table epochs, predicate
//!    fingerprint)`. Each entry is an `Arc` of the immutable pass-1
//!    pruner: a repeated predicate skips its observation pass and probes
//!    the cached state by reference, copying nothing; a miss runs both
//!    passes and then moves its pruner into the cache. This is correct
//!    because Bloom filters admit no false negatives and Count-Min never
//!    underestimates, so the cached pass-2 candidate sets are supersets
//!    that the master's exact completion filters identically. A
//!    table-epoch bump ([`crate::table::Table::epoch`]) invalidates the
//!    entry.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::fingerprint::Fingerprinter;
use cheetah_core::groupby::Extremum;
use cheetah_core::having::HavingPruner;
use cheetah_core::join::{BloomFilter, JoinPruner, Side};
use cheetah_core::multiquery::MultiQueryPruner;
use cheetah_core::resources::ResourceUsage;
use cheetah_core::SwitchModel;

use crate::backend::{self, HavingFlow, JoinFlow, SwitchBackend};
use crate::cheetah::{fetch_and_checksum, join_survivors, CheetahExecutor};
use crate::executor::{ExecutionReport, Executor, ServeReport};
use crate::query::{Agg, Predicate, Query, QueryResult};
use crate::reference::skyline_of;
use crate::stream::{fingerprint_rows, EntryStream, BLOCK_ENTRIES};
use crate::table::Database;

/// Report label for everything this front-end produces.
const NAME: &str = "serving";

/// Why a result slot's lock cannot be poisoned: its holders only move a
/// finished report in or out.
const SLOT_LOCK: &str = "slot lock holders only store a finished report, which cannot panic";

/// Why the filter cache's lock cannot be poisoned: its holders only run
/// `HashMap` lookups, removals and inserts, and clone an `Arc`.
const CACHE_LOCK: &str = "cache lock holders only run map lookups and inserts, which cannot panic";

/// One unit of work on the serving pool's queue.
enum Task<'q> {
    /// One shared stream pass over a packed table group.
    Scan {
        table: &'q str,
        packed: Vec<usize>,
        mq: MultiQueryPruner,
    },
    /// One query dispatched alone (batch index).
    Solo(usize),
}

/// The serving front-end over the [`Executor`] seam.
///
/// Construction is cheap; the cross-query cache lives inside and
/// persists across [`ServeExecutor::serve`] calls, so a long-lived
/// instance serves repeated predicates from cached switch state.
pub struct ServeExecutor {
    /// The underlying single-query pipeline (model + switch config).
    pub cheetah: CheetahExecutor,
    /// Switch resource budget the packing admits flows against.
    pub switch: SwitchModel,
    /// Bounded pool width for solo dispatch.
    pool: usize,
    cache: Mutex<FilterCache>,
}

impl std::fmt::Debug for ServeExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeExecutor")
            .field("pool", &self.pool)
            .field("switch", &self.switch)
            .finish()
    }
}

impl ServeExecutor {
    /// A serving layer over `cheetah` with the Tofino-like packing budget.
    /// The solo-dispatch pool width comes from the `SERVE_POOL`
    /// environment variable when set (the CI concurrency matrix runs
    /// `{1, 2, 8}`), else 4. Env-derived widths are clamped to ≥ 1 —
    /// `SERVE_POOL=0` (or garbage) must degrade to a working server,
    /// not panic it; the explicit [`ServeExecutor::with_pool`] API keeps
    /// its assert, since a programmatic zero is a caller bug.
    pub fn new(cheetah: CheetahExecutor) -> Self {
        let pool = std::env::var("SERVE_POOL")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(4, |p| p.max(1));
        ServeExecutor::with_pool(cheetah, pool)
    }

    /// A serving layer with an explicit solo-dispatch pool width.
    pub fn with_pool(cheetah: CheetahExecutor, pool: usize) -> Self {
        assert!(pool > 0, "need at least one pool worker");
        ServeExecutor {
            cheetah,
            switch: SwitchModel::tofino_like(),
            pool,
            cache: Mutex::new(FilterCache::default()),
        }
    }

    /// The configured solo-dispatch pool width.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Drop every cached filter/sketch (e.g. between benchmark reps).
    pub fn clear_cache(&self) {
        self.cache.lock().expect(CACHE_LOCK).entries.clear();
    }

    /// Serve a batch: admission → packing → one pool queue of shared
    /// scans and solo queries, with per-query reports returned **in
    /// admission order** plus the batch-level [`ServeReport`]. Every
    /// report's result is bit-identical to running that query alone
    /// through [`CheetahExecutor::execute`].
    pub fn serve(&self, db: &Database, queries: &[Query]) -> (Vec<ExecutionReport>, ServeReport) {
        let started = Instant::now();
        let mut agg = ServeReport {
            queries: queries.len() as u64,
            ..ServeReport::default()
        };
        let slots: Vec<Mutex<Option<ExecutionReport>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();

        // Admission: group shareable single-pass shapes by table; the
        // rest go straight to the solo pool.
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut solo: Vec<usize> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            match shareable_table(q) {
                Some(t) => groups.entry(t).or_default().push(i),
                None => solo.push(i),
            }
        }

        // Packing: one shared-scan task per table group with co-residents.
        let mut tasks: VecDeque<Task<'_>> = VecDeque::new();
        for (table, members) in groups {
            if members.len() < 2 {
                solo.extend(members);
                continue;
            }
            let mut mq = MultiQueryPruner::new();
            let mut packed: Vec<usize> = Vec::new();
            for &i in &members {
                let pruner = self.packed_pruner(&queries[i]);
                let res = self.packed_resources(&queries[i]);
                match mq.try_add(i as u16, pruner, res, &self.switch) {
                    Ok(()) => packed.push(i),
                    Err(_) => {
                        agg.spilled += 1;
                        solo.push(i);
                    }
                }
            }
            if packed.len() < 2 {
                // A lone survivor gains nothing from the shared machinery.
                solo.extend(packed);
                continue;
            }
            agg.packed += packed.len() as u64;
            agg.shared_scans += 1;
            tasks.push_back(Task::Scan { table, packed, mq });
        }
        agg.solo = solo.len() as u64;
        tasks.extend(solo.into_iter().map(Task::Solo));

        // Bounded pool: workers pull tasks off one queue, scans first;
        // results land in per-index slots, so scheduling order never
        // affects output.
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);
        let run = |task: Task<'_>| match task {
            Task::Scan {
                table,
                packed,
                mut mq,
            } => self.shared_scan(db, table, queries, &packed, &mut mq, &slots),
            Task::Solo(i) => {
                let report = self.run_solo(db, &queries[i], &hits, &misses);
                *slots[i].lock().expect(SLOT_LOCK) = Some(report);
            }
        };
        if tasks.len() == 1 {
            tasks.into_iter().for_each(run);
        } else {
            let workers = self.pool.min(tasks.len());
            let queue = Mutex::new(tasks);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let next = queue
                            .lock()
                            .expect("queue lock holders only pop a task, which cannot panic")
                            .pop_front();
                        let Some(task) = next else { break };
                        run(task);
                    });
                }
            });
        }
        agg.cache_hits = hits.load(Ordering::Relaxed);
        agg.cache_misses = misses.load(Ordering::Relaxed);
        agg.wall = started.elapsed();
        let reports = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(SLOT_LOCK)
                    .expect("every admitted query completes")
            })
            .collect();
        (reports, agg)
    }

    /// One shared stream pass over `members` (batch indices, all on table
    /// `tname`): union-column gather, per-flow block routing through the
    /// packed pruner, per-shape master completion. Mirrors
    /// [`EntryStream::prune`]'s block loop exactly, so each flow's
    /// decision sequence is bit-identical to its solo run.
    fn shared_scan(
        &self,
        db: &Database,
        tname: &str,
        queries: &[Query],
        members: &[usize],
        mq: &mut MultiQueryPruner,
        slots: &[Mutex<Option<ExecutionReport>>],
    ) {
        let t = db.table(tname);
        let workers = self.cheetah.model.workers;
        let cfg = &self.cheetah.config;

        // Union of the member queries' metadata columns, first-appearance
        // order, with each member's query-order mapping into it.
        let mut union_cols: Vec<usize> = Vec::new();
        let lanes: Vec<Vec<usize>> = members
            .iter()
            .map(|&i| {
                query_columns(&queries[i], t)
                    .into_iter()
                    .map(|c| match union_cols.iter().position(|&u| u == c) {
                        Some(l) => l,
                        None => {
                            union_cols.push(c);
                            union_cols.len() - 1
                        }
                    })
                    .collect()
            })
            .collect();
        let stream = EntryStream::interleaved(t, &union_cols, workers);

        // DistinctMulti flows prune on a fingerprint of their columns
        // (§5, Example 8) — derive each member's lane exactly as the solo
        // path does, over its columns in query order.
        let fp_lanes: Vec<Option<Vec<u64>>> = members
            .iter()
            .zip(&lanes)
            .map(|(&i, member_lanes)| {
                matches!(&queries[i], Query::DistinctMulti { .. }).then(|| {
                    let cols: Vec<&[u64]> = member_lanes.iter().map(|&l| stream.col(l)).collect();
                    let fp = Fingerprinter::new(cfg.seed ^ 0xf1f1, 64);
                    let mut lane = Vec::with_capacity(stream.len());
                    let mut scratch = Vec::with_capacity(cols.len());
                    fingerprint_rows(&cols, 0, stream.len(), &fp, &mut lane, &mut scratch);
                    lane
                })
            })
            .collect();

        let mut stats: Vec<PruneStats> = members.iter().map(|_| PruneStats::default()).collect();
        let mut states: Vec<Completion<'_>> = members
            .iter()
            .map(|&i| Completion::for_query(&queries[i]))
            .collect();

        // The block loop: same BLOCK_ENTRIES partitioning as the solo
        // stream (block boundaries depend only on stream length), one
        // decision scratch and one column-slice vector reused throughout.
        let n = stream.len();
        let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
        let mut colrefs: Vec<&[u64]> = Vec::with_capacity(union_cols.len().max(1));
        let mut start = 0;
        while start < n {
            let len = (n - start).min(BLOCK_ENTRIES);
            for (m, &i) in members.iter().enumerate() {
                colrefs.clear();
                match &fp_lanes[m] {
                    Some(lane) => colrefs.push(&lane[start..start + len]),
                    None => {
                        colrefs.extend(lanes[m].iter().map(|&l| &stream.col(l)[start..start + len]))
                    }
                }
                let out = &mut decisions[..len];
                mq.process_block(i as u16, &colrefs, out);
                stats[m].record_block(out);
                for (o, d) in out.iter().enumerate() {
                    if d.is_forward() {
                        states[m].on_forward(&stream, &lanes[m], start + o);
                    }
                }
            }
            start += len;
        }

        for (m, &i) in members.iter().enumerate() {
            let query = &queries[i];
            let rows = t.rows() as u64;
            let state = std::mem::replace(&mut states[m], Completion::Done);
            let mut report = match state {
                Completion::Count { count, .. } => {
                    self.cheetah
                        .report(query, rows, stats[m], 1, 0, QueryResult::Count(count))
                }
                Completion::Fetch { ids, .. } => {
                    let fetch = ids.len() as u64;
                    let proj = query.projection(t, &cfg.fetch);
                    let checksum = fetch_and_checksum(t, &proj, &ids);
                    let result = QueryResult::row_ids(ids);
                    let mut r = self.cheetah.report(query, rows, stats[m], 1, fetch, result);
                    r.fetch_checksum = Some(checksum);
                    r
                }
                Completion::Values(v) => {
                    if let Query::TopN { n, .. } = query {
                        let result = QueryResult::top_values(v, *n);
                        self.cheetah
                            .report(query, rows, stats[m], 1, *n as u64, result)
                    } else {
                        self.cheetah
                            .report(query, rows, stats[m], 1, 0, QueryResult::values(v))
                    }
                }
                Completion::Points(v) => {
                    let result = if matches!(query, Query::Skyline { .. }) {
                        QueryResult::points(skyline_of(&v))
                    } else {
                        QueryResult::points(v)
                    };
                    self.cheetah.report(query, rows, stats[m], 1, 0, result)
                }
                Completion::Groups { groups, .. } => {
                    self.cheetah
                        .report(query, rows, stats[m], 1, 0, QueryResult::Groups(groups))
                }
                Completion::Done => unreachable!("completion consumed once"),
            };
            report.executor = NAME;
            *slots[i].lock().expect(SLOT_LOCK) = Some(report);
        }
    }

    /// One solo query on a pool worker: cacheable two-pass flows go
    /// through the filter cache; everything else is a plain relabeled
    /// [`CheetahExecutor::execute`] call.
    fn run_solo(
        &self,
        db: &Database,
        query: &Query,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> ExecutionReport {
        // The cache stores reference-backend state; metered pisa runs
        // keep their registers inside the program and bypass it.
        if self.cheetah.config.backend == SwitchBackend::Reference {
            match query {
                Query::Having { .. } => return self.run_having_cached(db, query, hits, misses),
                Query::Join { .. } => return self.run_join_cached(db, query, hits, misses),
                _ => {}
            }
        }
        let mut report = self.cheetah.execute(db, query);
        report.executor = NAME;
        report
    }

    /// HAVING with sketch reuse: a hit probes the cached pruner by
    /// reference and runs pass 2 only; a miss runs both passes and moves
    /// its pruner into the cache. Identical sketch state ⇒ identical
    /// candidate decisions ⇒ the master's exact sums produce the same
    /// keys either way.
    fn run_having_cached(
        &self,
        db: &Database,
        query: &Query,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> ExecutionReport {
        let Query::Having {
            table,
            key,
            val,
            threshold,
        } = query
        else {
            unreachable!("caller matched Having")
        };
        let t = db.table(table);
        let cfg = &self.cheetah.config;
        let cache_key = query_fingerprint(query);
        let epochs = vec![(table.clone(), t.epoch())];
        let cached = self
            .cache
            .lock()
            .expect(CACHE_LOCK)
            .get_having(cache_key, &epochs);
        let stream = EntryStream::interleaved(
            t,
            &[t.col_index(key), t.col_index(val)],
            self.cheetah.model.workers,
        );
        let (keys, vals) = (stream.col(0), stream.col(1));
        let mut stats = PruneStats::default();
        let (pruner, missed) = match cached {
            Some(pruner) => {
                hits.fetch_add(1, Ordering::Relaxed);
                (pruner, false)
            }
            None => {
                misses.fetch_add(1, Ordering::Relaxed);
                let mut flow = HavingFlow::new(cfg, *threshold);
                for (&k, &v) in keys.iter().zip(vals) {
                    stats.record(flow.pass_one(k, v));
                }
                let pruner = flow.into_core().expect("cached flows run the core backend");
                (Arc::new(pruner), true)
            }
        };
        let mut sums: HashMap<u64, u64> = HashMap::new();
        for (&k, &v) in keys.iter().zip(vals) {
            let d = pruner.pass_two(k);
            stats.record(d);
            if d.is_forward() {
                *sums.entry(k).or_insert(0) += v;
            }
        }
        if missed {
            self.cache.lock().expect(CACHE_LOCK).put(
                cache_key,
                epochs,
                CachedState::Having(pruner),
            );
        }
        let result = QueryResult::keys(
            sums.into_iter()
                .filter(|&(_, s)| s > *threshold)
                .map(|(k, _)| k)
                .collect(),
        );
        let passes = 1 + u32::from(missed);
        let streamed = u64::from(passes) * t.rows() as u64;
        let mut report = self
            .cheetah
            .report(query, streamed, stats, passes, 0, result);
        report.executor = NAME;
        report
    }

    /// JOIN with Bloom-pair reuse: a hit probes the cached filters by
    /// reference and skips the build pass; a miss builds them and moves
    /// them into the cache. Bloom filters have no false negatives, so
    /// the cached probe forwards a superset that pairs to exactly the
    /// same `(pairs, checksum)` summary.
    fn run_join_cached(
        &self,
        db: &Database,
        query: &Query,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> ExecutionReport {
        let Query::Join {
            left,
            right,
            left_col,
            right_col,
        } = query
        else {
            unreachable!("caller matched Join")
        };
        let l = db.table(left);
        let r = db.table(right);
        let cfg = &self.cheetah.config;
        let workers = self.cheetah.model.workers;
        let cache_key = query_fingerprint(query);
        let epochs = vec![(left.clone(), l.epoch()), (right.clone(), r.epoch())];
        let cached = self
            .cache
            .lock()
            .expect(CACHE_LOCK)
            .get_join(cache_key, &epochs);
        let lstream = EntryStream::interleaved(l, &[l.col_index(left_col)], workers);
        let rstream = EntryStream::interleaved(r, &[r.col_index(right_col)], workers);
        let rows = (l.rows() + r.rows()) as u64;
        let (pruner, missed) = match cached {
            Some(pruner) => {
                hits.fetch_add(1, Ordering::Relaxed);
                (pruner, false)
            }
            None => {
                misses.fetch_add(1, Ordering::Relaxed);
                let mut flow = JoinFlow::new(cfg);
                for &k in lstream.col(0) {
                    flow.observe(Side::Left, k);
                }
                for &k in rstream.col(0) {
                    flow.observe(Side::Right, k);
                }
                let pruner = flow.into_core().expect("cached flows run the core backend");
                (Arc::new(pruner), true)
            }
        };
        let mut stats = PruneStats::default();
        let mut left_fwd: Vec<(u64, u64)> = Vec::new();
        for (&rid, &k) in lstream.row_ids().iter().zip(lstream.col(0)) {
            let d = pruner.prune_decision(Side::Left, k);
            stats.record(d);
            if d.is_forward() {
                left_fwd.push((k, rid));
            }
        }
        let mut right_fwd: Vec<(u64, u64)> = Vec::new();
        for (&rid, &k) in rstream.row_ids().iter().zip(rstream.col(0)) {
            let d = pruner.prune_decision(Side::Right, k);
            stats.record(d);
            if d.is_forward() {
                right_fwd.push((k, rid));
            }
        }
        if missed {
            self.cache
                .lock()
                .expect(CACHE_LOCK)
                .put(cache_key, epochs, CachedState::Join(pruner));
        }
        let (pairs, checksum) = join_survivors(left_fwd, right_fwd);
        let result = QueryResult::JoinSummary { pairs, checksum };
        let passes = 1 + u32::from(missed);
        let streamed = u64::from(passes) * rows;
        let mut report = self
            .cheetah
            .report(query, streamed, stats, passes, pairs, result);
        report.executor = NAME;
        report
    }

    /// The switch pruner a shareable query packs under its flow id —
    /// exactly the solo path's [`backend`] factory output.
    fn packed_pruner(&self, query: &Query) -> Box<dyn RowPruner + Send> {
        let cfg = &self.cheetah.config;
        match query {
            Query::FilterCount { predicate, .. } | Query::Filter { predicate, .. } => {
                backend::filter(cfg, predicate)
            }
            Query::Distinct { .. } | Query::DistinctMulti { .. } => backend::distinct(cfg),
            Query::TopN { n, .. } => backend::topn(cfg, *n),
            Query::GroupBy { agg, .. } => backend::groupby(
                cfg,
                if *agg == Agg::Max {
                    Extremum::Max
                } else {
                    Extremum::Min
                },
            ),
            Query::Skyline { columns, .. } => backend::skyline(cfg, columns.len()),
            _ => unreachable!("only shareable shapes are packed"),
        }
    }

    /// The Table 2 resource declaration the packing admits the flow with.
    fn packed_resources(&self, query: &Query) -> ResourceUsage {
        // One Table 2 mapping for the whole engine: the planner's total
        // resource declaration (shareable shapes only reach here, so the
        // two-pass arms of that mapping are never hit from this path).
        crate::plan::query_resources(&self.cheetah.config, &self.switch, query)
    }
}

impl Executor for ServeExecutor {
    fn name(&self) -> &'static str {
        "serving"
    }

    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let (mut reports, _) = self.serve(db, std::slice::from_ref(query));
        reports.pop().expect("batch of one yields one report")
    }
}

/// The table a query can share a single-pass scan on, `None` for shapes
/// that need their own dispatch (two-pass flows; GROUP BY SUM/COUNT's
/// register evictions speak a different block protocol).
fn shareable_table(q: &Query) -> Option<&str> {
    match q {
        Query::FilterCount { table, .. }
        | Query::Filter { table, .. }
        | Query::Distinct { table, .. }
        | Query::DistinctMulti { table, .. }
        | Query::TopN { table, .. }
        | Query::Skyline { table, .. } => Some(table),
        Query::GroupBy {
            table,
            agg: Agg::Max | Agg::Min,
            ..
        } => Some(table),
        _ => None,
    }
}

/// A shareable query's metadata columns, in query order (the solo
/// stream's column order, which fingerprints and predicate rows rely on).
fn query_columns(q: &Query, t: &crate::table::Table) -> Vec<usize> {
    match q {
        Query::FilterCount { predicate, .. } | Query::Filter { predicate, .. } => {
            predicate.columns.iter().map(|c| t.col_index(c)).collect()
        }
        Query::Distinct { column, .. } => vec![t.col_index(column)],
        Query::DistinctMulti { columns, .. } | Query::Skyline { columns, .. } => {
            columns.iter().map(|c| t.col_index(c)).collect()
        }
        Query::TopN { order_by, .. } => vec![t.col_index(order_by)],
        Query::GroupBy { key, val, .. } => vec![t.col_index(key), t.col_index(val)],
        _ => unreachable!("only shareable shapes stream"),
    }
}

/// Per-member master-completion state during a shared scan — the same
/// survivor handling as the solo arms, reading lanes straight off the
/// shared stream.
enum Completion<'q> {
    /// FilterCount: re-check the full predicate, count matches.
    Count {
        predicate: &'q Predicate,
        row: Vec<u64>,
        count: u64,
    },
    /// Filter: re-check, collect row ids for the §7.1 fetch.
    Fetch {
        predicate: &'q Predicate,
        row: Vec<u64>,
        ids: Vec<u64>,
    },
    /// Distinct / TopN: single-column survivors.
    Values(Vec<u64>),
    /// DistinctMulti / Skyline: survivor tuples.
    Points(Vec<Vec<u64>>),
    /// GroupBy MAX/MIN register re-aggregation.
    Groups {
        groups: BTreeMap<u64, u64>,
        max: bool,
    },
    /// Consumed (report already built).
    Done,
}

impl<'q> Completion<'q> {
    fn for_query(q: &'q Query) -> Self {
        match q {
            Query::FilterCount { predicate, .. } => Completion::Count {
                predicate,
                row: Vec::with_capacity(predicate.columns.len()),
                count: 0,
            },
            Query::Filter { predicate, .. } => Completion::Fetch {
                predicate,
                row: Vec::with_capacity(predicate.columns.len()),
                ids: Vec::new(),
            },
            Query::Distinct { .. } | Query::TopN { .. } => Completion::Values(Vec::new()),
            Query::DistinctMulti { .. } | Query::Skyline { .. } => Completion::Points(Vec::new()),
            Query::GroupBy { agg, .. } => Completion::Groups {
                groups: BTreeMap::new(),
                max: *agg == Agg::Max,
            },
            _ => unreachable!("only shareable shapes complete here"),
        }
    }

    fn on_forward(&mut self, stream: &EntryStream, lanes: &[usize], idx: usize) {
        match self {
            Completion::Count {
                predicate,
                row,
                count,
            } => {
                row.clear();
                row.extend(lanes.iter().map(|&l| stream.col(l)[idx]));
                if predicate.eval(row) {
                    *count += 1;
                }
            }
            Completion::Fetch {
                predicate,
                row,
                ids,
            } => {
                row.clear();
                row.extend(lanes.iter().map(|&l| stream.col(l)[idx]));
                if predicate.eval(row) {
                    ids.push(stream.row_ids()[idx]);
                }
            }
            Completion::Values(v) => v.push(stream.col(lanes[0])[idx]),
            Completion::Points(v) => {
                v.push(lanes.iter().map(|&l| stream.col(l)[idx]).collect());
            }
            Completion::Groups { groups, max } => {
                let k = stream.col(lanes[0])[idx];
                let val = stream.col(lanes[1])[idx];
                let e = groups.entry(k).or_insert(if *max { 0 } else { u64::MAX });
                *e = if *max { (*e).max(val) } else { (*e).min(val) };
            }
            Completion::Done => unreachable!("forward after completion"),
        }
    }
}

/// The cross-query filter cache: switch state keyed by the query's
/// structural fingerprint, guarded by the `(table, epoch)` set captured
/// at insert. Stale epochs evict on lookup.
#[derive(Default)]
struct FilterCache {
    entries: HashMap<u64, CacheEntry>,
}

struct CacheEntry {
    epochs: Vec<(String, u64)>,
    state: CachedState,
}

/// Immutable switch state a pass-1 run left behind. Entries are shared:
/// a hit probes them by reference, so serving one copies nothing.
enum CachedState {
    Join(Arc<JoinPruner<BloomFilter>>),
    Having(Arc<HavingPruner>),
}

impl FilterCache {
    fn get_having(&mut self, key: u64, epochs: &[(String, u64)]) -> Option<Arc<HavingPruner>> {
        match self.lookup(key, epochs)? {
            CachedState::Having(p) => Some(Arc::clone(p)),
            CachedState::Join(_) => None,
        }
    }

    fn get_join(
        &mut self,
        key: u64,
        epochs: &[(String, u64)],
    ) -> Option<Arc<JoinPruner<BloomFilter>>> {
        match self.lookup(key, epochs)? {
            CachedState::Join(p) => Some(Arc::clone(p)),
            CachedState::Having(_) => None,
        }
    }

    fn lookup(&mut self, key: u64, epochs: &[(String, u64)]) -> Option<&CachedState> {
        if let Some(entry) = self.entries.get(&key) {
            if entry.epochs != epochs {
                // The table changed underneath the cached state.
                self.entries.remove(&key);
                return None;
            }
        }
        self.entries.get(&key).map(|e| &e.state)
    }

    fn put(&mut self, key: u64, epochs: Vec<(String, u64)>, state: CachedState) {
        self.entries.insert(key, CacheEntry { epochs, state });
    }
}

/// FNV-1a over the query's structural debug form — two queries share
/// cached state iff they are the same shape over the same columns,
/// thresholds and tables.
fn query_fingerprint(q: &Query) -> u64 {
    let s = format!("{q:?}");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheetah::PrunerConfig;
    use crate::cost::CostModel;
    use crate::reference;
    use crate::table::Table;
    use cheetah_core::filter::{Atom, CmpOp, Formula};

    fn db(rows: usize) -> Database {
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", (0..rows as u64).map(|i| i * 7 % 83 + 1).collect()),
                ("v", (0..rows as u64).map(|i| i * 31 % 9_973).collect()),
                ("w", (0..rows as u64).map(|i| i * 13 % 499 + 1).collect()),
            ],
        ));
        db.add(Table::new(
            "s",
            vec![
                (
                    "k",
                    (0..rows as u64 / 2).map(|i| i * 11 % 140 + 40).collect(),
                ),
                ("x", (0..rows as u64 / 2).map(|i| i * 3 % 97).collect()),
            ],
        ));
        db
    }

    fn serve_exec() -> ServeExecutor {
        ServeExecutor::with_pool(
            CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
            2,
        )
    }

    fn mixed_batch() -> Vec<Query> {
        vec![
            Query::FilterCount {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 5_000)],
                    formula: Formula::Atom(0),
                },
            },
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 25,
            },
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 100_000,
            },
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        ]
    }

    #[test]
    fn batch_results_match_solo_runs_in_admission_order() {
        let db = db(6_000);
        let exec = serve_exec();
        let batch = mixed_batch();
        let (reports, agg) = exec.serve(&db, &batch);
        assert_eq!(reports.len(), batch.len());
        for (q, r) in batch.iter().zip(&reports) {
            assert_eq!(
                r.result,
                reference::evaluate(&db, q),
                "{} diverged",
                q.kind()
            );
            assert_eq!(r.executor, "serving");
        }
        assert_eq!(agg.queries, 5);
        assert_eq!(agg.packed, 3, "three single-pass shapes share table t");
        assert_eq!(agg.shared_scans, 1);
        assert_eq!(agg.solo, 2, "two-pass shapes dispatch solo");
        assert_eq!(agg.cache_misses, 2, "cold cache: both cacheable flows miss");
        assert_eq!(agg.cache_hits, 0);
    }

    #[test]
    fn repeated_batch_hits_the_cache_with_identical_results() {
        let db = db(4_000);
        let exec = serve_exec();
        let batch = mixed_batch();
        let (first, cold) = exec.serve(&db, &batch);
        let (second, warm) = exec.serve(&db, &batch);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(warm.cache_hits, 2, "join + having reuse cached state");
        assert_eq!(warm.cache_misses, 0);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.result, b.result, "cache reuse changed a result");
        }
        assert!(warm.cache_hit_rate() > 0.99);
    }

    #[test]
    fn epoch_bump_invalidates_cached_state() {
        let mut db = db(4_000);
        let exec = serve_exec();
        let batch = mixed_batch();
        exec.serve(&db, &batch);
        let extra = vec![0u64; db.table("t").rows()];
        db.table_mut("t").add_column("z", extra);
        let (reports, agg) = exec.serve(&db, &batch);
        assert_eq!(
            agg.cache_hits, 0,
            "epoch bump must invalidate every entry touching t"
        );
        assert_eq!(agg.cache_misses, 2);
        for (q, r) in batch.iter().zip(&reports) {
            assert_eq!(r.result, reference::evaluate(&db, q));
        }
    }

    #[test]
    fn spill_keeps_results_correct_and_is_counted() {
        // Skyline at the default w=10 needs 21 stages (Table 2) — more
        // than the 12-stage Tofino budget, so it always spills while its
        // co-resident flows stay packed.
        let db = db(3_000);
        let exec = serve_exec();
        let batch = vec![
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 10,
            },
            Query::Skyline {
                table: "t".into(),
                columns: vec!["v".into(), "w".into()],
            },
        ];
        let (reports, agg) = exec.serve(&db, &batch);
        assert_eq!(agg.spilled, 1, "skyline exceeds the stage budget");
        assert_eq!(agg.packed, 2);
        assert_eq!(agg.solo, 1);
        for (q, r) in batch.iter().zip(&reports) {
            assert_eq!(
                r.result,
                reference::evaluate(&db, q),
                "{} diverged",
                q.kind()
            );
        }
    }

    #[test]
    fn executor_trait_batch_of_one() {
        let db = db(2_000);
        let exec = serve_exec();
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let r = Executor::execute(&exec, &db, &q);
        assert_eq!(r.executor, "serving");
        assert_eq!(r.result, reference::evaluate(&db, &q));
        assert_eq!(exec.name(), "serving");
    }

    #[test]
    fn env_pool_widths_clamp_instead_of_panicking() {
        // One test fn for every SERVE_POOL value — env vars are process
        // globals, so probing them from parallel tests would race.
        let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        for (val, want) in [("0", 1), ("garbage", 4), ("3", 3), ("-2", 4)] {
            std::env::set_var("SERVE_POOL", val);
            let exec = ServeExecutor::new(cheetah.clone());
            assert_eq!(exec.pool(), want, "SERVE_POOL={val}");
        }
        std::env::remove_var("SERVE_POOL");
        assert_eq!(ServeExecutor::new(cheetah.clone()).pool(), 4, "default");
        // A clamped server still serves.
        std::env::set_var("SERVE_POOL", "0");
        let exec = ServeExecutor::new(cheetah);
        std::env::remove_var("SERVE_POOL");
        let db = db(500);
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let r = Executor::execute(&exec, &db, &q);
        assert_eq!(r.result, reference::evaluate(&db, &q));
    }

    #[test]
    #[should_panic(expected = "at least one pool worker")]
    fn explicit_zero_pool_is_still_a_caller_bug() {
        let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        ServeExecutor::with_pool(cheetah, 0);
    }

    #[test]
    fn serve_report_rates() {
        let mut r = ServeReport::default();
        assert_eq!(r.queries_per_sec(), 0.0);
        assert_eq!(r.cache_hit_rate(), 0.0);
        r.queries = 10;
        r.wall = std::time::Duration::from_millis(100);
        assert!((r.queries_per_sec() - 100.0).abs() < 1e-9);
        r.cache_hits = 3;
        r.cache_misses = 1;
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-9);
    }
}
