//! Switch backend selection: run the query's pruning on the unconstrained
//! `cheetah-core` references or on the metered `cheetah-pisa` pipeline
//! programs. Results must be identical either way (the differential tests
//! guarantee the per-entry decisions are); the pisa backend additionally
//! proves the whole query fits the hardware constraints end to end.

use cheetah_core::decision::{Decision, RowPruner};
use cheetah_core::distinct::DistinctPruner;
use cheetah_core::filter::FilterPruner;
use cheetah_core::groupby::{Extremum, GroupByPruner};
use cheetah_core::having::HavingPruner;
use cheetah_core::join::{BloomFilter, JoinPruner, Side};
use cheetah_core::skyline::{Heuristic, SkylinePruner};
use cheetah_core::topn::{DeterministicTopN, RandomizedTopN};
use cheetah_core::SwitchModel;
use cheetah_pisa::programs::{
    BloomJoinProgram, DetTopNProgram, DistinctLruProgram, FilterProgram, GroupByProgram,
    HavingPhase, HavingProgram, JoinMode, RandTopNProgram, SkylineProgram, SkylineScoring,
    SwitchProgram,
};
use cheetah_pisa::ProgramPruner;

use crate::cheetah::PrunerConfig;
use crate::query::Predicate;

/// Which implementation family the switch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchBackend {
    /// Plain-Rust reference pruners (fast, used by the experiments).
    #[default]
    Reference,
    /// Metered PISA pipeline programs (every primitive budget-checked).
    Pisa,
}

/// Envelope for the pisa backend's single-pipeline programs.
fn spec() -> SwitchModel {
    SwitchModel::tofino_like()
}

/// SKYLINE needs more stages than one 12-stage pass (Table 2: 23 at the
/// default w=10); real Tofinos chain pipes / recirculate, modeled here as
/// a deeper envelope.
fn skyline_spec() -> SwitchModel {
    SwitchModel {
        stages: 40,
        ..SwitchModel::tofino2_like()
    }
}

/// Wrapper mapping the key through a nonzero-preserving encoding before a
/// pisa program (0 is the hardware empty-cell sentinel; the CWorker
/// applies the same shift on the wire).
struct NonzeroKey<P> {
    inner: P,
    /// Scratch lane holding the current block's shifted keys, reused
    /// across blocks so the shift costs no steady-state allocation.
    shifted: Vec<u64>,
}

impl<P> NonzeroKey<P> {
    fn new(inner: P) -> Self {
        NonzeroKey {
            inner,
            shifted: Vec::new(),
        }
    }
}

impl<P: RowPruner> RowPruner for NonzeroKey<P> {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        self.shifted.clear();
        self.shifted.extend_from_slice(row);
        self.shifted[0] = self.shifted[0].wrapping_add(1);
        let NonzeroKey { inner, shifted } = self;
        inner.process_row(shifted)
    }

    fn process_block(&mut self, cols: &[&[u64]], out: &mut [Decision]) {
        let NonzeroKey { inner, shifted } = self;
        shifted.clear();
        shifted.extend(cols[0].iter().map(|k| k.wrapping_add(1)));
        let mut swapped: Vec<&[u64]> = Vec::with_capacity(cols.len());
        swapped.push(shifted.as_slice());
        swapped.extend_from_slice(&cols[1..]);
        inner.process_block(&swapped, out);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// DISTINCT pruner under the chosen backend.
pub fn distinct(cfg: &PrunerConfig) -> Box<dyn RowPruner + Send> {
    match cfg.backend {
        SwitchBackend::Reference => Box::new(DistinctPruner::new(
            cfg.distinct_d,
            cfg.distinct_w,
            cfg.distinct_policy,
            cfg.seed,
        )),
        SwitchBackend::Pisa => Box::new(NonzeroKey::new(ProgramPruner::new(
            DistinctLruProgram::new(spec(), cfg.distinct_d, cfg.distinct_w, cfg.seed)
                .expect("distinct program fits"),
        ))),
    }
}

/// TOP N pruner (randomized or deterministic per the config).
pub fn topn(cfg: &PrunerConfig, n: usize) -> Box<dyn RowPruner + Send> {
    match (cfg.backend, cfg.topn_randomized) {
        (SwitchBackend::Reference, true) => {
            Box::new(RandomizedTopN::new(cfg.topn_d, cfg.topn_w, cfg.seed))
        }
        (SwitchBackend::Reference, false) => Box::new(DeterministicTopN::new(n as u64, cfg.topn_w)),
        (SwitchBackend::Pisa, true) => Box::new(ProgramPruner::new(
            RandTopNProgram::new(spec(), cfg.topn_d, cfg.topn_w, cfg.seed)
                .expect("topn program fits"),
        )),
        (SwitchBackend::Pisa, false) => Box::new(ProgramPruner::new(
            DetTopNProgram::new(spec(), n as u64, cfg.topn_w).expect("topn program fits"),
        )),
    }
}

/// GROUP BY MAX/MIN pruner.
pub fn groupby(cfg: &PrunerConfig, ext: Extremum) -> Box<dyn RowPruner + Send> {
    match cfg.backend {
        SwitchBackend::Reference => Box::new(GroupByPruner::new(
            cfg.groupby_d,
            cfg.groupby_w,
            ext,
            cfg.seed,
        )),
        SwitchBackend::Pisa => {
            // The wide-row scan touches 2w+1 cells in one stage — legal
            // only under Table 2's `*` shared-memory assumption, which we
            // model as a stage with matching ALU fan-out.
            let wide = SwitchModel {
                alus_per_stage: (2 * cfg.groupby_w as u32 + 1).max(spec().alus_per_stage),
                ..spec()
            };
            Box::new(NonzeroKey::new(ProgramPruner::new(
                GroupByProgram::new(wide, cfg.groupby_d, cfg.groupby_w, ext, cfg.seed)
                    .expect("groupby program fits"),
            )))
        }
    }
}

/// Filtering pruner over the predicate's switch-evaluable relaxation.
pub fn filter(cfg: &PrunerConfig, predicate: &Predicate) -> Box<dyn RowPruner + Send> {
    match cfg.backend {
        SwitchBackend::Reference => Box::new(
            FilterPruner::new(predicate.atoms.clone(), predicate.formula.clone())
                .expect("filter compiles"),
        ),
        SwitchBackend::Pisa => Box::new(ProgramPruner::new(
            FilterProgram::new(spec(), predicate.atoms.clone(), &predicate.formula)
                .unwrap_or_else(|e| panic!("filter program: {e:?}")),
        )),
    }
}

/// SKYLINE pruner (APH heuristic, as the evaluation uses).
pub fn skyline(cfg: &PrunerConfig, dims: usize) -> Box<dyn RowPruner + Send> {
    match cfg.backend {
        SwitchBackend::Reference => Box::new(SkylinePruner::new(
            dims,
            cfg.skyline_w,
            Heuristic::aph_default(),
        )),
        SwitchBackend::Pisa => Box::new(ProgramPruner::new(
            SkylineProgram::new(
                skyline_spec(),
                dims,
                cfg.skyline_w,
                SkylineScoring::Aph { frac_bits: 8 },
            )
            .expect("skyline program fits the deep envelope"),
        )),
    }
}

/// Two-pass HAVING flow under either backend.
pub enum HavingFlow {
    /// Core reference sketch.
    Core(HavingPruner),
    /// Metered pipeline program.
    Pisa(HavingProgram),
}

impl HavingFlow {
    /// Build for `HAVING SUM > threshold`.
    pub fn new(cfg: &PrunerConfig, threshold: u64) -> Self {
        match cfg.backend {
            SwitchBackend::Reference => HavingFlow::Core(HavingPruner::new(
                cfg.having_d,
                cfg.having_w,
                threshold,
                cfg.seed,
            )),
            SwitchBackend::Pisa => HavingFlow::Pisa(
                HavingProgram::new(spec(), cfg.having_d, cfg.having_w, threshold, cfg.seed)
                    .expect("having program fits"),
            ),
        }
    }

    /// Pass 1: fold an entry; forward = candidate announcement.
    pub fn pass_one(&mut self, key: u64, value: u64) -> Decision {
        match self {
            HavingFlow::Core(p) => p.pass_one(key, value),
            HavingFlow::Pisa(p) => p.process(&[key, value]).expect("no violations"),
        }
    }

    /// Switch to pass 2 (control-plane phase flip for the program).
    pub fn begin_pass_two(&mut self) {
        if let HavingFlow::Pisa(p) = self {
            p.set_phase(HavingPhase::PassTwo);
        }
    }

    /// Pass 2: forward candidate-key entries.
    pub fn pass_two(&mut self, key: u64, value: u64) -> Decision {
        match self {
            HavingFlow::Core(p) => p.pass_two(key),
            HavingFlow::Pisa(p) => p.process(&[key, value]).expect("no violations"),
        }
    }

    /// Pass-1 block loop: the backend dispatch happens once per block
    /// instead of once per entry. Bit-identical to per-entry
    /// [`Self::pass_one`] calls.
    pub fn pass_one_block(&mut self, keys: &[u64], vals: &[u64], out: &mut [Decision]) {
        match self {
            HavingFlow::Core(p) => p.pass_one_block(keys, vals, out),
            HavingFlow::Pisa(p) => {
                for ((d, &k), &v) in out.iter_mut().zip(keys).zip(vals) {
                    *d = p.process(&[k, v]).expect("no violations");
                }
            }
        }
    }

    /// Pass-2 block loop, bit-identical to per-entry [`Self::pass_two`].
    pub fn pass_two_block(&mut self, keys: &[u64], vals: &[u64], out: &mut [Decision]) {
        match self {
            HavingFlow::Core(p) => p.pass_two_block(keys, out),
            HavingFlow::Pisa(p) => {
                for ((d, &k), &v) in out.iter_mut().zip(keys).zip(vals) {
                    *d = p.process(&[k, v]).expect("no violations");
                }
            }
        }
    }

    /// Move the pass-1 pruner out for export into a cross-query cache.
    /// `None` on the pisa backend, whose register state lives inside the
    /// metered program — those runs bypass the cache.
    pub fn into_core(self) -> Option<HavingPruner> {
        match self {
            HavingFlow::Core(p) => Some(p),
            HavingFlow::Pisa(_) => None,
        }
    }
}

/// Two-pass JOIN flow under either backend.
pub enum JoinFlow {
    /// Core partitioned Bloom filters.
    Core(JoinPruner<BloomFilter>),
    /// Metered pipeline program.
    Pisa(BloomJoinProgram),
}

impl JoinFlow {
    /// Build with `m_bits` per side and `h` hashes.
    pub fn new(cfg: &PrunerConfig) -> Self {
        match cfg.backend {
            SwitchBackend::Reference => JoinFlow::Core(JoinPruner::new(
                BloomFilter::new(cfg.join_m_bits, cfg.join_h, cfg.seed),
                BloomFilter::new(cfg.join_m_bits, cfg.join_h, cfg.seed ^ 1),
            )),
            SwitchBackend::Pisa => JoinFlow::Pisa(
                BloomJoinProgram::new(spec(), cfg.join_m_bits, cfg.join_h, cfg.seed, cfg.seed ^ 1)
                    .expect("join program fits"),
            ),
        }
    }

    /// Pass 1: record a key on one side.
    pub fn observe(&mut self, side: Side, key: u64) {
        match self {
            JoinFlow::Core(p) => p.observe(side, key),
            JoinFlow::Pisa(p) => {
                p.set_mode(match side {
                    Side::Left => JoinMode::BuildA,
                    Side::Right => JoinMode::BuildB,
                });
                p.process(&[key]).expect("no violations");
            }
        }
    }

    /// Pass 2: prune a key against the opposite filter.
    pub fn probe(&mut self, side: Side, key: u64) -> Decision {
        match self {
            JoinFlow::Core(p) => p.prune_decision(side, key),
            JoinFlow::Pisa(p) => {
                p.set_mode(match side {
                    Side::Left => JoinMode::ProbeA,
                    Side::Right => JoinMode::ProbeB,
                });
                p.process(&[key]).expect("no violations")
            }
        }
    }

    /// Pass-1 block loop over `(flow id, key)` lanes (`sides[i]`: 0 = A,
    /// 1 = B): the backend dispatch happens once per block, and the core
    /// path inserts by runs of equal flow id. Bit-identical to per-entry
    /// [`Self::observe`] calls.
    pub fn observe_block(&mut self, sides: &[u64], keys: &[u64]) {
        match self {
            JoinFlow::Core(p) => p.observe_block(sides, keys),
            JoinFlow::Pisa(p) => {
                for (&s, &k) in sides.iter().zip(keys) {
                    p.set_mode(if s == 0 {
                        JoinMode::BuildA
                    } else {
                        JoinMode::BuildB
                    });
                    p.process(&[k]).expect("no violations");
                }
            }
        }
    }

    /// Move the pass-1 `(F_A, F_B)` pruner out for export into a
    /// cross-query cache, where it is probed by reference. `None` on the
    /// pisa backend, whose filter state lives inside the metered program —
    /// those runs bypass the cache.
    pub fn into_core(self) -> Option<JoinPruner<BloomFilter>> {
        match self {
            JoinFlow::Core(p) => Some(p),
            JoinFlow::Pisa(_) => None,
        }
    }

    /// Pass-2 block loop, bit-identical to per-entry [`Self::probe`].
    pub fn probe_block(&mut self, sides: &[u64], keys: &[u64], out: &mut [Decision]) {
        match self {
            JoinFlow::Core(p) => p.probe_block(sides, keys, out),
            JoinFlow::Pisa(p) => {
                for ((d, &s), &k) in out.iter_mut().zip(sides).zip(keys) {
                    p.set_mode(if s == 0 {
                        JoinMode::ProbeA
                    } else {
                        JoinMode::ProbeB
                    });
                    *d = p.process(&[k]).expect("no violations");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_build_under_both_backends() {
        for backend in [SwitchBackend::Reference, SwitchBackend::Pisa] {
            let cfg = PrunerConfig {
                backend,
                ..PrunerConfig::default()
            };
            let mut d = distinct(&cfg);
            assert!(d.process_row(&[5]).is_forward());
            assert!(d.process_row(&[5]).is_prune());
            let mut t = topn(&cfg, 10);
            assert!(t.process_row(&[100]).is_forward());
            let mut g = groupby(&cfg, Extremum::Max);
            assert!(g.process_row(&[1, 10]).is_forward());
            assert!(g.process_row(&[1, 5]).is_prune());
            let mut s = skyline(&cfg, 2);
            assert!(s.process_row(&[10, 10]).is_forward());
            assert!(s.process_row(&[1, 1]).is_prune());
        }
    }

    #[test]
    fn nonzero_shift_preserves_distinctness_for_zero_keys() {
        let cfg = PrunerConfig {
            backend: SwitchBackend::Pisa,
            ..PrunerConfig::default()
        };
        let mut d = distinct(&cfg);
        assert!(
            d.process_row(&[0]).is_forward(),
            "zero key first occurrence"
        );
        assert!(d.process_row(&[0]).is_prune(), "zero key duplicate");
        assert!(d.process_row(&[1]).is_forward(), "distinct from zero");
    }

    #[test]
    fn join_flow_equivalent_across_backends() {
        let run = |backend| {
            let cfg = PrunerConfig {
                backend,
                join_m_bits: 3 * (1 << 14),
                ..PrunerConfig::default()
            };
            let mut j = JoinFlow::new(&cfg);
            for k in 0..500u64 {
                j.observe(Side::Left, k);
                j.observe(Side::Right, k + 400);
            }
            (0..1_000u64)
                .map(|k| j.probe(Side::Left, k).is_forward())
                .collect::<Vec<bool>>()
        };
        assert_eq!(
            run(SwitchBackend::Reference),
            run(SwitchBackend::Pisa),
            "join decisions must match across backends"
        );
    }

    #[test]
    fn having_flow_equivalent_across_backends() {
        let entries: Vec<(u64, u64)> = (0..2_000).map(|i| (i % 37, (i * 13) % 100)).collect();
        let run = |backend| {
            let cfg = PrunerConfig {
                backend,
                ..PrunerConfig::default()
            };
            let mut h = HavingFlow::new(&cfg, 1_500);
            let mut decisions = Vec::new();
            for &(k, v) in &entries {
                decisions.push(h.pass_one(k, v).is_forward());
            }
            h.begin_pass_two();
            for &(k, v) in &entries {
                decisions.push(h.pass_two(k, v).is_forward());
            }
            decisions
        };
        assert_eq!(run(SwitchBackend::Reference), run(SwitchBackend::Pisa));
    }
}
