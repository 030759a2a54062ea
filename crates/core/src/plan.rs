//! Declarative experiment plans.
//!
//! Every driver used to hand-roll the same loop: enumerate a lattice of
//! (CPU, workload, mitigation-config) cells and call the harness on each
//! one, serially. A [`CellSpec`] turns one lattice point into *data* —
//! its [`RunContext`], a seed, and a pure compute closure — and an
//! [`ExperimentPlan`] is the whole lattice. The [`crate::executor`]
//! consumes plans: it schedules cells across a worker pool, memoizes
//! results in a content-addressed cache, and journals completions, while
//! the driver's *reduce* step (noise wrapping, ratios, attribution)
//! stays pure and runs over the returned [`CellOutcome`]s in plan order.
//!
//! The cache key deliberately drops the experiment name: a cell's value
//! is determined by (CPU, workload, config, seed) alone, so the
//! mitigations-off anchor that Figure 2, the ablations, and the SMT
//! trade-off all request is simulated exactly once per sweep.

use std::sync::Arc;

use crate::harness::{ExperimentError, RunContext};
use crate::stats::Measurement;

/// The value a cell can produce. One variant per result shape the 13
/// drivers need; typed accessors reject shape mismatches with an
/// [`ExperimentError`] instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// A noise-wrapped measurement (mean ± 95% CI over its samples).
    Measurement(Measurement),
    /// One deterministic scalar (a geomean, a score, cycles/op).
    Num(f64),
    /// A fixed-length vector of scalars.
    Nums(Vec<f64>),
    /// Scalars where `None` means "not applicable on this part".
    OptNums(Vec<Option<f64>>),
    /// Raw counters (cycles, exits, syscalls, encoded probe results).
    Ints(Vec<u64>),
    /// Table 1-style cells: used / needed-but-off / empty.
    Flags(Vec<Option<bool>>),
}

impl CellValue {
    /// Short tag used in journal lines and shape-mismatch errors.
    pub fn kind(&self) -> &'static str {
        match self {
            CellValue::Measurement(_) => "meas",
            CellValue::Num(_) => "num",
            CellValue::Nums(_) => "nums",
            CellValue::OptNums(_) => "optnums",
            CellValue::Ints(_) => "ints",
            CellValue::Flags(_) => "flags",
        }
    }

    /// True if any contained float is non-finite (the executor rejects
    /// such values so corrupt data cannot reach a table).
    pub fn is_degenerate(&self) -> bool {
        match self {
            CellValue::Measurement(m) => !m.mean.is_finite() || !m.ci95.is_finite(),
            CellValue::Num(x) => !x.is_finite(),
            CellValue::Nums(xs) => xs.iter().any(|x| !x.is_finite()),
            CellValue::OptNums(xs) => xs.iter().flatten().any(|x| !x.is_finite()),
            CellValue::Ints(_) | CellValue::Flags(_) => false,
        }
    }

    fn mismatch(&self, ctx: &RunContext, wanted: &'static str) -> ExperimentError {
        ExperimentError::DegenerateStatistics {
            ctx: ctx.clone(),
            detail: format!("expected a {wanted} cell, got {}", self.kind()),
        }
    }

    /// The scalar, or a shape-mismatch error.
    pub fn as_num(&self, ctx: &RunContext) -> Result<f64, ExperimentError> {
        match self {
            CellValue::Num(x) => Ok(*x),
            other => Err(other.mismatch(ctx, "num")),
        }
    }

    /// The optional-scalar vector, or a shape-mismatch error.
    pub fn as_opt_nums(&self, ctx: &RunContext) -> Result<&[Option<f64>], ExperimentError> {
        match self {
            CellValue::OptNums(xs) => Ok(xs),
            other => Err(other.mismatch(ctx, "optnums")),
        }
    }

    /// The counter vector, or a shape-mismatch error.
    pub fn as_ints(&self, ctx: &RunContext) -> Result<&[u64], ExperimentError> {
        match self {
            CellValue::Ints(xs) => Ok(xs),
            other => Err(other.mismatch(ctx, "ints")),
        }
    }

    /// The flag vector, or a shape-mismatch error.
    pub fn as_flags(&self, ctx: &RunContext) -> Result<&[Option<bool>], ExperimentError> {
        match self {
            CellValue::Flags(xs) => Ok(xs),
            other => Err(other.mismatch(ctx, "flags")),
        }
    }
}

/// The compute closure of a cell: attempt index in, value out. Pure up
/// to determinism — given the same cell and attempt it must produce the
/// same value, which is what makes caching and parallel scheduling
/// invisible.
pub type CellFn = Arc<dyn Fn(u32) -> Result<CellValue, ExperimentError> + Send + Sync>;

/// One declarative lattice cell: where it lives ([`RunContext`]), the
/// seed that (together with the content key) addresses its cached
/// value, and how to compute it.
#[derive(Clone)]
pub struct CellSpec {
    /// Full cell identity (`experiment/cpu/workload/[config]`); the
    /// experiment segment is used for fault injection and error
    /// attribution but *not* for caching.
    pub ctx: RunContext,
    /// Seed folded into the cache/journal key. Deterministic raw
    /// simulations use 0; seeded cells must put every value-determining
    /// seed here so a stale journal entry cannot be replayed.
    pub seed: u64,
    /// A cell the driver's reduce step cannot bridge over (lattice
    /// anchors): the panic circuit breaker still attempts these when
    /// open, because skipping one aborts the whole artifact — the
    /// opposite of the breaker's degrade-gracefully purpose.
    pub critical: bool,
    compute: CellFn,
}

impl std::fmt::Debug for CellSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellSpec")
            .field("ctx", &self.ctx)
            .field("seed", &self.seed)
            .field("critical", &self.critical)
            .finish_non_exhaustive()
    }
}

impl CellSpec {
    /// Builds a cell from its context, seed, and compute closure.
    pub fn new(
        ctx: RunContext,
        seed: u64,
        compute: impl Fn(u32) -> Result<CellValue, ExperimentError> + Send + Sync + 'static,
    ) -> CellSpec {
        CellSpec { ctx, seed, critical: false, compute: Arc::new(compute) }
    }

    /// Marks the cell critical: the panic circuit breaker must attempt
    /// it even when open, because no reduce step can bridge over it.
    pub fn critical(mut self) -> CellSpec {
        self.critical = true;
        self
    }

    /// The content-addressed cache key: the cell key *minus* the
    /// experiment segment, plus the seed. Two experiments requesting
    /// the same (CPU, workload, config, seed) share one simulation.
    pub fn cache_key(&self) -> (String, u64) {
        (self.ctx.content_key(), self.seed)
    }

    /// Runs the compute closure for one attempt.
    pub fn compute(&self, attempt: u32) -> Result<CellValue, ExperimentError> {
        (self.compute)(attempt)
    }
}

/// A whole experiment as data: its name and the lattice cells it needs.
/// The driver's reduce step consumes the executor's outcomes in the
/// same order the cells were pushed.
#[derive(Debug, Clone, Default)]
pub struct ExperimentPlan {
    /// Experiment driver name (e.g. `"figure2"`).
    pub experiment: String,
    /// Cells in enumeration order; outcomes come back in this order.
    pub cells: Vec<CellSpec>,
}

impl ExperimentPlan {
    /// An empty plan for `experiment`.
    pub fn new(experiment: &str) -> ExperimentPlan {
        ExperimentPlan { experiment: experiment.to_string(), cells: Vec::new() }
    }

    /// Appends a cell and returns its index (= its outcome's index).
    pub fn push(&mut self, cell: CellSpec) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Where a cell's value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Simulated in this sweep.
    Fresh,
    /// Served from the in-memory cross-experiment cache (includes
    /// duplicate cells within one plan).
    Cache,
    /// Replayed from a resume journal.
    Journal,
}

/// The executor's verdict on one cell, in plan order.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's identity (with the experiment segment).
    pub ctx: RunContext,
    /// The value, or why the cell failed permanently.
    pub value: Result<CellValue, ExperimentError>,
    /// Extra attempts the harness needed (0 on a first-try success or a
    /// cache/journal hit).
    pub retries: u32,
    /// Fresh, cached, or journaled.
    pub source: CellSource,
}

impl CellOutcome {
    /// The scalar value, propagating cell failure or shape mismatch.
    pub fn num(&self) -> Result<f64, ExperimentError> {
        match &self.value {
            Ok(v) => v.as_num(&self.ctx),
            Err(e) => Err(e.clone()),
        }
    }

    /// The counter vector, propagating cell failure or shape mismatch.
    pub fn ints(&self) -> Result<&[u64], ExperimentError> {
        match &self.value {
            Ok(v) => v.as_ints(&self.ctx),
            Err(e) => Err(e.clone()),
        }
    }

    /// The optional-scalar vector, propagating failure or mismatch.
    pub fn opt_nums(&self) -> Result<&[Option<f64>], ExperimentError> {
        match &self.value {
            Ok(v) => v.as_opt_nums(&self.ctx),
            Err(e) => Err(e.clone()),
        }
    }

    /// The flag vector, propagating failure or mismatch.
    pub fn flags(&self) -> Result<&[Option<bool>], ExperimentError> {
        match &self.value {
            Ok(v) => v.as_flags(&self.ctx),
            Err(e) => Err(e.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_drops_the_experiment_segment() {
        let a = CellSpec::new(
            RunContext::new("figure2", "Broadwell", "lebench", "default"),
            0,
            |_| Ok(CellValue::Num(1.0)),
        );
        let b = CellSpec::new(
            RunContext::new("ablations", "Broadwell", "lebench", "default"),
            0,
            |_| Ok(CellValue::Num(1.0)),
        );
        assert_eq!(a.cache_key(), b.cache_key());
        // ...but the seed still separates.
        let c = CellSpec { seed: 7, ..b.clone() };
        assert_ne!(b.cache_key(), c.cache_key());
    }

    #[test]
    fn accessors_reject_shape_mismatches() {
        let ctx = RunContext::new("t", "c", "w", "");
        let v = CellValue::Num(2.0);
        assert_eq!(v.as_num(&ctx).map_err(|_| ()), Ok(2.0));
        assert!(v.as_ints(&ctx).is_err());
        assert!(CellValue::Ints(vec![1]).as_num(&ctx).is_err());
        assert!(CellValue::Num(f64::NAN).is_degenerate());
        assert!(!CellValue::Ints(vec![1, 2]).is_degenerate());
        assert!(CellValue::OptNums(vec![None, Some(f64::INFINITY)]).is_degenerate());
    }
}
