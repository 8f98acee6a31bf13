//! The oracle interface between the type-checker and the search system.
//!
//! This is the architectural boundary of the paper (Figure 1): the
//! changer "simply uses the existing type-checker as an oracle to see if
//! a change type-checks". `seminal-core` depends only on this trait —
//! never on inference internals — which is what keeps the approach free
//! of type-checker modifications.

use crate::error::{TypeError, TypeErrorKind};
use crate::infer::check_program;
use seminal_ml::ast::Program;
use seminal_ml::span::Span;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// The three-valued verdict of one fault-isolated probe.
///
/// The search layers never call an oracle bare on the probe path: every
/// probe runs under a panic guard ([`guarded_probe`]) and an oracle that
/// panics yields `Faulted` instead of unwinding into the search. A
/// `Faulted` verdict is counted in `probe_faults` and treated as "did
/// not type-check" by the search — the conservative reading that can
/// suppress a suggestion but never fabricate one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOutcome {
    /// The variant type-checked.
    Pass,
    /// The variant did not type-check.
    Fail,
    /// The oracle panicked on this variant; the panic was isolated.
    Faulted,
}

impl ProbeOutcome {
    /// Whether the variant type-checked (`Faulted` reads as "no").
    pub fn passed(self) -> bool {
        matches!(self, ProbeOutcome::Pass)
    }

    /// Whether the verdict was synthesized from an isolated panic.
    pub fn faulted(self) -> bool {
        matches!(self, ProbeOutcome::Faulted)
    }

    /// Collapses an oracle verdict (no fault involved).
    pub fn from_verdict<E>(verdict: &Result<(), E>) -> ProbeOutcome {
        if verdict.is_ok() {
            ProbeOutcome::Pass
        } else {
            ProbeOutcome::Fail
        }
    }
}

/// Runs one probe under a panic guard: a panicking oracle yields
/// [`ProbeOutcome::Faulted`] instead of unwinding into the search.
///
/// `AssertUnwindSafe` is sound here because the oracle is only observed
/// through `&self` afterwards and the trait contract requires interior
/// mutability to be panic-consistent (the built-in oracles hold atomics
/// or locks that the guard never leaves mid-update).
pub fn guarded_probe<O: Oracle + ?Sized>(oracle: &O, prog: &Program) -> ProbeOutcome {
    match catch_unwind(AssertUnwindSafe(|| oracle.check(prog))) {
        Ok(verdict) => ProbeOutcome::from_verdict(&verdict),
        Err(_) => ProbeOutcome::Faulted,
    }
}

/// Like [`Oracle::check`] but with panic isolation: a panicking oracle
/// yields a synthesized [`TypeErrorKind::OracleFault`] error (at the
/// dummy span) so callers that need the concrete baseline error — not
/// just a verdict — can keep going. Distinguish real errors from
/// isolated faults with [`TypeError::is_fault`].
///
/// # Errors
///
/// The oracle's own [`TypeError`] when the program is ill-typed, or the
/// synthesized fault error when the oracle panicked.
pub fn guarded_check<O: Oracle + ?Sized>(oracle: &O, prog: &Program) -> Result<(), TypeError> {
    catch_unwind(AssertUnwindSafe(|| oracle.check(prog)))
        .unwrap_or(Err(TypeError { kind: TypeErrorKind::OracleFault, span: Span::DUMMY }))
}

/// Counters published by an incremental oracle (see
/// [`crate::incremental::CheckpointedOracle`]): cumulative since
/// construction, read via [`Oracle::incremental_stats`]. The search layer
/// snapshots them around a run and reports the deltas under the
/// `oracle.incremental_hits` / `oracle.decls_recheck` /
/// `oracle.rollback_ns` metric keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Probes that reused a checked prefix (including ones answered
    /// entirely from cache).
    pub incremental_hits: u64,
    /// Declarations actually re-inferred across all checks.
    pub decls_recheck: u64,
    /// Nanoseconds spent rolling state back after tail re-inference.
    pub rollback_ns: u64,
}

/// A black-box type checker.
///
/// Oracles are `Send + Sync`: one oracle can serve concurrent searches
/// (the serve daemon's connections share one memo-backed stack), so
/// `check` must be callable concurrently. Oracles carrying mutable state
/// (counters, caches) use interior mutability with atomics or locks, as
/// [`CountingOracle`] does.
pub trait Oracle: Send + Sync {
    /// Type-checks the whole program, returning the first error if any.
    ///
    /// # Errors
    ///
    /// The first [`TypeError`] in inference order.
    fn check(&self, prog: &Program) -> Result<(), TypeError>;

    /// Incremental-oracle counters, when an incremental oracle sits
    /// somewhere in this oracle stack. Wrappers forward to their inner
    /// oracle; leaf oracles without incremental state return `None`.
    fn incremental_stats(&self) -> Option<IncrementalStats> {
        None
    }
}

/// The real checker from [`crate::infer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TypeCheckOracle;

impl TypeCheckOracle {
    /// Creates the standard oracle.
    pub fn new() -> TypeCheckOracle {
        TypeCheckOracle
    }
}

impl Oracle for TypeCheckOracle {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        check_program(prog)
    }
}

/// Wraps an oracle and counts calls — the cost metric of the paper's
/// efficiency discussion (search cost ≈ number of type-checker runs).
/// The counter is atomic so the wrapper stays a valid (`Sync`)
/// [`Oracle`].
#[derive(Debug, Default)]
pub struct CountingOracle<O> {
    inner: O,
    calls: AtomicU64,
}

impl<O: Oracle> CountingOracle<O> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: O) -> CountingOracle<O> {
        CountingOracle { inner, calls: AtomicU64::new(0) }
    }

    /// Number of `check` calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }

    /// Unwraps the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> Oracle for CountingOracle<O> {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.check(prog)
    }

    fn incremental_stats(&self) -> Option<IncrementalStats> {
        self.inner.incremental_stats()
    }
}

impl<O: Oracle + ?Sized> Oracle for &O {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        (**self).check(prog)
    }

    fn incremental_stats(&self) -> Option<IncrementalStats> {
        (**self).incremental_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;

    #[test]
    fn oracle_accepts_well_typed() {
        let prog = parse_program("let x = 1 + 2").unwrap();
        assert!(TypeCheckOracle::new().check(&prog).is_ok());
    }

    #[test]
    fn oracle_rejects_ill_typed() {
        let prog = parse_program("let x = 1 + true").unwrap();
        assert!(TypeCheckOracle::new().check(&prog).is_err());
    }

    #[test]
    fn counting_oracle_counts() {
        let prog = parse_program("let x = 1").unwrap();
        let oracle = CountingOracle::new(TypeCheckOracle::new());
        for _ in 0..3 {
            oracle.check(&prog).unwrap();
        }
        assert_eq!(oracle.calls(), 3);
        oracle.reset();
        assert_eq!(oracle.calls(), 0);
    }
}
