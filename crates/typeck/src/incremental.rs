//! The incremental oracle: checkpointed re-inference over a shared
//! declaration prefix.
//!
//! A search probes hundreds of variants of one program, and almost every
//! variant differs from the base in a single declaration. The scratch
//! oracle re-infers the whole program per probe; this module's
//! [`CheckpointedOracle`] instead keeps a chain of [`InferState`]
//! snapshots at declaration boundaries, finds the longest prefix a probe
//! shares with the chain (pointer equality on `Arc<Decl>` handles first,
//! span-aware content fingerprints as the fallback), and re-infers only
//! from the first differing declaration forward — under a
//! [`Unifier::checkpoint`] that is rolled back afterwards, so the
//! snapshot is byte-identical for the next probe.
//!
//! Identity with the scratch oracle is a hard contract (the testkit's
//! `incremental-scratch-identity` differential oracle pins it): the
//! whole-program checker is itself implemented as "initial state, then
//! [`InferState::check_decl`] per declaration", so resuming from a
//! snapshot replays exactly the instructions a scratch run would
//! execute. Spans are part of the prefix-match key because type errors
//! carry them; node ids are not because inference never reads them.
//!
//! Concurrency: the chain sits behind a `Mutex`. When several threads
//! share one oracle and call `check` at once, whoever holds the lock
//! gets the incremental path and everyone else falls back to a scratch
//! check (correct, just uncached). A panic that unwinds through the lock
//! (injected chaos, a checker bug) poisons the mutex; the next call
//! resets the chain wholesale, so a half-rolled-back trail can never
//! leak into a later probe.

use crate::error::TypeError;
use crate::fingerprint::decl_fingerprint_spanned;
use crate::infer::{check_program, InferState};
use crate::oracle::{IncrementalStats, Oracle};
use seminal_ml::ast::{Decl, Program};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Snapshot chain for one base program: `states[i]` is the inference
/// state after checking declarations `0..i` of `decls`. The chain is
/// seeded by the first program checked (the search's base program) and
/// extends only while declarations keep checking clean — after the first
/// failing declaration no further state exists to snapshot.
#[derive(Debug, Default)]
struct Chain {
    decls: Vec<Arc<Decl>>,
    /// Span-aware content fingerprint per base declaration.
    fps: Vec<u64>,
    /// Boundary snapshots; `states.len() == k + 1` where `k` is the
    /// number of leading declarations known to check clean.
    states: Vec<InferState>,
    /// First failing declaration of the base, with its error.
    err: Option<(usize, TypeError)>,
}

impl Chain {
    fn seeded(&self) -> bool {
        !self.states.is_empty()
    }

    /// Builds the chain from `prog`, returning its verdict.
    fn seed(&mut self, prog: &Program) -> Result<(), TypeError> {
        self.decls = prog.decls.clone();
        self.fps = prog.decls.iter().map(|d| decl_fingerprint_spanned(d)).collect();
        self.states = vec![InferState::initial()];
        self.err = None;
        for (i, d) in prog.decls.iter().enumerate() {
            let mut next = self.states[i].clone();
            match next.check_decl(d) {
                Ok(()) => self.states.push(next),
                Err(e) => {
                    self.err = Some((i, e.clone()));
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Length of the prefix `prog` shares with the base: leading
    /// declarations that are the same `Arc` or have the same span-aware
    /// fingerprint. Stops at the first mismatch, so at most one probe
    /// declaration is fingerprinted per call.
    fn shared_prefix(&self, prog: &Program) -> usize {
        let mut j = 0;
        for (base, probe) in self.decls.iter().zip(&prog.decls) {
            if Arc::ptr_eq(base, probe) || self.fps[j] == decl_fingerprint_spanned(probe) {
                j += 1;
            } else {
                break;
            }
        }
        j
    }
}

/// An [`Oracle`] that re-infers only the declarations a probe actually
/// changed. See the module docs for the model; metric counters
/// ([`IncrementalStats`]) are exposed through
/// [`Oracle::incremental_stats`] so the search layer can fold them into
/// its report.
///
/// Construct with [`CheckpointedOracle::new`] (incremental on) or
/// [`CheckpointedOracle::scratch`] (`--no-incremental`: every call is a
/// plain [`check_program`], counters stay zero). Both modes are the same
/// type so the oracle stacks above — memo, chaos, counting — never
/// change shape.
#[derive(Debug, Default)]
pub struct CheckpointedOracle {
    enabled: bool,
    chain: Mutex<Chain>,
    incremental_hits: AtomicU64,
    decls_recheck: AtomicU64,
    rollback_ns: AtomicU64,
}

impl CheckpointedOracle {
    /// An incremental oracle with an empty chain.
    pub fn new() -> CheckpointedOracle {
        CheckpointedOracle { enabled: true, ..CheckpointedOracle::default() }
    }

    /// A passthrough oracle: every `check` is a scratch
    /// [`check_program`]. The `--no-incremental` escape hatch.
    pub fn scratch() -> CheckpointedOracle {
        CheckpointedOracle::default()
    }

    /// `new()` when `enabled`, `scratch()` otherwise.
    pub fn with_enabled(enabled: bool) -> CheckpointedOracle {
        if enabled {
            CheckpointedOracle::new()
        } else {
            CheckpointedOracle::scratch()
        }
    }

    /// Whether the incremental path is active.
    pub fn is_incremental(&self) -> bool {
        self.enabled
    }

    /// Current counter values.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            incremental_hits: self.incremental_hits.load(Ordering::Relaxed),
            decls_recheck: self.decls_recheck.load(Ordering::Relaxed),
            rollback_ns: self.rollback_ns.load(Ordering::Relaxed),
        }
    }

    /// Seeds the chain from `prog`, charging `decls_recheck` for the
    /// declarations inference actually visited (it stops at the first
    /// failing one).
    fn seed_counted(&self, chain: &mut Chain, prog: &Program) -> Result<(), TypeError> {
        let verdict = chain.seed(prog);
        let checked = match &chain.err {
            Some((e, _)) => *e as u64 + 1,
            None => chain.decls.len() as u64,
        };
        self.decls_recheck.fetch_add(checked, Ordering::Relaxed);
        verdict
    }

    /// The incremental check: prefix match, then checkpointed tail
    /// re-inference against the boundary snapshot.
    fn check_incremental(&self, chain: &mut Chain, prog: &Program) -> Result<(), TypeError> {
        if !chain.seeded() {
            return self.seed_counted(chain, prog);
        }

        let shared = chain.shared_prefix(prog);

        // The probe contains the base's failing declaration, and every
        // declaration before it, unchanged: inference is deterministic,
        // so it fails with the very same error before ever reaching the
        // edited suffix.
        if let Some((e, ref err)) = chain.err {
            if shared > e {
                self.incremental_hits.fetch_add(1, Ordering::Relaxed);
                return Err(err.clone());
            }
        }

        // Every probe declaration is a clean base prefix (prefix probes
        // from the localization loop): nothing to re-infer at all.
        if shared == prog.decls.len() && shared < chain.states.len() {
            self.incremental_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        // Resume from the deepest boundary snapshot at or before the
        // shared prefix and re-infer the tail under a checkpoint.
        let j = shared.min(chain.states.len() - 1);
        if j > 0 {
            self.incremental_hits.fetch_add(1, Ordering::Relaxed);
        }
        let state = &mut chain.states[j];

        // Save everything the tail may touch. Cloning the env map
        // handles bumps their refcounts, which forces `Arc::make_mut` in
        // the tail to copy-on-write instead of mutating the snapshot.
        let saved_values = state.env.values.len();
        let saved_ctors = state.env.ctors.clone();
        let saved_fields = state.env.fields.clone();
        let saved_types = state.env.types.clone();
        let saved_annot = state.annot_vars.clone();
        state.uni.checkpoint();

        let mut verdict = Ok(());
        let mut rechecked = 0u64;
        for d in &prog.decls[j..] {
            rechecked += 1;
            if let Err(e) = state.check_decl(d) {
                verdict = Err(e);
                break;
            }
        }
        self.decls_recheck.fetch_add(rechecked, Ordering::Relaxed);

        let clock = Instant::now();
        state.uni.rollback();
        state.env.values.truncate(saved_values);
        state.env.ctors = saved_ctors;
        state.env.fields = saved_fields;
        state.env.types = saved_types;
        state.annot_vars = saved_annot;
        let ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.rollback_ns.fetch_add(ns, Ordering::Relaxed);

        verdict
    }
}

impl Oracle for CheckpointedOracle {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        if !self.enabled {
            return check_program(prog);
        }
        match self.chain.try_lock() {
            Ok(mut chain) => self.check_incremental(&mut chain, prog),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                // A panic unwound through a previous check. The trail and
                // snapshots may be half-rolled-back — throw the whole
                // chain away and reseed from this program.
                let mut chain = poisoned.into_inner();
                *chain = Chain::default();
                self.chain.clear_poison();
                self.seed_counted(&mut chain, prog)
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                // Another thread holds the chain; a scratch check is
                // always correct and avoids serializing the callers.
                self.decls_recheck.fetch_add(prog.decls.len() as u64, Ordering::Relaxed);
                check_program(prog)
            }
        }
    }

    fn incremental_stats(&self) -> Option<IncrementalStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TypeCheckOracle;
    use seminal_ml::edit;
    use seminal_ml::parser::parse_program;

    const SRC: &str = "let one = 1\n\
                       let double x = x + x\n\
                       let nums = [1; 2; 3]\n\
                       let bad = double true\n\
                       let tail = List.map double nums";

    /// Ids of every expression in declaration `idx`.
    fn expr_ids(prog: &Program, idx: usize) -> Vec<seminal_ml::ast::NodeId> {
        let mut ids = Vec::new();
        prog.decls[idx].for_each_expr(&mut |e| ids.push(e.id));
        ids
    }

    #[test]
    fn agrees_with_scratch_on_base_and_probes() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        let scratch = TypeCheckOracle::new();

        assert_eq!(inc.check(&prog).is_ok(), scratch.check(&prog).is_ok());
        // Hole out every expression of every declaration in turn; each
        // probe must agree with scratch exactly (same error, same span).
        for idx in 0..prog.decls.len() {
            for id in expr_ids(&prog, idx) {
                let probe = edit::remove_expr(&prog, id);
                assert_eq!(inc.check(&probe), scratch.check(&probe), "probe at {id:?}");
            }
        }
    }

    #[test]
    fn prefix_probes_are_pure_hits() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();
        let seeded = inc.stats().decls_recheck;

        // Prefixes of the base share every Arc; no re-inference at all.
        for k in 0..prog.decls.len() {
            let pre = prog.prefix(k);
            assert_eq!(inc.check(&pre), check_program(&pre), "prefix {k}");
        }
        assert_eq!(inc.stats().decls_recheck, seeded, "prefix probes re-inferred something");
        assert!(inc.stats().incremental_hits >= prog.decls.len() as u64 - 1);
    }

    #[test]
    fn probe_containing_base_error_returns_cached_error() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        let base_err = inc.check(&prog).unwrap_err();
        let before = inc.stats().decls_recheck;

        // Edit the declaration *after* the failing one: the probe still
        // contains the failing decl, so the cached error comes back with
        // zero re-inference.
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 4)[0]);
        assert_eq!(inc.check(&probe), Err(base_err));
        assert_eq!(inc.stats().decls_recheck, before);
    }

    #[test]
    fn tail_edit_rechecks_only_the_tail() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();
        let seeded = inc.stats().decls_recheck;
        assert_eq!(seeded, 4, "seeding stops at the failing decl");

        // Fix the bad declaration (decl 3): shares decls 0..3, so only
        // decls 3 and 4 are re-inferred.
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        assert!(inc.check(&probe).is_ok());
        assert_eq!(inc.stats().decls_recheck - seeded, 2);
    }

    #[test]
    fn repeated_probes_leave_snapshots_pristine() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();

        // The same probe, many times: if rollback leaked any binding,
        // type-variable, or env entry, later repetitions would diverge.
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        let expected = check_program(&probe);
        for round in 0..50 {
            assert_eq!(inc.check(&probe), expected, "round {round}");
        }
    }

    #[test]
    fn type_decl_edits_restore_ctor_maps() {
        let src = "type t = A of int | B\nlet x = A 1\nlet y = B";
        let prog = parse_program(src).unwrap();
        let inc = CheckpointedOracle::new();
        assert!(inc.check(&prog).is_ok());

        // Probe that re-checks from decl 0 (the type decl itself differs
        // → full recheck); the snapshot's ctor map must survive the
        // copy-on-write insertions the tail performs.
        let probe = parse_program("type t = A of bool | B\nlet x = A 1\nlet y = B").unwrap();
        assert_eq!(inc.check(&probe), check_program(&probe));
        // And the original still agrees afterwards.
        assert_eq!(inc.check(&prog), check_program(&prog));
    }

    #[test]
    fn scratch_mode_is_passthrough_with_zero_counters() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::scratch();
        assert_eq!(inc.check(&prog), check_program(&prog));
        assert_eq!(inc.check(&prog), check_program(&prog));
        let stats = inc.stats();
        assert_eq!(stats.incremental_hits, 0);
        assert_eq!(stats.decls_recheck, 0);
        assert!(!inc.is_incremental());
    }

    #[test]
    fn poisoned_chain_resets_and_next_probe_is_clean() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();

        // Panic while holding the chain lock — the worst-case fault: a
        // checkpoint is conceptually mid-flight and the mutex poisons.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inc.chain.lock().unwrap();
            panic!("chaos: injected oracle panic");
        }));
        std::panic::set_hook(prev);
        assert!(unwound.is_err());

        // The next probe must reset the chain rather than resume from a
        // possibly half-rolled-back trail, and keep agreeing with
        // scratch afterwards.
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        assert_eq!(inc.check(&probe), check_program(&probe));
        assert_eq!(inc.check(&prog), check_program(&prog));
    }

    #[test]
    fn faulted_probe_does_not_leak_into_the_next_probe() {
        use crate::chaos::{ChaosConfig, ChaosOracle};
        use crate::oracle::{guarded_probe, ProbeOutcome};

        // Chaos panics sit *above* the incremental oracle, exactly as the
        // serve dispatch stacks them; a probe that faults must leave the
        // chain in a state where the following probes still match scratch.
        let prog = parse_program(SRC).unwrap();
        let stack = ChaosOracle::new(CheckpointedOracle::new(), ChaosConfig::panics(11, 1000));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        assert_eq!(guarded_probe(&stack, &prog), ProbeOutcome::Faulted);
        std::panic::set_hook(prev);

        let inner = stack.into_inner();
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        assert_eq!(inner.check(&probe), check_program(&probe));
        assert_eq!(inner.check(&prog), check_program(&prog));
    }

    #[test]
    fn generalization_sites_do_not_over_generalize_from_stale_state() {
        // `id` is let-polymorphic; the probe inserts a *monomorphic* use
        // chain after it. A stale snapshot that over-generalized (or a
        // rollback that leaked the tail's instantiations) would let the
        // second use unify at a different type and wrongly pass/fail.
        let src = "let id = fun x -> x\nlet a = id 1\nlet b = id true";
        let prog = parse_program(src).unwrap();
        let inc = CheckpointedOracle::new();
        assert!(inc.check(&prog).is_ok());

        // Force `id` monomorphic in the probe by eta-expanding through a
        // non-value binding; both oracles must agree on the verdict.
        let probe =
            parse_program("let id = (fun x -> x) (fun y -> y)\nlet a = id 1\nlet b = id true")
                .unwrap();
        assert_eq!(inc.check(&probe).is_err(), check_program(&probe).is_err());
        assert_eq!(inc.check(&probe), check_program(&probe));
        // Original still pristine.
        assert_eq!(inc.check(&prog), check_program(&prog));
    }
}
