//! Content fingerprints for programs and their top-level subtrees.
//!
//! The serve daemon's cross-request memo (PR 8) needs a key that is
//! stable across processes and across re-parses of the same text:
//! `NodeId`s are neither (the parser hands them out in visit order), so
//! the key is an FNV-1a hash ([`seminal_obs::fnv1a`]) over the
//! **pretty-printed** subtree, compressed to a `u64` so millions of
//! verdicts fit in memory.
//!
//! Two programs collide only if their printed forms collide under
//! FNV-1a 64; for a cache of probe verdicts that is an acceptable risk
//! (a collision can at worst replay a stale verdict, never corrupt the
//! search — and the differential suites would catch a systematic one).

use seminal_ml::ast::{Decl, DeclKind, Program};
use seminal_ml::pretty::decl_to_string;
use seminal_obs::fnv1a;

/// Fingerprint of one top-level declaration subtree: FNV-1a over its
/// pretty-printed text.
#[must_use]
pub fn decl_fingerprints(prog: &Program) -> Vec<u64> {
    prog.decls.iter().map(|d| fnv1a(decl_to_string(d).as_bytes())).collect()
}

/// Fingerprint of one declaration including its source spans: the
/// pretty-printed text folded together with every node span.
///
/// The incremental oracle uses this — not the text-only hash — to decide
/// that two declarations are interchangeable as a checked prefix. Text
/// equality alone is not enough there: type errors carry spans, so two
/// declarations that print identically but sit at different source
/// offsets must *not* be treated as the same prefix (the cached
/// `TypeError` would point at the wrong place). Node ids are deliberately
/// excluded — they never influence inference or its errors.
#[must_use]
pub fn decl_fingerprint_spanned(d: &Decl) -> u64 {
    // The printed text followed by every span's little-endian bounds.
    let mut bytes = decl_to_string(d).into_bytes();
    let mut mix = |start: u32, end: u32| {
        bytes.extend(start.to_le_bytes());
        bytes.extend(end.to_le_bytes());
    };
    mix(d.span.start, d.span.end);
    d.for_each_expr(&mut |e| mix(e.span.start, e.span.end));
    if let DeclKind::Let { bindings, .. } = &d.kind {
        for b in bindings {
            b.pat.walk(&mut |p| mix(p.span.start, p.span.end));
            for param in &b.params {
                param.walk(&mut |p| mix(p.span.start, p.span.end));
            }
        }
    }
    fnv1a(&bytes)
}

/// Fingerprint of a whole program: the per-declaration subtree hashes
/// folded through FNV-1a again (rather than hashing the concatenated
/// text) so that a shared prefix of declarations contributes the same
/// partial state regardless of what follows — the property an
/// incremental per-subtree cache would build on.
#[must_use]
pub fn program_fingerprint(prog: &Program) -> u64 {
    let bytes: Vec<u8> = decl_fingerprints(prog).into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;

    #[test]
    fn identical_text_identical_fingerprint() {
        let a = parse_program("let x = 1 + true\nlet y = x").unwrap();
        let b = parse_program("let x = 1 + true\nlet y = x").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn whitespace_normalizes_through_pretty() {
        // The key is the printed form, not the source text.
        let a = parse_program("let x = 1 + true").unwrap();
        let b = parse_program("let x =  1   + true").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn different_programs_differ() {
        let a = parse_program("let x = 1 + true").unwrap();
        let b = parse_program("let x = 1 + 2").unwrap();
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn shared_prefix_shares_decl_hashes() {
        let a = parse_program("let x = 1\nlet y = true").unwrap();
        let b = parse_program("let x = 1\nlet y = false").unwrap();
        let (fa, fb) = (decl_fingerprints(&a), decl_fingerprints(&b));
        assert_eq!(fa[0], fb[0]);
        assert_ne!(fa[1], fb[1]);
    }

    #[test]
    fn fingerprints_are_stable_across_builds() {
        // Known answers: the serve memo and the incremental oracle key on
        // these values, so the hash layout must not drift.
        let p = parse_program("let x = 1 + true\nlet y = x").unwrap();
        assert_eq!(program_fingerprint(&p), 0xe0db_1852_7f92_88e3);
        assert_eq!(decl_fingerprint_spanned(&p.decls[0]), 0x75da_4335_bcbd_97dd);
    }

    #[test]
    fn matches_raw_fnv_of_printed_decls() {
        let p = parse_program("let x = 1").unwrap();
        let subs = decl_fingerprints(&p);
        assert_eq!(subs[0], fnv1a(decl_to_string(&p.decls[0]).as_bytes()));
    }
}
