//! The rule set and per-file matching.
//!
//! Each rule matches token patterns against the masked code of one file
//! (see [`crate::lexer`]); scoping (which crates, which files) lives in
//! [`Rule::applies`] and region checks (`#[cfg(test)]`, `obs` gates,
//! `lint:allow`) are consulted per match.

use crate::source::SourceFile;

/// Library crates in which panicking is a policy violation.
pub const LIB_CRATES: &[&str] = &[
    "core", "cache", "topology", "workload", "analysis", "obs", "idicn",
];

/// Crates whose simulation state must be bit-reproducible run-to-run.
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "cache"];

/// The one file in `crates/core` allowed to touch wall clocks and
/// `icn_obs` without a feature gate (it *is* the gate).
pub const INSTRUMENT_FILE: &str = "instrument.rs";

/// The parallel sweep engine: its results must be merged in submission
/// order, so completion-order collection primitives are banned there.
pub const SWEEP_FILE: &str = "sweep.rs";

/// The fault-injection schedule: documented as a *pure function* of
/// `(seed, config, window)`, so on top of the base entropy bans any clock
/// or RNG machinery at all is rejected there — a bare `Instant`,
/// `elapsed()`, or anything from the `rand` crate.
pub const FAULT_FILE: &str = "fault.rs";

/// The precomputed cost tables: construction must iterate dense index
/// ranges only, because any ordered-container walk would bake that
/// container's iteration order into `f64` summation order — a silent
/// bit-identity break the equivalence tests could only catch after the
/// fact. `HashMap`/`HashSet` are already banned crate-wide; this scope
/// additionally rejects the tree/heap structures whose order is
/// deterministic but still *insertion-shaped*.
pub const COSTS_FILE: &str = "costs.rs";

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (e.g. `no-panic-in-lib`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Violation {
    /// Stable baseline key: `rule:path:line`.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.rule, self.path, self.line)
    }
}

/// Where a file sits in the workspace, as far as rule scoping cares.
pub struct FileOrigin<'a> {
    /// `crates/<name>/...` component, if any.
    pub crate_name: Option<&'a str>,
    /// Path inside the crate (e.g. `src/sim.rs`).
    pub in_crate: &'a str,
}

impl<'a> FileOrigin<'a> {
    /// Splits a workspace-relative path like `crates/core/src/sim.rs`.
    pub fn of(rel_path: &'a str) -> Self {
        let mut crate_name = None;
        let mut in_crate = rel_path;
        if let Some(rest) = rel_path.strip_prefix("crates/") {
            if let Some((name, tail)) = rest.split_once('/') {
                crate_name = Some(name);
                in_crate = tail;
            }
        }
        Self {
            crate_name,
            in_crate,
        }
    }

    /// True for `src/**` files that are not binaries (`src/bin`, `main.rs`).
    fn is_lib_source(&self) -> bool {
        self.in_crate.starts_with("src/")
            && !self.in_crate.starts_with("src/bin/")
            && self.in_crate != "src/main.rs"
    }

    fn file_name(&self) -> &str {
        self.in_crate.rsplit('/').next().unwrap_or(self.in_crate)
    }
}

/// A pattern that must not appear in scoped code.
struct Pattern {
    /// Token text to search for in masked code.
    text: &'static str,
    /// When set, the match must be followed by this byte (e.g. `(` turns
    /// `unwrap` into a call match that leaves `unwrap_or` alone).
    call: bool,
    /// What to tell the developer.
    why: &'static str,
}

const PANIC_PATTERNS: &[Pattern] = &[
    Pattern {
        text: "unwrap",
        call: true,
        why: "propagate errors instead of `unwrap()`",
    },
    Pattern {
        text: "expect",
        call: true,
        why: "propagate errors instead of `expect()`",
    },
    Pattern {
        text: "panic!",
        call: false,
        why: "library code must not `panic!`",
    },
    Pattern {
        text: "unreachable!",
        call: false,
        why: "library code must not `unreachable!`",
    },
    Pattern {
        text: "todo!",
        call: false,
        why: "no `todo!` in library code",
    },
    Pattern {
        text: "unimplemented!",
        call: false,
        why: "no `unimplemented!` in library code",
    },
];

const ENTROPY_PATTERNS: &[Pattern] = &[
    Pattern {
        text: "SystemTime",
        call: false,
        why: "wall clock breaks run-to-run determinism",
    },
    Pattern {
        text: "Instant::now",
        call: false,
        why: "wall clock breaks run-to-run determinism",
    },
    Pattern {
        text: "thread_rng",
        call: false,
        why: "unseeded entropy breaks determinism",
    },
    Pattern {
        text: "from_entropy",
        call: false,
        why: "unseeded entropy breaks determinism",
    },
    Pattern {
        text: "HashMap",
        call: false,
        why: "iteration order may leak into metrics; use a Vec/BTreeMap or justify with lint:allow",
    },
    Pattern {
        text: "HashSet",
        call: false,
        why: "iteration order may leak into metrics; use a Vec/BTreeSet or justify with lint:allow",
    },
];

/// Completion-order collection primitives, banned in the sweep engine:
/// parallel results must land in pre-sized submission-indexed slots so the
/// output is bit-identical at any worker count (`JOBS=1` vs `JOBS=N`).
const ORDERED_MERGE_PATTERNS: &[Pattern] = &[
    Pattern {
        text: "mpsc",
        call: false,
        why: "channel receive order is completion order; write results into \
              submission-indexed slots instead",
    },
    Pattern {
        text: "Mutex",
        call: false,
        why: "locked accumulation interleaves in completion order; write \
              results into submission-indexed slots instead",
    },
    Pattern {
        text: "rayon",
        call: false,
        why: "external parallelism runtimes are out; use std::thread::scope \
              with submission-indexed slots",
    },
    Pattern {
        text: "par_iter",
        call: false,
        why: "external parallelism runtimes are out; use std::thread::scope \
              with submission-indexed slots",
    },
];

/// Clock/RNG machinery banned outright in the fault schedule. The base
/// [`ENTROPY_PATTERNS`] already reject `SystemTime` / `Instant::now` /
/// `thread_rng`; these close the gap to *any* time or randomness source,
/// because `FaultSchedule` promises bit-equal answers for equal
/// `(seed, config)` on any host.
const PURE_SCHEDULE_PATTERNS: &[Pattern] = &[
    Pattern {
        text: "Instant",
        call: false,
        why: "the fault schedule is a pure function of (seed, window); \
              no monotonic clocks, not even stored ones",
    },
    Pattern {
        text: "elapsed",
        call: true,
        why: "elapsed time depends on the host; derive windows from \
              request counts instead",
    },
    Pattern {
        text: "rand",
        call: false,
        why: "the schedule draws from its own SplitMix64 hash of the \
              seed, never from an RNG stream whose state depends on \
              call order",
    },
    Pattern {
        text: "Rng",
        call: false,
        why: "the schedule draws from its own SplitMix64 hash of the \
              seed, never from an RNG stream whose state depends on \
              call order",
    },
];

/// Ordered-container machinery banned in the cost tables (see
/// [`COSTS_FILE`]): the dense-range construction loops are the guarantee
/// that summation order is a function of indices alone.
const DENSE_CONSTRUCTION_PATTERNS: &[Pattern] = &[
    Pattern {
        text: "BTreeMap",
        call: false,
        why: "cost-table construction iterates dense index ranges; an \
              ordered map bakes insertion-shaped iteration into f64 \
              summation order",
    },
    Pattern {
        text: "BTreeSet",
        call: false,
        why: "cost-table construction iterates dense index ranges; an \
              ordered set bakes insertion-shaped iteration into f64 \
              summation order",
    },
    Pattern {
        text: "BinaryHeap",
        call: false,
        why: "heap pop order depends on push history; cost tables must \
              derive every entry from its index alone",
    },
];

/// Timing and profiling machinery that must sit behind the `obs` feature
/// gate in `crates/core` (outside [`INSTRUMENT_FILE`]): span timing
/// compiled into the default build would spend hot-path cycles even when
/// nobody profiles, and the byte-identical-output invariant (profiling
/// on/off must not move a digit) is only auditable when every clock read
/// is visibly gated.
const GATED_TIMING_PATTERNS: &[Pattern] = &[
    Pattern {
        text: "Instant::now",
        call: false,
        why: "wall-clock reads in the deterministic core belong behind \
              `#[cfg(feature = \"obs\")]` (or in instrument.rs)",
    },
    Pattern {
        text: "Profiler",
        call: false,
        why: "profiler machinery in the deterministic core belongs behind \
              `#[cfg(feature = \"obs\")]` (or in instrument.rs)",
    },
    Pattern {
        text: "PhaseHandle",
        call: false,
        why: "profiler machinery in the deterministic core belongs behind \
              `#[cfg(feature = \"obs\")]` (or in instrument.rs)",
    },
    Pattern {
        text: "SpanGuard",
        call: false,
        why: "profiler machinery in the deterministic core belongs behind \
              `#[cfg(feature = \"obs\")]` (or in instrument.rs)",
    },
];

/// Rule identifiers, also usable in `lint:allow(...)` and baseline keys.
pub const NO_PANIC: &str = "no-panic-in-lib";
/// See [`NO_PANIC`].
pub const DETERMINISTIC: &str = "deterministic-core";
/// See [`NO_PANIC`].
pub const FEATURE_GATE: &str = "feature-gate-obs";
/// See [`NO_PANIC`].
pub const VENDOR_FROZEN: &str = "vendor-frozen";
/// See [`NO_PANIC`].
pub const ALLOW_NEEDS_REASON: &str = "allow-needs-reason";
/// Interprocedural taint reachability (see [`crate::reach`]).
pub const REACH: &str = "deterministic-core-reach";
/// `unsafe` sites need `// SAFETY:` + inventory (see [`crate::audit`]).
pub const UNSAFE_AUDIT: &str = "unsafe-audit";
/// Allocation ban in configured hot paths (see [`crate::hotpath`]).
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// A `lint:allow` that suppresses nothing (engine-level, see
/// [`crate::engine`]): stale suppressions hide future violations.
pub const STALE_ALLOW: &str = "stale-allow";

/// The per-file content rules (vendor-frozen works on hashes, not content;
/// the interprocedural rules run workspace-wide, not per file).
pub const CONTENT_RULES: &[&str] = &[NO_PANIC, DETERMINISTIC, FEATURE_GATE, ALLOW_NEEDS_REASON];

/// A `lint:allow` suppression that actually fired: rule `rule` matched at
/// `path:line` and was silenced by a directive. The engine aggregates
/// these to detect directives that suppress nothing ([`STALE_ALLOW`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppressed {
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed line of the *suppressed match* (the covering directive
    /// sits on this line or the one above).
    pub line: usize,
    /// Rule name the directive was credited under.
    pub rule: &'static str,
}

/// What one rule pass produced: diagnostics plus the suppressions it
/// honored.
#[derive(Debug, Default)]
pub struct RuleOutcome {
    /// Violations (before baseline reconciliation).
    pub violations: Vec<Violation>,
    /// Matches silenced by `lint:allow` directives.
    pub suppressed: Vec<Suppressed>,
}

impl RuleOutcome {
    /// Folds another outcome into this one.
    pub fn merge(&mut self, other: RuleOutcome) {
        self.violations.extend(other.violations);
        self.suppressed.extend(other.suppressed);
    }
}

/// Runs one per-file content rule over one analysed file.
pub fn check_rule(rule: &'static str, rel_path: &str, file: &SourceFile) -> RuleOutcome {
    let origin = FileOrigin::of(rel_path);
    let mut out = RuleOutcome::default();

    let lib_scoped =
        origin.crate_name.is_some_and(|c| LIB_CRATES.contains(&c)) && origin.is_lib_source();
    let det_scoped = origin
        .crate_name
        .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c))
        && origin.is_lib_source()
        && origin.file_name() != INSTRUMENT_FILE;
    let gate_scoped = origin.crate_name == Some("core")
        && origin.is_lib_source()
        && origin.file_name() != INSTRUMENT_FILE;

    match rule {
        NO_PANIC if lib_scoped => {
            scan_patterns(NO_PANIC, PANIC_PATTERNS, rel_path, file, &mut out);
        }
        DETERMINISTIC if det_scoped => {
            scan_patterns(DETERMINISTIC, ENTROPY_PATTERNS, rel_path, file, &mut out);
            if origin.file_name() == SWEEP_FILE {
                scan_patterns(
                    DETERMINISTIC,
                    ORDERED_MERGE_PATTERNS,
                    rel_path,
                    file,
                    &mut out,
                );
            }
            if origin.file_name() == FAULT_FILE {
                scan_patterns(
                    DETERMINISTIC,
                    PURE_SCHEDULE_PATTERNS,
                    rel_path,
                    file,
                    &mut out,
                );
            }
            if origin.file_name() == COSTS_FILE {
                scan_patterns(
                    DETERMINISTIC,
                    DENSE_CONSTRUCTION_PATTERNS,
                    rel_path,
                    file,
                    &mut out,
                );
            }
        }
        FEATURE_GATE if gate_scoped => {
            for off in token_offsets(&file.masked.code, "icn_obs", false) {
                let line = file.masked.line_of(off);
                if file.is_test_line(line) || file.is_obs_gated(line) {
                    continue;
                }
                if file.is_allowed(FEATURE_GATE, line) {
                    out.suppressed.push(Suppressed {
                        path: rel_path.to_string(),
                        line,
                        rule: FEATURE_GATE,
                    });
                    continue;
                }
                out.violations.push(Violation {
                    rule: FEATURE_GATE,
                    path: rel_path.to_string(),
                    line,
                    message: "`icn_obs` reference outside `#[cfg(feature = \"obs\")]` \
                              (and outside instrument.rs)"
                        .to_string(),
                });
            }
            for p in GATED_TIMING_PATTERNS {
                for off in token_offsets(&file.masked.code, p.text, p.call) {
                    let line = file.masked.line_of(off);
                    if file.is_test_line(line) || file.is_obs_gated(line) {
                        continue;
                    }
                    if file.is_allowed(FEATURE_GATE, line) {
                        out.suppressed.push(Suppressed {
                            path: rel_path.to_string(),
                            line,
                            rule: FEATURE_GATE,
                        });
                        continue;
                    }
                    out.violations.push(Violation {
                        rule: FEATURE_GATE,
                        path: rel_path.to_string(),
                        line,
                        message: format!("`{}`: {}", p.text, p.why),
                    });
                }
            }
        }
        // Directives are themselves linted: an allow without a reason
        // defeats the audit trail the directive exists to create.
        ALLOW_NEEDS_REASON => {
            for d in &file.allows {
                if !d.has_reason {
                    out.violations.push(Violation {
                        rule: ALLOW_NEEDS_REASON,
                        path: rel_path.to_string(),
                        line: d.line,
                        message: "lint:allow directive must carry a `: <reason>`".to_string(),
                    });
                }
            }
        }
        _ => {}
    }
    out
}

/// Runs every per-file content rule over one analysed file. `rel_path` is
/// workspace-relative with `/` separators.
pub fn check_file(rel_path: &str, file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in CONTENT_RULES {
        out.extend(check_rule(rule, rel_path, file).violations);
    }
    out
}

fn scan_patterns(
    rule: &'static str,
    patterns: &[Pattern],
    rel_path: &str,
    file: &SourceFile,
    out: &mut RuleOutcome,
) {
    for p in patterns {
        for off in token_offsets(&file.masked.code, p.text, p.call) {
            let line = file.masked.line_of(off);
            if file.is_test_line(line) {
                continue;
            }
            if file.is_allowed(rule, line) {
                out.suppressed.push(Suppressed {
                    path: rel_path.to_string(),
                    line,
                    rule,
                });
                continue;
            }
            out.violations.push(Violation {
                rule,
                path: rel_path.to_string(),
                line,
                message: format!("`{}`: {}", p.text, p.why),
            });
        }
    }
}

/// Byte offsets of identifier-boundary matches of `pat` in `code`; with
/// `call`, the token must be immediately followed by `(`.
pub(crate) fn token_offsets(code: &str, pat: &str, call: bool) -> Vec<usize> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(pat) {
        let at = from + rel;
        let end = at + pat.len();
        let pre_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let post_ok = if call {
            b.get(end) == Some(&b'(')
        } else {
            end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_')
        };
        if pre_ok && post_ok {
            out.push(at);
        }
        from = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, &SourceFile::analyze(src))
    }

    #[test]
    fn unwrap_in_lib_crate_is_flagged_with_exact_line() {
        let v = check("crates/core/src/sim.rs", "fn f() {\n    x.unwrap();\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_PANIC);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unwrap_or_else_and_unwrap_or_are_not_unwrap() {
        let v = check(
            "crates/core/src/sim.rs",
            "fn f() { x.unwrap_or(0); y.unwrap_or_else(Vec::new); }\n",
        );
        assert!(v.is_empty());
        let v = check(
            "crates/core/src/sim.rs",
            "fn f() { x.unwrap_or_else(|| panic!(\"boom\")); }\n",
        );
        assert_eq!(v.len(), 1, "the panic! inside still fires");
        assert!(v[0].message.contains("panic!"));
    }

    #[test]
    fn tests_benches_bins_are_exempt() {
        let src = "fn f() { x.unwrap(); }\n";
        assert!(check("crates/core/tests/t.rs", src).is_empty());
        assert!(check("crates/bench/src/bin/fig6.rs", src).is_empty());
        assert!(check("crates/lint/src/main.rs", src).is_empty());
        assert!(!check("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(check("crates/cache/src/fifo.rs", src).is_empty());
    }

    #[test]
    fn deterministic_core_flags_entropy_and_hash_iteration() {
        let src = "use std::collections::HashMap;\nfn f() { let _ = rand::thread_rng(); }\n";
        let v = check("crates/core/src/sweep.rs", src);
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert!(rules.contains(&(DETERMINISTIC, 1)));
        assert!(rules.contains(&(DETERMINISTIC, 2)));
        // Out of scope: same content in workload is fine.
        assert!(check("crates/workload/src/zipf.rs", src).is_empty());
    }

    #[test]
    fn sweep_rs_rejects_completion_order_collection() {
        let src = "use std::sync::mpsc;\nfn f(m: &std::sync::Mutex<Vec<u8>>) {}\n";
        let v = check("crates/core/src/sweep.rs", src);
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert!(rules.contains(&(DETERMINISTIC, 1)), "mpsc flagged: {v:?}");
        assert!(rules.contains(&(DETERMINISTIC, 2)), "Mutex flagged: {v:?}");
        // The ban is scoped to the sweep engine: the same content elsewhere
        // in the deterministic crates is only subject to the base patterns.
        assert!(check("crates/core/src/sim.rs", src).is_empty());
    }

    #[test]
    fn sweep_rs_rejects_external_parallelism_runtimes() {
        let src = "fn f() { xs.par_iter(); }\nuse rayon::prelude::*;\n";
        let v = check("crates/core/src/sweep.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == DETERMINISTIC));
        assert!(check("crates/cache/src/lru.rs", src).is_empty());
    }

    #[test]
    fn fault_rs_rejects_any_clock_or_rng_machinery() {
        // A *stored* Instant and a generic RNG bound never call now() or
        // thread_rng(), so the base entropy patterns let them through —
        // the fault-schedule scope must not.
        let src = "fn f(deadline: std::time::Instant) {}\nfn g<R: Rng>(r: &mut R) {}\n";
        let v = check("crates/core/src/fault.rs", src);
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert!(rules.contains(&(DETERMINISTIC, 1)), "bare Instant: {v:?}");
        assert!(rules.contains(&(DETERMINISTIC, 2)), "Rng bound: {v:?}");
        // The same content elsewhere in the deterministic crates is only
        // subject to the base patterns, which it satisfies.
        assert!(check("crates/core/src/sim.rs", src).is_empty());
        // And the classic offenders stay banned in fault.rs too.
        let v = check(
            "crates/core/src/fault.rs",
            "fn h() { let _ = std::time::SystemTime::now(); }\n",
        );
        assert!(!v.is_empty());
    }

    #[test]
    fn costs_rs_rejects_ordered_container_construction() {
        // BTree iteration order is deterministic but insertion-shaped —
        // the base entropy patterns allow it (they even *recommend* it
        // over HashMap), so the cost-table scope must close that gap.
        let src = "use std::collections::BTreeMap;\nfn f() { let h = std::collections::BinaryHeap::<u32>::new(); }\nuse std::collections::BTreeSet;\n";
        let v = check("crates/core/src/costs.rs", src);
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert!(rules.contains(&(DETERMINISTIC, 1)), "BTreeMap: {v:?}");
        assert!(rules.contains(&(DETERMINISTIC, 2)), "BinaryHeap: {v:?}");
        assert!(rules.contains(&(DETERMINISTIC, 3)), "BTreeSet: {v:?}");
        // The same content elsewhere in the deterministic crates passes —
        // BTreeMap is the sanctioned HashMap replacement outside the
        // cost tables.
        assert!(check("crates/core/src/sim.rs", src).is_empty());
        assert!(check("crates/cache/src/lru.rs", src).is_empty());
    }

    #[test]
    fn instrument_rs_is_exempt_from_determinism_and_gating() {
        let src = "use icn_obs::Registry;\nfn f() { let t = std::time::Instant::now(); }\n";
        assert!(check("crates/core/src/instrument.rs", src).is_empty());
        // sim.rs: ungated icn_obs (gate), wall clock (determinism), and the
        // same wall clock again as an ungated-timing finding.
        let v = check("crates/core/src/sim.rs", src);
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(rules.contains(&(FEATURE_GATE, 1)));
        assert!(rules.contains(&(DETERMINISTIC, 2)));
        assert!(rules.contains(&(FEATURE_GATE, 2)));
    }

    #[test]
    fn ungated_timing_machinery_in_core_is_a_gate_finding() {
        // A stored Profiler handle and a span guard type never call now()
        // or reference icn_obs by path, so the base gate pattern lets them
        // through — the timing patterns must not.
        let src = "struct S { p: Profiler }\nfn f(g: SpanGuard) {}\nfn h(p: &PhaseHandle) {}\n";
        let v = check("crates/core/src/sim.rs", src);
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert!(rules.contains(&(FEATURE_GATE, 1)), "Profiler: {v:?}");
        assert!(rules.contains(&(FEATURE_GATE, 2)), "SpanGuard: {v:?}");
        assert!(rules.contains(&(FEATURE_GATE, 3)), "PhaseHandle: {v:?}");
        // Behind the gate the same machinery is sanctioned.
        let gated = "#[cfg(feature = \"obs\")]\nstruct S { p: Profiler }\n";
        assert!(check("crates/core/src/sim.rs", gated).is_empty());
        // The scope is crates/core: cache has no obs instrumentation story,
        // and non-deterministic crates time freely.
        assert!(check("crates/workload/src/zipf.rs", src).is_empty());
    }

    #[test]
    fn obs_gated_reference_passes_ungated_fails() {
        let gated = "#[cfg(feature = \"obs\")]\nuse icn_obs::Registry;\n";
        assert!(check("crates/core/src/sweep.rs", gated).is_empty());
        let ungated = "use icn_obs::Registry;\n";
        let v = check("crates/core/src/sweep.rs", ungated);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, FEATURE_GATE);
    }

    #[test]
    fn allow_directive_suppresses_and_needs_reason() {
        let ok =
            "fn f() {\n    // lint:allow(no-panic-in-lib): checked by caller\n    x.unwrap();\n}\n";
        assert!(check("crates/core/src/sim.rs", ok).is_empty());
        let bad = "fn f() {\n    x.unwrap(); // lint:allow(no-panic-in-lib)\n}\n";
        let v = check("crates/core/src/sim.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, ALLOW_NEEDS_REASON);
    }

    #[test]
    fn patterns_in_comments_and_strings_never_fire() {
        let src = "// calls unwrap() on the inner value\nfn f() { g(\"panic!\"); }\n";
        assert!(check("crates/core/src/sim.rs", src).is_empty());
    }
}
