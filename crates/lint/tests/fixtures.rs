//! End-to-end fixture tests: build a miniature workspace on disk, scan it
//! with the real engine, and assert exact `file:line` diagnostics,
//! baseline reconciliation, and vendor freezing.

use icn_lint::config::Config;
use icn_lint::engine;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

static FIXTURE_SEQ: AtomicU32 = AtomicU32::new(0);

/// A throwaway workspace rooted in the OS temp dir; removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new() -> Self {
        let root = std::env::temp_dir().join(format!(
            "icn-lint-fixture-{}-{}",
            std::process::id(),
            FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdirs");
        fs::write(path, content).expect("write fixture file");
        self
    }

    fn scan(&self, config: &Config) -> engine::Report {
        engine::scan(&self.root, config).expect("scan fixture")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn keys(report: &engine::Report) -> Vec<String> {
    report.new.iter().map(|v| v.key()).collect()
}

#[test]
fn exact_file_line_diagnostics() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/sim.rs",
        "//! Doc.\nfn route() {\n    let x = compute();\n    x.unwrap();\n}\n",
    );
    let report = fx.scan(&Config::default());
    assert_eq!(
        keys(&report),
        vec!["no-panic-in-lib:crates/core/src/sim.rs:4"]
    );
    assert!(!report.ok());
}

#[test]
fn rules_do_not_fire_inside_literals_or_comments() {
    let fx = Fixture::new();
    fx.write(
        "crates/cache/src/lru.rs",
        concat!(
            "/* block /* nested unwrap() */ still comment */\n",
            "fn f() -> usize {\n",
            "    let s = r#\"x.unwrap() and panic!(\"no\")\"#;\n",
            "    let c = '\"';\n",
            "    let _ = c;\n",
            "    s.len() // trailing unwrap() mention\n",
            "}\n",
        ),
    );
    let report = fx.scan(&Config::default());
    assert!(report.ok(), "unexpected: {:?}", report.new);
}

#[test]
fn allow_directive_suppresses_but_reasonless_allow_fails() {
    let fx = Fixture::new();
    fx.write(
        "crates/topology/src/net.rs",
        concat!(
            "fn ok() {\n",
            "    // lint:allow(no-panic-in-lib): adjacency validated at build\n",
            "    x.unwrap();\n",
            "}\n",
            "fn bad() {\n",
            "    y.unwrap(); // lint:allow(no-panic-in-lib)\n",
            "}\n",
        ),
    );
    let report = fx.scan(&Config::default());
    assert_eq!(
        keys(&report),
        vec!["allow-needs-reason:crates/topology/src/net.rs:6"],
        "the reasonless directive suppresses the unwrap but is itself flagged"
    );
}

#[test]
fn baseline_grandfathers_and_reports_stale_entries() {
    let fx = Fixture::new();
    fx.write(
        "crates/workload/src/zipf.rs",
        "fn f() {\n    x.unwrap();\n}\n",
    );
    let mut config = Config::default();
    config
        .baseline
        .push("no-panic-in-lib:crates/workload/src/zipf.rs:2".into());
    config
        .baseline
        .push("no-panic-in-lib:crates/workload/src/gone.rs:9".into());
    let report = fx.scan(&config);
    assert!(report.ok(), "baselined violation must not fail the run");
    assert_eq!(report.baselined.len(), 1);
    assert_eq!(
        report.stale,
        vec!["no-panic-in-lib:crates/workload/src/gone.rs:9".to_string()]
    );
}

#[test]
fn deterministic_core_and_feature_gate_scoping() {
    let fx = Fixture::new();
    // HashMap in core: flagged; in workload: fine. icn_obs ungated in core:
    // flagged; gated: fine; in instrument.rs: fine.
    fx.write(
        "crates/core/src/sweep.rs",
        "use std::collections::HashMap;\nuse icn_obs::Registry;\n#[cfg(feature = \"obs\")]\nuse icn_obs::Counter;\n",
    )
    .write("crates/core/src/instrument.rs", "use icn_obs::Registry;\n")
    .write(
        "crates/workload/src/trace.rs",
        "use std::collections::HashMap;\n",
    );
    let report = fx.scan(&Config::default());
    assert_eq!(
        keys(&report),
        vec![
            "deterministic-core:crates/core/src/sweep.rs:1",
            "feature-gate-obs:crates/core/src/sweep.rs:2",
        ]
    );
}

#[test]
fn ungated_timing_machinery_is_flagged_gated_is_not() {
    let fx = Fixture::new();
    // A stored Profiler and a bare Instant::now in core source must be
    // feature-gate findings; the identical machinery behind
    // `#[cfg(feature = "obs")]` or inside instrument.rs passes.
    fx.write(
        "crates/core/src/sim.rs",
        concat!(
            "struct Obs { profiler: Profiler }\n",
            "fn t() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
            "#[cfg(feature = \"obs\")]\n",
            "fn gated(p: &PhaseHandle) {}\n",
        ),
    )
    .write(
        "crates/core/src/instrument.rs",
        "use icn_obs::Profiler;\nfn t() { let _ = std::time::Instant::now(); }\n",
    );
    let report = fx.scan(&Config::default());
    let found = keys(&report);
    assert!(
        found.contains(&"feature-gate-obs:crates/core/src/sim.rs:1".to_string()),
        "{found:?}"
    );
    assert!(
        found.contains(&"feature-gate-obs:crates/core/src/sim.rs:2".to_string()),
        "{found:?}"
    );
    assert!(
        !found.iter().any(|k| k.contains("sim.rs:4")),
        "gated PhaseHandle must pass: {found:?}"
    );
    assert!(
        !found.iter().any(|k| k.contains("instrument.rs")),
        "instrument.rs is the sanctioned home: {found:?}"
    );
}

#[test]
fn sweep_engine_must_merge_in_submission_order() {
    let fx = Fixture::new();
    // Completion-order collection (channels, locked accumulators, rayon)
    // is banned in the sweep engine specifically; the same tokens in
    // another deterministic-crate file only hit the base entropy rules.
    fx.write(
        "crates/core/src/sweep.rs",
        concat!(
            "use std::sync::mpsc;\n",
            "fn collect(m: &std::sync::Mutex<Vec<u32>>) {}\n",
            "// mentioning Mutex in a comment is fine\n",
        ),
    )
    .write(
        "crates/core/src/sim.rs",
        "fn f(m: &std::sync::Mutex<Vec<u32>>) {}\n",
    );
    let report = fx.scan(&Config::default());
    assert_eq!(
        keys(&report),
        vec![
            "deterministic-core:crates/core/src/sweep.rs:1",
            "deterministic-core:crates/core/src/sweep.rs:2",
        ]
    );
    assert!(report.new[0].message.contains("submission-indexed"));
}

/// Guard for the PR 4 acceptance criterion: the fault schedule must stay a
/// pure function of `(seed, config)`. Introducing any clock or RNG use into
/// `crates/core/src/fault.rs` — even forms the base entropy rules allow
/// elsewhere — must fail a previously clean scan.
#[test]
fn regression_clock_or_rng_in_fault_schedule_fails() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/fault.rs",
        "fn crashes(seed: u64, window: u64) -> bool { seed ^ window != 0 }\n",
    );
    let config = Config::default();
    assert!(fx.scan(&config).ok(), "pure schedule scans clean");

    fx.write(
        "crates/core/src/fault.rs",
        concat!(
            "use std::time::SystemTime;\n",
            "fn f(deadline: std::time::Instant) {}\n",
            "fn g<R: Rng>(r: &mut R) {}\n",
        ),
    );
    let report = fx.scan(&config);
    assert_eq!(
        keys(&report),
        vec![
            "deterministic-core:crates/core/src/fault.rs:1",
            "deterministic-core:crates/core/src/fault.rs:2",
            "deterministic-core:crates/core/src/fault.rs:3",
        ]
    );
    // The stored-Instant form is legal in other core files (only `::now`
    // is entropy there) — the ban is scoped to the schedule.
    fx.write(
        "crates/core/src/fault.rs",
        "fn crashes(seed: u64, window: u64) -> bool { seed ^ window != 0 }\n",
    )
    .write(
        "crates/core/src/capacity.rs",
        "fn f(deadline: std::time::Instant) {}\n",
    );
    assert!(fx.scan(&config).ok());
}

/// Guard for the cost-table scope: ordered-container construction in
/// `crates/core/src/costs.rs` — legal anywhere else in the deterministic
/// crates — must fail a previously clean scan.
#[test]
fn regression_ordered_containers_in_cost_tables_fail() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/costs.rs",
        "fn build(n: u32) -> Vec<f64> { (0..n).map(|i| i as f64).collect() }\n",
    );
    let config = Config::default();
    assert!(fx.scan(&config).ok(), "dense construction scans clean");

    fx.write(
        "crates/core/src/costs.rs",
        concat!(
            "use std::collections::BTreeMap;\n",
            "use std::collections::BTreeSet;\n",
            "fn f() { let h = std::collections::BinaryHeap::<u32>::new(); }\n",
        ),
    );
    let report = fx.scan(&config);
    assert_eq!(
        keys(&report),
        vec![
            "deterministic-core:crates/core/src/costs.rs:1",
            "deterministic-core:crates/core/src/costs.rs:2",
            "deterministic-core:crates/core/src/costs.rs:3",
        ]
    );
    // The same tokens elsewhere in core are the *sanctioned* HashMap
    // replacement — the ban is scoped to the cost tables.
    fx.write(
        "crates/core/src/costs.rs",
        "fn build(n: u32) -> Vec<f64> { (0..n).map(|i| i as f64).collect() }\n",
    )
    .write(
        "crates/core/src/metrics.rs",
        "use std::collections::BTreeMap;\n",
    );
    assert!(fx.scan(&config).ok());
}

#[test]
fn cfg_test_modules_are_exempt_everywhere() {
    let fx = Fixture::new();
    fx.write(
        "crates/idicn/src/proxy.rs",
        concat!(
            "fn lib_fn() -> u32 { 7 }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::time::Instant;\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        let _ = Instant::now();\n",
            "        lib_fn().checked_mul(2).unwrap();\n",
            "        panic!(\"assert style\");\n",
            "    }\n",
            "}\n",
        ),
    );
    let report = fx.scan(&Config::default());
    assert!(report.ok(), "unexpected: {:?}", report.new);
}

#[test]
fn vendor_edits_require_a_hash_bump() {
    let fx = Fixture::new();
    fx.write("vendor/rand/src/lib.rs", "pub fn seeded() {}\n");
    // Unfrozen vendor crate: flagged.
    let report = fx.scan(&Config::default());
    assert_eq!(keys(&report), vec!["vendor-frozen:vendor/rand:0"]);

    // Freeze it, scan again: clean.
    let config = Config {
        vendor: engine::vendor_digests(&fx.root).expect("digests"),
        ..Config::default()
    };
    assert!(fx.scan(&config).ok());

    // Edit the vendored file: flagged again until the hash is bumped.
    fx.write(
        "vendor/rand/src/lib.rs",
        "pub fn seeded() { /* changed */ }\n",
    );
    let report = fx.scan(&config);
    assert_eq!(keys(&report), vec!["vendor-frozen:vendor/rand:0"]);
    assert!(report.new[0].message.contains("changed"));
}

#[test]
fn write_baseline_round_trip_makes_the_tree_pass() {
    let fx = Fixture::new();
    fx.write(
        "crates/analysis/src/stats.rs",
        "fn f() {\n    a.unwrap();\n    b.expect(\"msg\");\n}\n",
    )
    .write("vendor/serde/src/lib.rs", "pub struct S;\n");
    let fresh = engine::regenerate_baseline(&fx.root, &Config::default()).expect("regen");
    assert_eq!(fresh.baseline.len(), 2);
    assert_eq!(fresh.vendor.len(), 1);
    // The regenerated config round-trips through lint.toml text and the
    // tree then scans clean.
    let parsed = Config::parse(&fresh.render());
    assert_eq!(parsed, fresh);
    let report = fx.scan(&parsed);
    assert!(report.ok(), "unexpected: {:?}", report.new);
    assert_eq!(report.baselined.len(), 2);
}

#[test]
fn json_report_counts_burn_down() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/sim.rs",
        "fn f() {\n    x.unwrap();\n    y.unwrap();\n}\n",
    );
    let mut config = Config::default();
    config
        .baseline
        .push("no-panic-in-lib:crates/core/src/sim.rs:2".into());
    let report = fx.scan(&config);
    let json = report.render_json();
    assert!(json.contains("\"new_total\":1"), "{json}");
    assert!(json.contains("\"baselined_total\":1"), "{json}");
    assert!(
        json.contains("\"new_counts\":{\"no-panic-in-lib\":1}"),
        "{json}"
    );
    assert!(json.contains("\"line\":3"), "{json}");
}

#[test]
fn multibyte_utf8_keeps_line_numbers_exact() {
    let fx = Fixture::new();
    fx.write(
        "crates/obs/src/hist.rs",
        "// héllo — ünïcode ↑↓\nfn f() {\n    let s = \"μ σ → ∞\";\n    s.parse::<f64>().unwrap();\n}\n",
    );
    let report = fx.scan(&Config::default());
    assert_eq!(
        keys(&report),
        vec!["no-panic-in-lib:crates/obs/src/hist.rs:4"]
    );
}

/// Guard for the acceptance criterion: introducing a forbidden `unwrap()`
/// into `crates/core/src/sim.rs` must fail a previously clean scan.
#[test]
fn regression_new_unwrap_in_core_sim_fails() {
    let fx = Fixture::new();
    fx.write("crates/core/src/sim.rs", "fn route() -> u32 { 1 }\n");
    let config = Config::default();
    assert!(fx.scan(&config).ok());
    fx.write(
        "crates/core/src/sim.rs",
        "fn route() -> u32 { compute().unwrap() }\n",
    );
    let report = fx.scan(&config);
    assert!(!report.ok());
    assert_eq!(report.new[0].rule, "no-panic-in-lib");
}

/// Guard for the PR 7 acceptance criterion: a nondeterminism source hidden
/// behind a helper in *another crate* — invisible to the per-file
/// `deterministic-core` rule — must be reported by the reach analysis with
/// the full call chain in the diagnostic.
#[test]
fn cross_module_taint_chain_reports_the_full_chain() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/sim.rs",
        concat!(
            "use icn_topology::net::jitter_ns;\n",
            "pub struct Simulator;\n",
            "impl Simulator {\n",
            "    pub fn run(&mut self) -> u64 {\n",
            "        self.step()\n",
            "    }\n",
            "    fn step(&mut self) -> u64 {\n",
            "        jitter_ns()\n",
            "    }\n",
            "}\n",
        ),
    )
    .write(
        "crates/topology/src/net.rs",
        concat!(
            "pub fn jitter_ns() -> u64 {\n",
            "    std::time::Instant::now().elapsed().as_nanos() as u64\n",
            "}\n",
        ),
    );
    let config = Config {
        reach_entries: vec!["icn_core::sim::Simulator::run".into()],
        ..Config::default()
    };
    let report = fx.scan(&config);
    assert_eq!(
        keys(&report),
        vec!["deterministic-core-reach:crates/topology/src/net.rs:2"]
    );
    let msg = &report.new[0].message;
    assert!(msg.contains("Instant::now"), "{msg}");
    assert!(
        msg.contains("Simulator::run -> Simulator::step -> net::jitter_ns"),
        "chain must be printed: {msg}"
    );
}

/// Obs-gated instrumentation reachable from an entry point must not be a
/// reach finding: the default build compiles it to nothing.
#[test]
fn obs_gated_source_is_not_a_reach_finding() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/sim.rs",
        concat!(
            "use icn_topology::net::stamp;\n",
            "pub struct Simulator;\n",
            "impl Simulator {\n",
            "    pub fn run(&mut self) {\n",
            "        stamp();\n",
            "    }\n",
            "}\n",
        ),
    )
    .write(
        "crates/topology/src/net.rs",
        concat!(
            "pub fn stamp() {\n",
            "    #[cfg(feature = \"obs\")]\n",
            "    let _t = std::time::Instant::now();\n",
            "}\n",
        ),
    );
    let config = Config {
        reach_entries: vec!["icn_core::sim::Simulator::run".into()],
        ..Config::default()
    };
    let report = fx.scan(&config);
    assert!(report.ok(), "unexpected: {:?}", report.new);
}

/// A justified reach exemption: the allow directive suppresses the finding
/// and is credited, so `stale-allow` stays quiet about it.
#[test]
fn reach_allow_suppresses_and_is_not_stale() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/sim.rs",
        concat!(
            "pub struct Simulator;\n",
            "impl Simulator {\n",
            "    pub fn run(&mut self) {\n",
            "        mode();\n",
            "    }\n",
            "}\n",
            "fn mode() -> bool {\n",
            "    // lint:allow(deterministic-core-reach): build-mode switch, not per-run input\n",
            "    std::env::var_os(\"ICN_MODE\").is_some()\n",
            "}\n",
        ),
    );
    let config = Config {
        reach_entries: vec!["icn_core::sim::Simulator::run".into()],
        ..Config::default()
    };
    let report = fx.scan(&config);
    assert!(report.ok(), "unexpected: {:?}", report.new);
}

#[test]
fn unsafe_audit_demands_safety_comment_and_inventory() {
    let fx = Fixture::new();
    fx.write(
        "crates/cache/src/lru.rs",
        concat!(
            "fn naked(p: *const u8) -> u8 {\n",
            "    unsafe { *p }\n",
            "}\n",
            "fn justified(p: *const u8) -> u8 {\n",
            "    // SAFETY: caller guarantees p is valid for reads\n",
            "    unsafe { *p }\n",
            "}\n",
        ),
    );
    let report = fx.scan(&Config::default());
    assert_eq!(
        keys(&report),
        vec![
            "unsafe-audit:crates/cache/src/lru.rs:2",
            "unsafe-audit:crates/cache/src/lru.rs:6",
        ]
    );
    assert!(
        report.new[0].message.contains("SAFETY:"),
        "{:?}",
        report.new
    );
    assert!(
        report.new[1].message.contains("--write-baseline"),
        "{:?}",
        report.new
    );

    // Justified and inventoried: clean, and the inventory is reported.
    fx.write(
        "crates/cache/src/lru.rs",
        concat!(
            "fn justified(p: *const u8) -> u8 {\n",
            "    // SAFETY: caller guarantees p is valid for reads\n",
            "    unsafe { *p }\n",
            "}\n",
        ),
    );
    let config = Config {
        unsafe_sites: vec!["crates/cache/src/lru.rs:3".into()],
        ..Config::default()
    };
    let report = fx.scan(&config);
    assert!(report.ok(), "unexpected: {:?}", report.new);
    assert_eq!(
        report.unsafe_inventory,
        vec!["crates/cache/src/lru.rs:3".to_string()]
    );

    // Removing the unsafe leaves the inventory entry stale.
    fx.write("crates/cache/src/lru.rs", "fn safe_now() {}\n");
    let report = fx.scan(&config);
    assert!(report.ok());
    assert_eq!(
        report.stale_unsafe,
        vec!["crates/cache/src/lru.rs:3".to_string()]
    );
}

/// Guard for the PR 5 invariant: allocation in a configured hot-path root
/// *or one of its direct callees* fails the scan; cold siblings the root
/// never calls are untouched.
#[test]
fn hot_path_alloc_bans_roots_and_direct_callees() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/sim.rs",
        concat!(
            "pub struct Simulator;\n",
            "impl Simulator {\n",
            "    pub fn process(&mut self) {\n",
            "        self.refill();\n",
            "        let _label = format!(\"req\");\n",
            "    }\n",
            "    fn refill(&mut self) {\n",
            "        let _v: Vec<u32> = Vec::new();\n",
            "    }\n",
            "    fn cold(&mut self) {\n",
            "        let _s = String::new();\n",
            "    }\n",
            "}\n",
        ),
    );
    let config = Config {
        hot_path: vec!["Simulator::process".into()],
        ..Config::default()
    };
    let report = fx.scan(&config);
    assert_eq!(
        keys(&report),
        vec![
            "hot-path-alloc:crates/core/src/sim.rs:5",
            "hot-path-alloc:crates/core/src/sim.rs:8",
        ]
    );
    assert!(
        report.new[0].message.contains("`format!`"),
        "{:?}",
        report.new
    );
    assert!(
        report.new[1].message.contains("direct callee"),
        "{:?}",
        report.new
    );
}

#[test]
fn stale_allow_directive_is_flagged() {
    let fx = Fixture::new();
    fx.write(
        "crates/topology/src/net.rs",
        concat!(
            "fn fine() -> u32 {\n",
            "    // lint:allow(no-panic-in-lib): leftover from a removed unwrap\n",
            "    7\n",
            "}\n",
        ),
    );
    let report = fx.scan(&Config::default());
    assert_eq!(
        keys(&report),
        vec!["stale-allow:crates/topology/src/net.rs:2"]
    );
    assert!(report.new[0].message.contains("suppresses nothing"));
}

/// A configured entry that resolves to no function is itself a violation:
/// renames must not silently disable the analysis.
#[test]
fn unresolvable_reach_and_hot_path_entries_are_flagged() {
    let fx = Fixture::new();
    fx.write("crates/core/src/sim.rs", "pub fn run_all() {}\n");
    let config = Config {
        reach_entries: vec!["icn_core::sim::gone".into()],
        hot_path: vec!["Simulator::vanished".into()],
        ..Config::default()
    };
    let report = fx.scan(&config);
    assert_eq!(
        keys(&report),
        vec![
            "deterministic-core-reach:lint.toml:0",
            "hot-path-alloc:lint.toml:0",
        ]
    );
}

#[test]
fn fixture_paths_are_real() {
    let fx = Fixture::new();
    fx.write("crates/core/src/lib.rs", "fn ok() {}\n");
    assert!(Path::new(&fx.root).join("crates/core/src/lib.rs").is_file());
    let report = fx.scan(&Config::default());
    assert_eq!(report.files, 1);
}
