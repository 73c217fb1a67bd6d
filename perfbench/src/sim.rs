//! The two simulator workloads: the Figure-6 grid (`fig6`) and one
//! CDN-scale cell per design on a wide access tree (`cdn-wide`).

use crate::trace::{id_of, maybe_span, SpanId, Tracer, NO_PARENT};
use crate::{mix_seed, Pass};
use icn_cache::budget::{per_node_budgets, BudgetPolicy};
use icn_cache::policy::PolicyKind;
use icn_cache::slot::CacheSlot;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::dir::MAX_MASK_TREE;
use icn_core::instrument::SimObs;
use icn_core::metrics::{Improvement, RunMetrics};
use icn_core::sweep::{run_cells_reported, Scenario, SweepCell};
use icn_core::{CostTable, LatencyModel, Simulator};
use icn_obs::json::Value;
use icn_obs::{ProfileSnapshot, Profiler, Registry};
use icn_topology::{AccessTree, Network, PopGraph};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::trace::{Locality, Trace, TraceConfig, TraceIter};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Trace volume of the figure binaries' default `SCALE`.
const FIG6_SCALE: f64 = 0.25;

/// The paper's bound on the latency gap between the Figure-6 designs
/// ("≤ ~9%"), plus the margin this benchmark allows a seeded trace.
const PAPER_GAP_PCT: f64 = 9.0;
const GAP_MARGIN_PCT: f64 = 2.0;

/// `cdn-wide` shape: ATT under an arity-4, depth-4 access tree (341
/// routers per PoP, beyond the `u128` directory's 128) and a catalogue of
/// 10⁵ objects.
const CDN_TOPOLOGY: &str = "ATT";
const CDN_TREE: (u32, u32) = (4, 4);
const CDN_OBJECTS: u32 = 100_000;
const CDN_REQUESTS: usize = 300_000;

/// Requests per timed piece of a `cdn-wide` cell (see
/// `stats::speed_factors`).
const CDN_PIECE: usize = 5_000;

/// The designs of one `cdn-wide` pass, one cell each.
const CDN_DESIGNS: [DesignKind; 3] = [DesignKind::NoCache, DesignKind::IcnNr, DesignKind::Edge];

/// Spans a traced `fig6` pass records, reported with their self times.
pub const FIG6_SPANS: &[&str] = &[
    "fig6",
    "sweep.build",
    "sweep.scenario",
    "sweep.warm",
    "sweep.cells",
    "sim.nocache",
    "sim.icn-sp",
    "sim.icn-nr",
    "sim.edge",
    "sim.edge-coop",
    "sim.edge-norm",
    "bench.normalise",
];

/// Spans a traced `cdn-wide` pass records.
pub const CDN_SPANS: &[&str] = &[
    "cdn-wide",
    "topology.network",
    "workload.origins",
    "sim.new",
    "sim.nocache",
    "sim.icn-nr",
    "sim.edge",
    "bench.normalise",
];

/// Metric-name form of a design (`ICN-NR` → `icn-nr`).
fn key(d: DesignKind) -> String {
    d.name().to_ascii_lowercase()
}

/// The `fig6` trace: the Asia region at the binaries' default scale,
/// seeded by the benchmark seed.
fn fig6_trace(seed: u64) -> TraceConfig {
    let mut cfg = icn_bench::asia_trace(FIG6_SCALE);
    cfg.seed = mix_seed(seed, 6);
    cfg
}

/// The `cdn-wide` trace: 10⁵ objects at the Asia α and the calibrated
/// locality, streamed rather than materialized.
fn cdn_trace(seed: u64) -> TraceConfig {
    TraceConfig {
        requests: CDN_REQUESTS,
        objects: CDN_OBJECTS,
        alpha: icn_workload::trace::Region::Asia.paper_alpha(),
        locality: Some(Locality::cdn_default()),
        seed: mix_seed(seed, 7),
        ..TraceConfig::small()
    }
}

fn cdn_topology() -> PopGraph {
    icn_bench::paper_topologies()
        .into_iter()
        .find(|g| g.name == CDN_TOPOLOGY)
        .expect("ATT is one of the paper topologies")
}

/// FNV-1a over the debug form of every cell's `RunMetrics`: equal for
/// equal simulated statistics, different as soon as one counter moves.
fn digest<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for run in runs {
        for b in format!("{run:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Checks that do not rest on the simulator agreeing with itself: every
/// request is accounted for exactly once.
fn check_cell(label: &str, run: &RunMetrics, expected: u64, failures: &mut Vec<String>) {
    if run.requests != expected {
        failures.push(format!(
            "{label}: {} requests, trace has {expected}",
            run.requests
        ));
    }
    if run.cache_hits + run.origin_hits + run.failed_requests != run.requests {
        failures.push(format!(
            "{label}: hits {} + origin {} + failed {} != requests {}",
            run.cache_hits, run.origin_hits, run.failed_requests, run.requests
        ));
    }
}

fn check_improves(label: &str, imp: &Improvement, failures: &mut Vec<String>) {
    if !(imp.latency_pct > 0.0 && imp.congestion_pct > 0.0 && imp.origin_pct > 0.0) {
        failures.push(format!("{label}: does not improve on NoCache: {imp:?}"));
    }
}

/// One `fig6` pass: build the eight scenarios, run the 48-cell grid and
/// normalise, exactly as the `fig6` binary does. With a tracer the sweep
/// goes through `run_cells_reported` (the call the telemetry batch wraps)
/// so each cell becomes a span, with the existing profiler attached.
pub fn fig6_pass(seed: u64, jobs: usize, tracer: Option<&Tracer>) -> Pass {
    let t0 = Instant::now();
    let root = maybe_span(tracer, "fig6", NO_PARENT, 0);
    let root_id = id_of(&root);
    let designs = DesignKind::figure6_designs();
    let topos = icn_bench::paper_topologies();
    let trace_cfg = fig6_trace(seed);
    let (scenarios, build_s): (Vec<Scenario>, Vec<f64>) = {
        let build = maybe_span(tracer, "sweep.build", root_id, 0);
        let build_id = id_of(&build);
        icn_bench::par_build(topos.len(), jobs, |i| {
            let _s = maybe_span(tracer, "sweep.scenario", build_id, i as u64);
            let t = Instant::now();
            let scenario = Scenario::build(
                topos[i].clone(),
                icn_bench::baseline_tree(),
                trace_cfg.clone(),
                OriginPolicy::PopulationProportional,
            );
            (scenario, t.elapsed().as_secs_f64())
        })
        .into_iter()
        .unzip()
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let cells: Vec<SweepCell<'_>> = scenarios
        .iter()
        .flat_map(|s| {
            designs.iter().map(move |&d| SweepCell {
                scenario: s,
                cfg: ExperimentConfig::baseline(d),
            })
        })
        .collect();
    let sweep_start = Instant::now();
    let (results, traced, cell_s) = match tracer {
        None => {
            let telemetry = icn_bench::Telemetry::disabled();
            let results = telemetry.improvement_batch_jobs(&cells, jobs);
            let cell_s = cell_seconds(&telemetry, cells.len());
            (results, None, cell_s)
        }
        Some(t) => {
            let (results, traced) = traced_sweep(t, root_id, &scenarios, &cells, jobs);
            (results, Some(traced), Vec::new())
        }
    };
    let sweep_s = sweep_start.elapsed().as_secs_f64();

    let norm = maybe_span(tracer, "bench.normalise", root_id, 0);
    let mut failures = Vec::new();
    let trace_len = scenarios[0].trace.len() as u64;
    let mut runs: Vec<&RunMetrics> = Vec::new();
    let mut max_gap = f64::MIN;
    for (s, chunk) in scenarios.iter().zip(results.chunks(designs.len())) {
        let topo = &s.net.core.name;
        check_cell(
            &format!("{topo}/NoCache"),
            s.baseline_metrics(),
            trace_len,
            &mut failures,
        );
        runs.push(s.baseline_metrics());
        let mut lat = Vec::new();
        for (d, (imp, run)) in designs.iter().zip(chunk) {
            let label = format!("{topo}/{}", d.name());
            check_cell(&label, run, trace_len, &mut failures);
            check_improves(&label, imp, &mut failures);
            runs.push(run);
            lat.push(imp.latency_pct);
        }
        let gap = lat.iter().cloned().fold(f64::MIN, f64::max)
            - lat.iter().cloned().fold(f64::MAX, f64::min);
        max_gap = max_gap.max(gap);
        if gap > PAPER_GAP_PCT + GAP_MARGIN_PCT {
            failures.push(format!(
                "{topo}: latency max-gap {gap:.2}% exceeds the paper's {PAPER_GAP_PCT}% + {GAP_MARGIN_PCT}% margin"
            ));
        }
    }
    let digest = digest(runs.iter().copied());
    drop(norm);
    let wall_s = t0.elapsed().as_secs_f64();
    drop(root);

    let mut info = vec![format!(
        "fig6 latency max-gap {max_gap:.2}% (limit {})",
        PAPER_GAP_PCT + GAP_MARGIN_PCT
    )];
    let mut layers = BTreeMap::new();
    if let (Some(t), Some(traced)) = (tracer, traced) {
        fig6_layers(t, root_id, &scenarios, &results, &traced, jobs, &mut layers);
        info.push(traced.profile.render_table());
    }
    let attempted = (scenarios.len() * (designs.len() + 1)) as u64;
    Pass {
        setup_s,
        wall_s,
        work: trace_len * attempted,
        work_s: sweep_s,
        setup_parts: build_s,
        work_parts: cell_s,
        attempted,
        failed: (failures.len() as u64).min(attempted),
        failures,
        digest: Some(digest),
        root: root_id,
        layers,
        info,
    }
}

/// Seconds each cell of the sweep took, in submission order, read from
/// the flight recorder the batch call feeds; empty when the recorder's
/// ring did not keep every cell.
fn cell_seconds(telemetry: &icn_bench::Telemetry, cells: usize) -> Vec<f64> {
    let Ok(record) = icn_obs::json::parse(&telemetry.flight().to_json()) else {
        return Vec::new();
    };
    let mut secs = vec![None; cells];
    for event in record.get("recent").and_then(Value::as_arr).unwrap_or(&[]) {
        let field = |k: &str| event.get(k).and_then(Value::as_u64);
        if let (Some(i), Some(ns)) = (field("index"), field("wall_ns")) {
            if let Some(slot) = secs.get_mut(i as usize) {
                *slot = Some(ns as f64 / 1e9);
            }
        }
    }
    secs.into_iter()
        .collect::<Option<Vec<f64>>>()
        .unwrap_or_default()
}

/// What the traced sweep collects beside its results.
struct TracedSweep {
    profile: ProfileSnapshot,
    coop_probes: u64,
    warm_id: SpanId,
    cells_id: SpanId,
}

fn traced_sweep(
    tracer: &Tracer,
    parent: SpanId,
    scenarios: &[Scenario],
    cells: &[SweepCell<'_>],
    jobs: usize,
) -> (Vec<(Improvement, RunMetrics)>, TracedSweep) {
    // The library pre-warms each scenario's NoCache baseline in one
    // parallel pass before the cell fan-out; doing that pass here, with
    // the same shape, makes each baseline its own span.
    let warm = tracer.span("sweep.warm", parent, 0);
    let warm_id = warm.id();
    icn_bench::par_build(scenarios.len(), jobs, |i| {
        let _s = tracer.span("sim.nocache", warm_id, i as u64);
        black_box(scenarios[i].baseline_metrics());
    });
    drop(warm);
    let span = tracer.span("sweep.cells", parent, 0);
    let cells_id = span.id();
    let registries: Vec<Registry> = (0..jobs).map(|_| Registry::new()).collect();
    let profilers: Vec<Profiler> = (0..jobs).map(|_| Profiler::new()).collect();
    let results = run_cells_reported(
        cells,
        jobs,
        |worker, _, cell| {
            Some(
                SimObs::new(&registries[worker], cell.cfg.design.name())
                    .with_profiler(&profilers[worker]),
            )
        },
        |sample| {
            let end = Instant::now();
            let start = end - Duration::from_nanos(sample.wall_ns);
            let name = format!("sim.{}", key(cells[sample.index].cfg.design));
            tracer.record(name, cells_id, sample.index as u64, start, end);
        },
    );
    drop(span);
    let merged = Profiler::new();
    for p in &profilers {
        merged.merge_from(p);
    }
    let coop_probes = registries
        .iter()
        .map(|r| r.counter("sim.coop_probes").get())
        .sum();
    (
        results,
        TracedSweep {
            profile: merged.snapshot(),
            coop_probes,
            warm_id,
            cells_id,
        },
    )
}

/// Self-time shares of the simulator's sampled profiler phases.
fn phase_shares(profile: &ProfileSnapshot, prefix: &str, layers: &mut BTreeMap<String, f64>) {
    let total: f64 = profile.phases.values().map(|p| p.self_ns.sum as f64).sum();
    for phase in [
        "request",
        "dir_lookup",
        "cost_select",
        "cache_probe",
        "evict_insert",
    ] {
        let own = profile
            .phases
            .get(&format!("sim.{phase}"))
            .map_or(0.0, |p| p.self_ns.sum as f64);
        layers.insert(
            format!("{prefix}.sim.phase.{phase}"),
            if total > 0.0 { own / total } else { 0.0 },
        );
    }
}

/// Runs `f` `reps` times and returns the median seconds of one run.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

fn fig6_layers(
    tracer: &Tracer,
    root: SpanId,
    scenarios: &[Scenario],
    results: &[(Improvement, RunMetrics)],
    traced: &TracedSweep,
    jobs: usize,
    layers: &mut BTreeMap<String, f64>,
) {
    let designs = DesignKind::figure6_designs();
    let trace_len = scenarios[0].trace.len() as f64;
    let spans = tracer.totals(root);
    let mut busy = 0.0;
    let mut max_cell = 0.0f64;
    for d in std::iter::once(DesignKind::NoCache).chain(designs) {
        let (count, total_s, max_s) = spans
            .get(&format!("sim.{}", key(d)))
            .copied()
            .unwrap_or_default();
        busy += total_s;
        let rate = count as f64 * trace_len / total_s.max(f64::MIN_POSITIVE);
        layers.insert(format!("fig6.sim.{}.req_per_s", key(d)), rate);
        if d != DesignKind::NoCache {
            max_cell = max_cell.max(max_s);
        }
    }
    layers.insert("fig6.sweep.max_cell_s".into(), max_cell);
    for (i, d) in designs.iter().enumerate() {
        let (hits, reqs) = results
            .iter()
            .skip(i)
            .step_by(designs.len())
            .fold((0u64, 0u64), |(h, r), (_, run)| {
                (h + run.cache_hits, r + run.requests)
            });
        layers.insert(
            format!("fig6.sim.{}.hit_ratio", key(*d)),
            hits as f64 / reqs as f64,
        );
    }
    layers.insert("fig6.sim.coop_probes".into(), traced.coop_probes as f64);
    let warm_s = tracer.duration_s(traced.warm_id);
    let sweep_wall = warm_s + tracer.duration_s(traced.cells_id);
    layers.insert("fig6.sweep.warm_s".into(), warm_s);
    layers.insert(
        "fig6.sweep.parallel_eff".into(),
        busy / (jobs as f64 * sweep_wall),
    );
    phase_shares(&traced.profile, "fig6", layers);

    // Layer probes outside the timed pass: the parts of `Scenario::build`
    // and of each cell that the library does not expose as calls.
    let tree = icn_bench::baseline_tree();
    let cfg = scenarios[0].trace.config.clone();
    let mut synth = 0.0;
    let mut network = 0.0;
    let mut sim_new = 0.0;
    for s in scenarios {
        let t = Instant::now();
        black_box(Network::new(s.net.core.clone(), tree));
        network += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(Trace::synthesize(
            cfg.clone(),
            &s.net.core.populations,
            s.net.leaves_per_pop(),
        ));
        synth += t.elapsed().as_secs_f64();
        for d in std::iter::once(DesignKind::NoCache).chain(designs) {
            let t = Instant::now();
            black_box(Simulator::new(
                &s.net,
                ExperimentConfig::baseline(d),
                &s.origins,
                &s.trace.object_sizes,
            ));
            sim_new += t.elapsed().as_secs_f64();
        }
    }
    layers.insert("fig6.workload.synth_s".into(), synth);
    layers.insert("fig6.topology.network_s".into(), network);
    layers.insert("fig6.sim.new_s".into(), sim_new);
    layers.insert(
        "fig6.cache.lru_ns_per_op".into(),
        lru_ns_per_op(scenarios.last().expect("eight scenarios")),
    );
}

/// `CacheSlot` LRU at a leaf's Figure-6 budget, replaying the scenario's
/// object ids as the simulator probes a leaf: contains, then touch or
/// insert.
fn lru_ns_per_op(s: &Scenario) -> f64 {
    let budgets = per_node_budgets(
        BudgetPolicy::PopulationProportional,
        0.05,
        s.trace.config.objects as u64,
        &s.net.core.populations,
        s.net.nodes_per_pop(),
    );
    let leaf = s.net.leaf(0, 0) as usize;
    let ids: Vec<u64> = s
        .trace
        .requests
        .iter()
        .map(|r| u64::from(r.object))
        .collect();
    let secs = time_median(3, || {
        let mut slot = CacheSlot::build(PolicyKind::Lru, budgets[leaf].max(1));
        let mut hits = 0u64;
        for &id in &ids {
            if slot.contains(id) {
                slot.touch(id);
                hits += 1;
            } else {
                slot.insert(id);
            }
        }
        hits
    });
    secs * 1e9 / ids.len() as f64
}

/// One `cdn-wide` pass: network, origin map and a simulator per design,
/// then each design's cell fed straight from a `TraceIter`.
pub fn cdn_pass(seed: u64, tracer: Option<&Tracer>) -> Pass {
    let t0 = Instant::now();
    let root = maybe_span(tracer, "cdn-wide", NO_PARENT, 0);
    let root_id = id_of(&root);
    let cfg = cdn_trace(seed);
    let mut setup_parts = Vec::new();
    let mut t = Instant::now();
    let mut lap = || {
        setup_parts.push(t.elapsed().as_secs_f64());
        t = Instant::now();
    };
    let net = {
        let _s = maybe_span(tracer, "topology.network", root_id, 0);
        Network::new(cdn_topology(), AccessTree::new(CDN_TREE.0, CDN_TREE.1))
    };
    lap();
    let (origins, sizes) = {
        let _s = maybe_span(tracer, "workload.origins", root_id, 0);
        (
            assign_origins(
                OriginPolicy::PopulationProportional,
                cfg.objects,
                &net.core.populations,
                mix_seed(seed, 8),
            ),
            cfg.sizes.generate(cfg.objects, cfg.seed ^ 0xa5a5),
        )
    };
    lap();
    let registry = Registry::new();
    let profiler = Profiler::new();
    let mut sims: Vec<Simulator<'_>> = CDN_DESIGNS
        .iter()
        .map(|&d| {
            let _s = maybe_span(tracer, "sim.new", root_id, 0);
            let mut sim = Simulator::new(&net, ExperimentConfig::baseline(d), &origins, &sizes);
            if tracer.is_some() {
                sim.attach_obs(SimObs::new(&registry, d.name()).with_profiler(&profiler));
            }
            lap();
            sim
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let mut work_parts = Vec::new();
    let mut runs = Vec::new();
    let mut marks = Vec::with_capacity(CDN_DESIGNS.len() * (cfg.requests / CDN_PIECE + 2));
    for (sim, d) in sims.iter_mut().zip(CDN_DESIGNS) {
        let _s = maybe_span(tracer, &format!("sim.{}", key(d)), root_id, 0);
        let iter = TraceIter::new(&cfg, &net.core.populations, net.leaves_per_pop());
        let cell_start = marks.len();
        marks.push(Instant::now());
        let run = sim.run_streamed(Marked {
            inner: iter,
            left: CDN_PIECE,
            marks: &mut marks,
        });
        runs.push(run.clone());
        marks.push(Instant::now());
        // One piece per `CDN_PIECE` requests, from the marks of this cell.
        let cell = &marks[cell_start..];
        let secs: Vec<f64> = cell
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        work_parts.extend(secs);
    }
    let work_s = run_start.elapsed().as_secs_f64();

    let norm = maybe_span(tracer, "bench.normalise", root_id, 0);
    let mut failures = Vec::new();
    if net.tree.nodes() <= MAX_MASK_TREE {
        failures.push(format!(
            "tree of {} nodes does not exceed the bitmask directory",
            net.tree.nodes()
        ));
    }
    for (run, d) in runs.iter().zip(CDN_DESIGNS) {
        check_cell(d.name(), run, cfg.requests as u64, &mut failures);
        if d != DesignKind::NoCache {
            check_improves(
                d.name(),
                &Improvement::over_baseline(&runs[0], run),
                &mut failures,
            );
        }
    }
    let digest = digest(&runs);
    drop(norm);
    let wall_s = t0.elapsed().as_secs_f64();
    drop(root);

    let attempted = CDN_DESIGNS.len() as u64;
    let mut layers = BTreeMap::new();
    let mut info = Vec::new();
    if let Some(t) = tracer {
        let spans = t.totals(root_id);
        for (run, d) in runs.iter().zip(CDN_DESIGNS) {
            let (_, secs, _) = spans
                .get(&format!("sim.{}", key(d)))
                .copied()
                .unwrap_or_default();
            layers.insert(
                format!("cdn-wide.sim.{}.req_per_s", key(d)),
                run.requests as f64 / secs,
            );
            if d != DesignKind::NoCache {
                layers.insert(
                    format!("cdn-wide.sim.{}.hit_ratio", key(d)),
                    run.hit_ratio(),
                );
            }
        }
        layers.insert(
            "cdn-wide.costs.table_s".into(),
            time_median(3, || CostTable::new(&net, LatencyModel::Unit)),
        );
        let stream_s = time_median(3, || {
            TraceIter::new(&cfg, &net.core.populations, net.leaves_per_pop())
                .map(|r| u64::from(r.object))
                .sum::<u64>()
        });
        layers.insert(
            "cdn-wide.workload.stream_req_per_s".into(),
            cfg.requests as f64 / stream_s,
        );
        let profile = profiler.snapshot();
        phase_shares(&profile, "cdn-wide", &mut layers);
        info.push(profile.render_table());
    }
    Pass {
        setup_s,
        wall_s,
        work: cfg.requests as u64 * attempted,
        work_s,
        setup_parts,
        work_parts,
        attempted,
        failed: (failures.len() as u64).min(attempted),
        failures,
        digest: Some(digest),
        root: root_id,
        layers,
        info,
    }
}

/// A request stream that marks the time every `CDN_PIECE` requests, so a
/// streamed cell splits into equal pieces of work; one counter and a
/// branch per request.
struct Marked<'a, I> {
    inner: I,
    left: usize,
    marks: &'a mut Vec<Instant>,
}

impl<I: Iterator> Iterator for Marked<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        if self.left == 0 {
            self.marks.push(Instant::now());
            self.left = CDN_PIECE;
        }
        self.left -= 1;
        Some(item)
    }
}
