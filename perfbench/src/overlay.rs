//! `idicn-mix`: the Figure-11 pipeline on loopback, all in one process —
//! origin, resolver, reverse proxy and edge proxy — under closed-loop
//! clients that fetch Zipf-popular names and now and then publish a
//! fresh one.

use crate::stats::{median, percentile, supported_quantile};
use crate::trace::{id_of, maybe_span, SpanId, Tracer, NO_PARENT};
use crate::{mix_seed, Pass};
use icn_workload::zipf::Zipf;
use idicn::chunk::ChunkedDigests;
use idicn::crypto::mss::Identity;
use idicn::crypto::sha256::digest;
use idicn::http::{self, HttpServer};
use idicn::metalink::Metadata;
use idicn::name::ContentName;
use idicn::origin::OriginServer;
use idicn::proxy::{fetch_verified, EdgeProxy};
use idicn::resolver::{Resolver, ResolverClient};
use idicn::reverse_proxy::{ReverseProxy, DEFAULT_PIECE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Shape of the mix. The catalogue is several times the edge proxy's
/// capacity, so both the hit path and the resolve → reverse-proxy miss
/// path run.
#[derive(Debug)]
pub struct Mix {
    /// Objects published before the clients start.
    pub catalogue: usize,
    /// Bytes per object.
    pub object_bytes: usize,
    /// Edge proxy capacity in objects.
    pub proxy_capacity: usize,
    /// Operations per pass, split evenly over the clients.
    pub ops: usize,
    /// Share of operations that publish a fresh label.
    pub publish_share: f64,
    /// Share of fetches that name one of the client's own fresh labels.
    pub fresh_share: f64,
    /// Zipf exponent of catalogue popularity.
    pub alpha: f64,
    /// Merkle height of the publisher identity (2^h one-time keys).
    pub identity_height: u32,
    /// Closed-loop client threads.
    pub clients: usize,
}

impl Mix {
    /// The benchmark's mix for a host with `nproc` processors.
    pub fn standard(nproc: usize) -> Self {
        Self {
            catalogue: 400,
            object_bytes: 16 * 1024,
            proxy_capacity: 64,
            ops: 1200,
            publish_share: 0.02,
            fresh_share: 0.1,
            alpha: 1.0,
            identity_height: 10,
            clients: client_count(nproc),
        }
    }
}

/// Load comes from one process with one closed-loop client thread per
/// processor, so the load generator never outnumbers the cores.
pub fn client_count(nproc: usize) -> usize {
    nproc.max(1)
}

/// Catalogue publishes per timed piece of set-up, and client operations
/// per timed piece of load (see `stats::speed_factors`).
const PUBLISH_PIECE: usize = 20;
const OPS_PIECE: usize = 25;

/// Spans a traced `idicn-mix` pass records.
pub const SPANS: &[&str] = &[
    "idicn-mix",
    "crypto.identity",
    "http.serve",
    "rp.publish",
    "load",
    "client.hit",
    "client.miss",
    "client.publish",
];

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Fetch a catalogue object by index.
    Fetch(usize),
    /// Fetch the client's `n`th fresh label.
    FetchFresh(usize),
    /// Publish the client's next fresh label.
    Publish,
}

/// The seeded operation schedule of client `c`. Fresh labels are only
/// fetched by the client that published them, after the publish, so no
/// fetch can race its publish.
fn schedule(mix: &Mix, seed: u64, c: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 100 + c as u64));
    let zipf = Zipf::new(mix.catalogue, mix.alpha);
    let mut published = 0;
    (0..mix.ops / mix.clients)
        .map(|_| {
            if rng.gen_bool(mix.publish_share) {
                published += 1;
                Op::Publish
            } else if published > 0 && rng.gen_bool(mix.fresh_share) {
                Op::FetchFresh(rng.gen_range(0..published))
            } else {
                Op::Fetch(zipf.sample(&mut rng))
            }
        })
        .collect()
}

fn catalogue_label(i: usize) -> String {
    format!("obj-{i}")
}

fn fresh_label(client: usize, n: usize) -> String {
    format!("fresh-{client}-{n}")
}

/// The origin's bytes for `label`, derived from the seed alone.
fn content(seed: u64, label: &str, bytes: usize) -> Vec<u8> {
    let h = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut out = vec![0u8; bytes];
    StdRng::seed_from_u64(mix_seed(seed, h)).fill_bytes(&mut out);
    out
}

/// The four servers of Figure 11.
struct World {
    origin: OriginServer,
    origin_srv: HttpServer,
    resolver: ResolverClient,
    _resolver_srv: HttpServer,
    rp: ReverseProxy,
    _rp_srv: HttpServer,
    proxy: EdgeProxy,
    proxy_srv: HttpServer,
}

/// Starts the servers; also returns the seconds identity generation and
/// server start took.
fn start_world(mix: &Mix, seed: u64, tracer: Option<&Tracer>, parent: SpanId) -> (World, [f64; 2]) {
    let t = Instant::now();
    let identity = {
        let _s = maybe_span(tracer, "crypto.identity", parent, 0);
        Identity::generate(
            &mut StdRng::seed_from_u64(mix_seed(seed, 9)),
            mix.identity_height,
        )
    };
    let identity_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _s = maybe_span(tracer, "http.serve", parent, 0);
    let origin = OriginServer::new();
    let origin_srv = origin.serve().expect("origin binds a loopback port");
    let resolver_core = Resolver::new();
    let resolver_srv = resolver_core
        .serve()
        .expect("resolver binds a loopback port");
    let resolver = ResolverClient::new(resolver_srv.addr());
    let rp = ReverseProxy::new(identity, origin_srv.addr(), resolver);
    let rp_srv = rp.serve().expect("reverse proxy binds a loopback port");
    let proxy = EdgeProxy::new(resolver, mix.proxy_capacity);
    let proxy_srv = proxy.serve().expect("edge proxy binds a loopback port");
    let world = World {
        origin,
        origin_srv,
        resolver,
        _resolver_srv: resolver_srv,
        rp,
        _rp_srv: rp_srv,
        proxy,
        proxy_srv,
    };
    (world, [identity_s, t.elapsed().as_secs_f64()])
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    /// Seconds of each run of `OPS_PIECE` operations, in order.
    piece_s: Vec<f64>,
    failures: Vec<String>,
}

/// What every client of one pass shares.
struct Load<'a> {
    world: &'a World,
    mix: &'a Mix,
    seed: u64,
    catalogue: &'a [(ContentName, Vec<u8>)],
    tracer: Option<&'a Tracer>,
    parent: SpanId,
}

fn run_client(load: &Load<'_>, c: usize, ops: &[Op]) -> ClientLog {
    let Load {
        world,
        mix,
        seed,
        catalogue,
        tracer,
        parent,
    } = *load;
    let mut log = ClientLog::default();
    let mut fresh: Vec<(ContentName, Vec<u8>)> = Vec::new();
    let mut piece = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if i > 0 && i % OPS_PIECE == 0 {
            log.piece_s.push(piece.elapsed().as_secs_f64());
            piece = Instant::now();
        }
        let request = ((c as u64) << 32) | i as u64;
        if *op == Op::Publish {
            let label = fresh_label(c, fresh.len());
            let bytes = content(seed, &label, mix.object_bytes);
            world.origin.add_content(&label, bytes.clone());
            let span = maybe_span(tracer, "client.publish", parent, request);
            let t = Instant::now();
            let published = world.rp.publish(&label);
            log.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(span);
            match published {
                Ok(name) => fresh.push((name, bytes)),
                Err(e) => log.failures.push(format!("publish {label}: {e}")),
            }
            continue;
        }
        let target = match *op {
            Op::FetchFresh(k) => fresh.get(k),
            Op::Fetch(k) => catalogue.get(k),
            Op::Publish => None,
        };
        let Some((name, expected)) = target else {
            log.failures
                .push(format!("client {c} op {i}: {op:?} names nothing published"));
            continue;
        };
        let mut span = maybe_span(tracer, "client.fetch", parent, request);
        let t = Instant::now();
        let fetched = fetch_verified(world.proxy_srv.addr(), name);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match fetched {
            Ok((body, _, hit)) => {
                if let Some(s) = span.as_mut() {
                    s.rename(if hit { "client.hit" } else { "client.miss" });
                }
                drop(span);
                if body != *expected {
                    log.failures.push(format!(
                        "{}: body differs from the origin's bytes",
                        name.label
                    ));
                }
                if hit {
                    &mut log.hit_ms
                } else {
                    &mut log.miss_ms
                }
                .push(ms);
            }
            Err(e) => log.failures.push(format!("fetch {}: {e}", name.label)),
        }
    }
    log.piece_s.push(piece.elapsed().as_secs_f64());
    log
}

/// One `idicn-mix` pass: start the four servers, publish the catalogue,
/// run the clients' schedules to the end, check, and stop.
pub fn mix_pass(mix: &Mix, seed: u64, tracer: Option<&Tracer>) -> Pass {
    // Inputs first, outside the timed pass.
    let schedules: Vec<Vec<Op>> = (0..mix.clients).map(|c| schedule(mix, seed, c)).collect();
    let publishes = schedules
        .iter()
        .flatten()
        .filter(|op| **op == Op::Publish)
        .count();
    let signatures = 2 * (mix.catalogue + publishes);
    if signatures > 1 << mix.identity_height {
        let msg = format!(
            "{signatures} signatures exceed an identity of height {}",
            mix.identity_height
        );
        return failed_setup(0.0, vec![msg], NO_PARENT);
    }
    let objects: Vec<(String, Vec<u8>)> = (0..mix.catalogue)
        .map(|i| {
            let label = catalogue_label(i);
            let bytes = content(seed, &label, mix.object_bytes);
            (label, bytes)
        })
        .collect();

    let t0 = Instant::now();
    let root = maybe_span(tracer, "idicn-mix", NO_PARENT, 0);
    let root_id = id_of(&root);
    let (world, start_s) = start_world(mix, seed, tracer, root_id);
    let mut setup_parts = start_s.to_vec();
    let mut failures = Vec::new();
    let mut piece = Instant::now();
    let catalogue: Vec<(ContentName, Vec<u8>)> = objects
        .into_iter()
        .enumerate()
        .filter_map(|(i, (label, bytes))| {
            if i > 0 && i % PUBLISH_PIECE == 0 {
                setup_parts.push(piece.elapsed().as_secs_f64());
                piece = Instant::now();
            }
            world.origin.add_content(&label, bytes.clone());
            let _s = maybe_span(tracer, "rp.publish", root_id, i as u64);
            match world.rp.publish(&label) {
                Ok(name) => Some((name, bytes)),
                Err(e) => {
                    failures.push(format!("publish {label}: {e}"));
                    None
                }
            }
        })
        .collect();
    setup_parts.push(piece.elapsed().as_secs_f64());
    let setup_s = t0.elapsed().as_secs_f64();
    if catalogue.len() < mix.catalogue {
        return failed_setup(setup_s, failures, root_id);
    }

    let load = maybe_span(tracer, "load", root_id, 0);
    let load_id = id_of(&load);
    let t_load = Instant::now();
    let shared = Load {
        world: &world,
        mix,
        seed,
        catalogue: &catalogue,
        tracer,
        parent: load_id,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mix.clients)
            .map(|c| {
                let (shared, ops) = (&shared, &schedules[c]);
                scope.spawn(move || run_client(shared, c, ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let load_s = t_load.elapsed().as_secs_f64();
    drop(load);

    let mut all = ClientLog::default();
    for log in logs {
        all.piece_s.extend(log.piece_s);
        all.hit_ms.extend(log.hit_ms);
        all.miss_ms.extend(log.miss_ms);
        all.publish_ms.extend(log.publish_ms);
        all.failures.extend(log.failures);
    }
    let stats = world.proxy.stats();
    let (hits, misses) = (all.hit_ms.len() as u64, all.miss_ms.len() as u64);
    if (stats.hits, stats.misses) != (hits, misses) {
        failures.push(format!(
            "proxy counted {} hits / {} misses, clients saw {hits} X-Cache HIT / {misses} MISS",
            stats.hits, stats.misses
        ));
    }
    if stats.verify_failures != 0 {
        failures.push(format!(
            "proxy rejected {} responses",
            stats.verify_failures
        ));
    }
    failures.append(&mut all.failures);
    let wall_s = t0.elapsed().as_secs_f64();
    drop(root);

    let fetch_ms: Vec<f64> = all.hit_ms.iter().chain(&all.miss_ms).copied().collect();
    let attempted = (mix.catalogue + schedules.iter().map(Vec::len).sum::<usize>()) as u64;
    let ms = |xs: &[f64], q: f64| percentile(xs, q).unwrap_or(0.0);
    // The reported tail is the highest percentile with ten fetches beyond it.
    let tail = supported_quantile(fetch_ms.len(), &[0.9, 0.99, 0.999], 10).unwrap_or(0.5);
    let info = vec![format!(
        "idicn-mix: {} fetches (p50 {:.3} ms, p{} {:.3} ms), {} publishes (p50 {:.3} ms), hit ratio {:.3}, {} clients",
        fetch_ms.len(),
        ms(&fetch_ms, 0.5),
        tail * 100.0,
        ms(&fetch_ms, tail),
        all.publish_ms.len(),
        ms(&all.publish_ms, 0.5),
        hits as f64 / (hits + misses).max(1) as f64,
        mix.clients,
    )];
    let mut layers = BTreeMap::new();
    if tracer.is_some() {
        let l = |k: &str| format!("idicn-mix.{k}");
        layers.insert(l("client.fetch_p50_ms"), ms(&fetch_ms, 0.5));
        layers.insert(l("client.fetch_p99_ms"), ms(&fetch_ms, 0.99));
        layers.insert(l("client.fetch_samples"), fetch_ms.len() as f64);
        layers.insert(l("client.hit_p50_ms"), ms(&all.hit_ms, 0.5));
        layers.insert(l("client.miss_p50_ms"), ms(&all.miss_ms, 0.5));
        layers.insert(l("client.publish_p50_ms"), ms(&all.publish_ms, 0.5));
        layers.insert(
            l("proxy.hit_ratio"),
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.insert(l("proxy.retries"), stats.retries as f64);
        layers.insert(l("proxy.verify_failures"), stats.verify_failures as f64);
        probe_layers(&world, &catalogue, mix, seed, &mut layers);
    }
    Pass {
        setup_s,
        wall_s,
        work: fetch_ms.len() as u64,
        work_s: load_s,
        setup_parts,
        work_parts: all.piece_s,
        attempted,
        failed: (failures.len() as u64).min(attempted),
        failures,
        digest: None,
        root: root_id,
        layers,
        info,
    }
}

fn failed_setup(setup_s: f64, failures: Vec<String>, root: SpanId) -> Pass {
    Pass {
        setup_s,
        wall_s: setup_s,
        work: 0,
        work_s: 0.0,
        setup_parts: Vec::new(),
        work_parts: Vec::new(),
        attempted: 1,
        failed: failures.len() as u64,
        failures,
        digest: None,
        root,
        layers: BTreeMap::new(),
        info: Vec::new(),
    }
}

/// Median microseconds of `reps` timed calls.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Per-layer probes against the pass's own servers, after its checks.
fn probe_layers(
    world: &World,
    catalogue: &[(ContentName, Vec<u8>)],
    mix: &Mix,
    seed: u64,
    layers: &mut BTreeMap<String, f64>,
) {
    let l = |k: &str| format!("idicn-mix.{k}");
    let (name, body) = &catalogue[0];
    let origin = world.origin_srv.addr();
    let path = format!("/content/{}", name.label);
    layers.insert(
        l("http.get_p50_ms"),
        median_us(200, || {
            black_box(http::http_get(origin, &path, &[]).expect("origin answers"));
        }) / 1e3,
    );
    layers.insert(
        l("resolver.resolve_p50_ms"),
        median_us(200, || {
            black_box(world.resolver.resolve(name).expect("name is registered"));
        }) / 1e3,
    );
    world
        .proxy
        .fetch(name)
        .expect("proxy fetches a published name");
    layers.insert(
        l("proxy.fetch_hit_us"),
        median_us(1000, || {
            black_box(world.proxy.fetch(name).expect("cached name"));
        }),
    );
    let url = format!("http://{}/", name.to_fqdn());
    let resp = http::http_get(world.proxy_srv.addr(), &url, &[]).expect("proxy answers");
    let header_bytes: usize = resp
        .headers
        .iter()
        .map(|(k, v)| k.len() + v.len() + 4)
        .sum();
    layers.insert(l("http.resp_header_bytes"), header_bytes as f64);
    layers.insert(
        l("metalink.parse_us"),
        median_us(200, || {
            black_box(Metadata::from_headers(&resp.headers).expect("valid metalink"));
        }),
    );
    let meta = Metadata::from_headers(&resp.headers).expect("valid metalink");
    layers.insert(
        l("metalink.verify_us"),
        median_us(200, || meta.verify(body).expect("authentic body")),
    );
    let mut identity = Identity::generate(&mut StdRng::seed_from_u64(mix_seed(seed, 10)), 8);
    let msg = digest(body);
    layers.insert(
        l("crypto.sign_us"),
        median_us(200, || {
            black_box(identity.sign(&msg));
        }),
    );
    let bytes = content(seed, "probe", mix.object_bytes);
    layers.insert(
        l("chunk.digest_us"),
        median_us(200, || {
            black_box(ChunkedDigests::compute(&bytes, DEFAULT_PIECE_SIZE));
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(clients: usize) -> Mix {
        Mix {
            catalogue: 12,
            object_bytes: 512,
            proxy_capacity: 4,
            ops: 60,
            publish_share: 0.1,
            fresh_share: 0.3,
            alpha: 1.0,
            identity_height: 6,
            clients,
        }
    }

    #[test]
    fn client_count_is_capped_at_nproc() {
        assert_eq!(client_count(2), 2);
        assert_eq!(client_count(16), 16);
        assert_eq!(client_count(0), 1);
        assert_eq!(Mix::standard(2).clients, 2);
    }

    #[test]
    fn a_small_pass_with_nproc_clients_is_correct() {
        let pass = mix_pass(&tiny(client_count(2)), 7, None);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        assert_eq!(pass.failed, 0);
        assert!(pass.work > 0);
    }

    #[test]
    fn schedules_follow_the_seed() {
        let mix = tiny(2);
        assert_eq!(schedule(&mix, 1, 0), schedule(&mix, 1, 0));
        assert_ne!(schedule(&mix, 1, 0), schedule(&mix, 2, 0));
        assert_ne!(schedule(&mix, 1, 0), schedule(&mix, 1, 1));
    }
}
