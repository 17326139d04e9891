//! `serve-mix`: two closed-loop clients against a freshly spawned
//! `codesign serve --port 0 --jobs <nproc>`, warm-started with
//! `--cache-load` from a snapshot of the paper-default sweep over the
//! six table networks. Each client sends its next request when the
//! previous `done` line arrives.
//!
//! The seeded request mix is ~75% `simulate`, ~15% `codesign` and ~10%
//! paper-default `sweep`, over the 12 zoo names and the design points
//! array {8,16,24,32} x rf {8,16} x buffer {64,96,128,192,256} KiB x
//! arch {hybrid,ws,os}. Popularity is Zipf-skewed, so about half of the
//! queries hit a design point that is in the snapshot or was asked for
//! earlier; the run reports that warm share.
//!
//! Every response is checked against an in-process replay of the same
//! request sequence on a simulator warm-started from the same snapshot.

use std::collections::HashSet;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign_core::{
    sweep_frontier_with, sweep_full_with, ArchitectureComparison, FrontierConfig, FrontierEvent,
    SweepSpace,
};
use codesign_dnn::zoo;
use codesign_sim::{resolve_jobs, validate_network, CancelToken, SimOptions, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::json::Json;
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::{peak_rss_mb, Env, Outcome};

/// The zoo names requests draw from; the first six are the table
/// networks the snapshot covers.
const NETWORKS: [&str; 12] = [
    "alexnet",
    "mobilenet",
    "tiny-darknet",
    "squeezenet-v1.0",
    "squeezenet-v1.1",
    "squeezenext",
    "squeezedet",
    "sqnxt-23v1",
    "sqnxt-23v2",
    "sqnxt-23v3",
    "sqnxt-23v4",
    "sqnxt-23v5",
];
const ARRAYS: [usize; 4] = [8, 16, 24, 32];
const RFS: [usize; 2] = [8, 16];
const BUFFERS_KIB: [usize; 5] = [64, 96, 128, 192, 256];
const ARCHS: [&str; 3] = ["hybrid", "ws", "os"];
/// Zipf exponent of request popularity.
const ZIPF_S: f64 = 0.75;
/// Requests generated per client; far more than a run sends.
const REQUESTS_PER_CLIENT: usize = 20_000;
/// Server spawns timed for `setup_s`; the last one serves the run.
const SETUP_REPS: usize = 11;
/// Length of the short session a traced run of another workload makes.
const PROBE_SECONDS: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Cmd {
    Simulate(usize),
    Codesign,
    Sweep,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Request {
    cmd: Cmd,
    net: usize,
    array: usize,
    rf: usize,
    buffer_kib: usize,
}

impl Request {
    fn line(&self, id: u64) -> String {
        let net = NETWORKS[self.net];
        let point = format!(
            "\"array\":{},\"rf\":{},\"buffer_kib\":{}",
            self.array, self.rf, self.buffer_kib
        );
        match self.cmd {
            Cmd::Sweep => format!("{{\"id\":{id},\"cmd\":\"sweep\",\"network\":\"{net}\"}}\n"),
            Cmd::Simulate(a) => format!(
                "{{\"id\":{id},\"cmd\":\"simulate\",\"network\":\"{net}\",\"arch\":\"{}\",{point}}}\n",
                ARCHS[a]
            ),
            Cmd::Codesign => {
                format!("{{\"id\":{id},\"cmd\":\"codesign\",\"network\":\"{net}\",{point}}}\n")
            }
        }
    }

    fn is_query(&self) -> bool {
        self.cmd != Cmd::Sweep
    }

    /// Whether the snapshot already holds this design point's layers.
    fn in_snapshot(&self) -> bool {
        self.net < 6
            && [8, 16, 32].contains(&self.array)
            && [64, 128, 256].contains(&self.buffer_kib)
    }

    fn config(&self) -> Result<AcceleratorConfig, String> {
        let mut b = AcceleratorConfig::builder();
        b.array_size(self.array).rf_depth(self.rf).global_buffer_bytes(self.buffer_kib * 1024);
        b.build().map_err(|e| e.to_string())
    }
}

/// One request kind's items in seeded popularity order.
struct Catalog {
    items: Vec<Request>,
    cdf: Vec<f64>,
}

impl Catalog {
    fn new(mut items: Vec<Request>, rng: &mut StdRng) -> Self {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
        let mut acc = 0.0;
        let cdf = (0..items.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        Self { items, cdf }
    }

    fn draw(&self, rng: &mut StdRng) -> Request {
        let x = rng.gen::<f64>() * self.cdf.last().copied().unwrap_or(0.0);
        self.items[self.cdf.partition_point(|&c| c <= x).min(self.items.len() - 1)]
    }
}

/// Each client's request sequence; popularity ranks are shared, so the
/// clients hit the same popular points.
fn request_streams(seed: u64, clients: usize) -> Vec<Vec<Request>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::new();
    for net in 0..NETWORKS.len() {
        for &array in &ARRAYS {
            for &rf in &RFS {
                for &buffer_kib in &BUFFERS_KIB {
                    points.push(Request { cmd: Cmd::Codesign, net, array, rf, buffer_kib });
                }
            }
        }
    }
    let simulate = Catalog::new(
        points
            .iter()
            .flat_map(|p| (0..ARCHS.len()).map(move |a| Request { cmd: Cmd::Simulate(a), ..*p }))
            .collect(),
        &mut rng,
    );
    let codesign = Catalog::new(points.clone(), &mut rng);
    let sweep = Catalog::new(
        (0..NETWORKS.len())
            .map(|net| Request { cmd: Cmd::Sweep, net, array: 0, rf: 0, buffer_kib: 0 })
            .collect(),
        &mut rng,
    );
    (0..clients)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E_u64 << 16 | c as u64));
            (0..REQUESTS_PER_CLIENT)
                .map(|_| match rng.gen::<f64>() {
                    u if u < 0.75 => simulate.draw(&mut rng),
                    u if u < 0.90 => codesign.draw(&mut rng),
                    _ => sweep.draw(&mut rng),
                })
                .collect()
        })
        .collect()
}

/// The warm-start snapshot: the paper-default sweep over the table
/// networks.
pub fn make_snapshot(env: &Env) -> Result<Vec<u8>, String> {
    let sim = Simulator::new();
    let (space, opts, energy) =
        (SweepSpace::paper_default(), SimOptions::paper_default(), EnergyModel::default());
    for net in zoo::table_networks() {
        sweep_full_with(&sim, &net, &space, opts, &energy, env.jobs)
            .map_err(|e| format!("snapshot sweep of {}: {e}", net.name()))?;
    }
    sim.cache_snapshot().map_err(|e| e.to_string())
}

/// A spawned `codesign serve`, killed on drop if still running.
struct Server {
    child: Child,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(env: &Env, snapshot: &Path) -> Result<Server, String> {
        let mut child = Command::new(&env.codesign)
            .args(["serve", "--port", "0", "--jobs", &env.jobs.to_string(), "--cache-load"])
            .arg(snapshot)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", env.codesign.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("server stdout missing")?);
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().rsplit(' ').next().and_then(|a| a.parse().ok()));
        match addr {
            Some(addr) => Ok(Server { child, _stdout: stdout, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("bad server handshake {line:?}"))
            }
        }
    }

    /// Sends one single-line request on a fresh connection.
    fn ask(&self, line: &str) -> Result<Json, String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).map_err(|e| e.to_string())?;
        Json::parse(reply.trim())
    }

    fn stats(&self) -> Result<Json, String> {
        self.ask("{\"id\":0,\"cmd\":\"stats\"}\n")
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(&mut self) -> Result<(), String> {
        let _ = self.ask("{\"id\":0,\"cmd\":\"shutdown\"}\n");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not shut down".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request as a client saw it.
struct Sample {
    req: Request,
    traced: bool,
    start: Instant,
    first: Instant,
    last: Instant,
    lines: Vec<String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.last - self.start).as_secs_f64() * 1e3
    }
}

/// Whether a client traces every request, every other one, or none.
#[derive(Clone, Copy, PartialEq)]
enum Tracing {
    Off,
    Alternate,
    All,
}

/// A closed-loop client: sends each request once the previous `done`
/// (or `error`) line has arrived, until `deadline`.
fn client(
    addr: SocketAddr,
    reqs: &[Request],
    deadline: Instant,
    id_base: u64,
    spans: &Spans,
    tracing: Tracing,
) -> Result<Vec<Sample>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut samples = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = id_base + i as u64;
        let traced = match tracing {
            Tracing::Off => false,
            Tracing::Alternate => i % 2 == 1,
            Tracing::All => true,
        };
        let line = req.line(id);
        let start = Instant::now();
        writer.write_all(line.as_bytes()).map_err(|e| format!("write: {e}"))?;
        let written = Instant::now();
        let mut lines = Vec::new();
        let mut first = None;
        loop {
            let mut buf = String::new();
            if reader.read_line(&mut buf).map_err(|e| format!("read: {e}"))? == 0 {
                return Err("the server closed the connection".to_owned());
            }
            first.get_or_insert_with(Instant::now);
            let end = buf.contains("\"event\":\"done\"") || buf.contains("\"event\":\"error\"");
            lines.push(buf.trim_end().to_owned());
            if end {
                break;
            }
        }
        let last = Instant::now();
        let first = first.unwrap_or(last);
        if traced {
            let root =
                spans.record("serve.request", id, None, spans.ns_at(start), spans.ns_at(last));
            spans.record("serve.write", id, root, spans.ns_at(start), spans.ns_at(written));
            spans.record("serve.first_line", id, root, spans.ns_at(written), spans.ns_at(first));
            spans.record("serve.last_line", id, root, spans.ns_at(first), spans.ns_at(last));
        }
        samples.push(Sample { req: *req, traced, start, first, last, lines });
    }
    Ok(samples)
}

/// What the replay computed for one request.
#[derive(PartialEq)]
enum Expected {
    Simulate { cycles: u64, energy: f64, utilization: f64 },
    Codesign { cycles: [u64; 3], reductions: [f64; 2] },
    Sweep { deltas: Vec<(String, u64, f64, f64)>, points: u64, frontier: u64, best: Option<String> },
}

/// Replays one request in-process through the layers the server calls:
/// `zoo::by_name`, `validate_network`, then the simulator, evaluator or
/// streaming sweep.
fn replay_one(
    req: &Request,
    sim: &Simulator,
    jobs: usize,
    spans: &Spans,
    op: u64,
) -> Result<Expected, String> {
    let (opts, energy) = (SimOptions::paper_default(), EnergyModel::default());
    let root = spans.open("replay.request", op, None);
    let net = spans
        .time("dnn.by_name", op, root, |_| zoo::by_name(NETWORKS[req.net]))
        .ok_or("unknown network")?;
    let expected = if req.cmd == Cmd::Sweep {
        let config = FrontierConfig {
            jobs,
            chunk: resolve_jobs(jobs).max(1),
            prune: false,
            ..FrontierConfig::default()
        };
        let mut deltas = Vec::new();
        let outcome = spans
            .time("core.sweep_frontier", op, root, |_| {
                sweep_frontier_with(
                    sim,
                    &net,
                    &SweepSpace::paper_default(),
                    opts,
                    &energy,
                    &config,
                    &CancelToken::never(),
                    |event| {
                        if let FrontierEvent::Entered { point, .. } = event {
                            deltas.push((
                                point.params.to_string(),
                                point.cycles,
                                point.energy,
                                point.area,
                            ));
                        }
                    },
                )
            })
            .map_err(|e| e.to_string())?;
        Expected::Sweep {
            deltas,
            points: outcome.counters.evaluated,
            frontier: outcome.frontier.len() as u64,
            best: outcome.best.map(|p| p.params.to_string()),
        }
    } else {
        let cfg = req.config()?;
        spans
            .time("sim.validate", op, root, |_| validate_network(&net, &cfg))
            .map_err(|e| e.to_string())?;
        match req.cmd {
            Cmd::Simulate(a) => {
                let policy = match a {
                    0 => DataflowPolicy::PerLayer,
                    1 => DataflowPolicy::Fixed(Dataflow::WeightStationary),
                    _ => DataflowPolicy::Fixed(Dataflow::OutputStationary),
                };
                let perf = spans
                    .time("sim.simulate_network", op, root, |_| {
                        sim.try_simulate_network(&net, &cfg, policy, opts)
                    })
                    .map_err(|e| e.to_string())?;
                Expected::Simulate {
                    cycles: perf.total_cycles(),
                    energy: perf.total_energy(&energy),
                    utilization: perf.average_utilization(cfg.pe_count()),
                }
            }
            _ => {
                let c = spans.time("core.evaluate", op, root, |_| {
                    ArchitectureComparison::evaluate_with(sim, &net, &cfg, opts, energy)
                });
                Expected::Codesign {
                    cycles: [c.hybrid.total_cycles(), c.ws.total_cycles(), c.os.total_cycles()],
                    reductions: [c.energy_reduction_vs_ws(), c.energy_reduction_vs_os()],
                }
            }
        }
    };
    spans.close(root);
    Ok(expected)
}

/// What the server answered, in the replay's terms.
fn answered(s: &Sample) -> Option<Expected> {
    let done = Json::parse(s.lines.last()?).ok()?;
    if done.str("event")? != "done" {
        return None;
    }
    Some(match s.req.cmd {
        Cmd::Simulate(_) => Expected::Simulate {
            cycles: done.u64("cycles")?,
            energy: done.f64("energy")?,
            utilization: done.f64("utilization")?,
        },
        Cmd::Codesign => Expected::Codesign {
            cycles: [done.u64("hybrid_cycles")?, done.u64("ws_cycles")?, done.u64("os_cycles")?],
            reductions: [done.f64("energy_reduction_vs_ws")?, done.f64("energy_reduction_vs_os")?],
        },
        Cmd::Sweep => {
            let deltas = s.lines[..s.lines.len() - 1]
                .iter()
                .map(|l| {
                    let v = Json::parse(l).ok()?;
                    (v.str("event")? == "frontier").then_some(())?;
                    Some((
                        v.str("design")?.to_owned(),
                        v.u64("cycles")?,
                        v.f64("energy")?,
                        v.f64("area")?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?;
            Expected::Sweep {
                deltas,
                points: done.u64("points")?,
                frontier: done.u64("frontier")?,
                best: done.str("best").map(str::to_owned),
            }
        }
    })
}

/// A measured session: samples in send order plus server-side counters.
struct Session {
    samples: Vec<Sample>,
    wall_s: f64,
    setup_s: Vec<f64>,
    server_rss_mb: f64,
    before: Json,
    after: Json,
    /// Replay time per sample, in milliseconds.
    replay_ms: Vec<f64>,
    failed: u64,
}

fn session(
    env: &Env,
    seconds: f64,
    setups: usize,
    tracing: Tracing,
    spans: &Spans,
) -> Result<Session, String> {
    let snapshot = make_snapshot(env)?;
    let path = env.work.join("serve-snapshot.bin");
    fs::write(&path, &snapshot).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..setups {
        if let Some(mut old) = server.take() {
            Server::stop(&mut old)?;
        }
        let t = Instant::now();
        server = Some(Server::spawn(env, &path)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut server = server.ok_or("no server started")?;

    let streams = request_streams(env.seed, env.jobs);
    let before = server.stats()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let addr = server.addr;
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                s.spawn(move || client(addr, reqs, deadline, (c as u64 + 1) << 32, spans, tracing))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_owned())))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = server.stats()?;
    let server_rss_mb = peak_rss_mb(Some(server.child.id()));
    server.stop()?;
    let mut samples = Vec::new();
    for r in per_client {
        samples.extend(r?);
    }
    samples.sort_by_key(|s| s.start);

    // Replay in send order on a simulator warm-started from the same
    // snapshot, checking every answer.
    let sim = Simulator::new();
    sim.load_cache_snapshot(&snapshot).map_err(|e| e.to_string())?;
    let off = Spans::new(false);
    let mut replay_ms = Vec::with_capacity(samples.len());
    let mut failed = 0;
    for (op, s) in samples.iter().enumerate() {
        let t = Instant::now();
        let want =
            replay_one(&s.req, &sim, env.jobs, if s.traced { spans } else { &off }, op as u64);
        replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let got = answered(s);
        if got.is_none() || want.ok() != got {
            failed += 1;
        }
    }
    Ok(Session { samples, wall_s, setup_s, server_rss_mb, before, after, replay_ms, failed })
}

fn counter(stats: &Json, path: &[&str]) -> f64 {
    let mut v = Some(stats);
    for key in &path[..path.len() - 1] {
        v = v.and_then(|x| x.get(key));
    }
    v.and_then(|x| x.f64(path[path.len() - 1])).unwrap_or(f64::NAN)
}

/// Pushes the per-layer metrics a session measures: the client-side
/// serve spans, server counters, and the replay's `dnn`/`validate` spans.
fn session_layers(out: &mut Outcome, s: &Session, spans: &Spans) {
    let traced: Vec<(usize, &Sample)> =
        s.samples.iter().enumerate().filter(|(_, x)| x.traced).collect();
    let first: Vec<f64> =
        traced.iter().map(|(_, x)| (x.first - x.start).as_secs_f64() * 1e3).collect();
    let stream: Vec<f64> = traced
        .iter()
        .filter(|(_, x)| !x.req.is_query())
        .map(|(_, x)| (x.last - x.first).as_secs_f64() * 1e3)
        .collect();
    let overhead: Vec<f64> = traced
        .iter()
        .filter(|(_, x)| x.req.is_query())
        .map(|(i, x)| x.latency_ms() - s.replay_ms[*i])
        .collect();
    let delta = |path: &[&str]| counter(&s.after, path) - counter(&s.before, path);
    let requests = delta(&["requests"]).max(1.0);
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    out.layer("serve.first_line_p50_ms", median(&first));
    out.layer("serve.stream_p50_ms", if stream.is_empty() { f64::NAN } else { median(&stream) });
    out.layer("serve.overhead_p50_ms", median(&overhead));
    out.layer("serve.dedup_frac", delta(&["deduped"]) / requests);
    out.layer("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
    out.layer("serve.cache_entries", counter(&s.after, &["cache", "entries"]));
    let totals = spans.totals();
    let self_us = |name: &str| {
        totals.get(name).map_or(f64::NAN, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    out.layer("dnn.by_name_us", self_us("dnn.by_name"));
    out.layer("sim.validate_us", self_us("sim.validate"));
}

pub fn run(env: &Env, trace: bool) -> Result<Outcome, String> {
    let spans = Spans::new(trace);
    let tracing = if trace { Tracing::Alternate } else { Tracing::Off };
    let s = session(env, env.seconds, SETUP_REPS, tracing, &spans)?;
    let mut out = Outcome {
        attempted: s.samples.len() as u64,
        failed: s.failed,
        setup_s: s.setup_s.clone(),
        ops_per_s: s.samples.len() as f64 / s.wall_s,
        peak_rss_mb: s.server_rss_mb,
        ..Outcome::default()
    };
    let latency = |query: bool, traced: bool| -> Vec<f64> {
        s.samples
            .iter()
            .filter(|x| x.req.is_query() == query && x.traced == traced)
            .map(Sample::latency_ms)
            .collect()
    };
    out.op_ms = latency(true, false);
    let mut seen = HashSet::new();
    let (mut queries, mut warm) = (0usize, 0usize);
    for x in s.samples.iter().filter(|x| x.req.is_query()) {
        let point = (x.req.net, x.req.array, x.req.rf, x.req.buffer_kib);
        queries += 1;
        if x.req.in_snapshot() || !seen.insert(point) {
            warm += 1;
        }
    }
    out.note("req_per_s", "1/s", vec![out.ops_per_s]);
    out.note("query_p50_ms", "ms", out.op_ms.clone());
    out.note("query_p95_ms", "ms", vec![quantile(&out.op_ms, 0.95)]);
    out.note("sweep_p50_ms", "ms", latency(false, false));
    out.note("warm_share", "ratio", vec![warm as f64 / queries.max(1) as f64]);

    if trace {
        out.layer("trace.overhead_ms", median(&latency(true, true)) - median(&out.op_ms));
        session_layers(&mut out, &s, &spans);
        let delta = |path: &[&str]| counter(&s.after, path) - counter(&s.before, path);
        let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
        let requests = delta(&["requests"]).max(1.0);
        out.layer("sim.cache.hit_rate", hits / (hits + misses).max(1.0));
        out.layer("sim.cache.misses_per_op", misses / requests);
        out.layer("sim.cache.contended", delta(&["cache", "contended"]) / requests);
        spans.dump(&env.work.join(format!("spans-serve-mix-{}.jsonl", env.seed)))?;
    }
    Ok(out)
}

/// The serve-layer metrics for traced runs of other workloads, from a
/// short fully traced session.
pub fn probe(env: &Env, out: &mut Outcome) -> Result<(), String> {
    let spans = Spans::new(true);
    let s = session(env, PROBE_SECONDS, 1, Tracing::All, &spans)?;
    out.attempted += s.samples.len() as u64;
    out.failed += s.failed;
    session_layers(out, &s, &spans);
    Ok(())
}
