//! `codesign serve` — co-design as a service.
//!
//! A dependency-free TCP server speaking line-delimited JSON: one
//! request object per line in, one or more response objects per line
//! out, every response echoing the request's `id`. All connections
//! share one memoizing [`Simulator`], so overlapping queries from
//! different clients hit the same cache, and *identical* in-flight
//! queries are deduplicated: the first request computes, concurrent
//! duplicates subscribe to its (streamed) output instead of simulating
//! again.
//!
//! ## Protocol
//!
//! Requests (`id` is echoed verbatim and may be any JSON value):
//!
//! ```text
//! {"id":1,"cmd":"sweep","network":"tiny-darknet","arrays":[8,16],"rfs":[8],"buffers_kib":[64]}
//! {"id":2,"cmd":"simulate","network":"squeezenet-v1.1","arch":"ws","array":16}
//! {"id":3,"cmd":"codesign","network":"mobilenet","deadline_ms":500}
//! {"id":4,"cmd":"stats"}   {"id":5,"cmd":"ping"}   {"id":6,"cmd":"shutdown"}
//! ```
//!
//! Responses: `sweep` streams `"event":"frontier"` lines — Pareto-
//! frontier *deltas*, emitted the moment a completed point enters the
//! running (cycles, energy, area) frontier — then one `"event":"done"`
//! summary. Every other command answers with a single `done` (or
//! `error`) line. Errors carry `"code":"usage"` or `"code":"rejected"`,
//! mirroring the one-shot CLI's exit codes 1 and 2, plus three
//! server-side codes: `"deadline"` (the request's compute budget ran
//! out — any frontier deltas already streamed are a bit-identical
//! prefix of the uncancelled run), `"overloaded"` (no connection slot
//! free; retry later), and `"internal"` (the request thread panicked;
//! the server keeps serving).
//!
//! ## Hardening
//!
//! * Request lines longer than `--max-line-bytes` answer one `usage`
//!   error and are discarded without ever being accumulated in memory.
//! * `--max-connections` bounds concurrent connections; excess
//!   connections get one `overloaded` line and are closed immediately.
//! * `--deadline-ms` bounds per-request compute; requests may lower
//!   (never raise) it with their own `deadline_ms` field.
//! * With `--autosave-every N --cache-save PATH`, the cache is
//!   atomically snapshotted into rotating `PATH.gen-K` files every N
//!   `sweep`, `simulate` or `codesign` requests, the only ones that can
//!   change it; `--cache-load PATH` recovers the newest generation that
//!   validates end-to-end, refusing torn or corrupt ones
//!   (`serve.snapshot.refused` counts them) — the same policy as the
//!   one-shot commands' `--cache-load`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign_core::{
    sweep_frontier_with, ArchitectureComparison, FrontierConfig, FrontierEvent, SweepError,
    SweepSpace,
};
use codesign_dnn::Network;
use codesign_sim::{
    pool_size, resolve_jobs, validate_network, CancelToken, GenerationStore, SimOptions, Simulator,
};
use codesign_trace::json::quote;
use codesign_trace::Tracer;

use crate::args::Invocation;
use crate::jsonval::Value;
use crate::{load_cache, load_network, save_cache, RunError};

/// How long a response write may stall on a slow client before the
/// connection is declared dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Mutex lock that shrugs off poisoning: the guarded state is always
/// internally consistent between operations.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The output buffer of one in-flight (or just-finished) computation.
/// The leader pushes response fragments as they are produced; followers
/// replay the buffer and wait on the condvar for more.
#[derive(Default)]
struct Inflight {
    state: Mutex<InflightBuffer>,
    cv: Condvar,
}

#[derive(Default)]
struct InflightBuffer {
    /// Response bodies (JSON object innards, without the `id` field):
    /// each subscriber wraps them with its own request id.
    fragments: Vec<String>,
    done: bool,
}

impl Inflight {
    fn push(&self, body: String) {
        lock(&self.state).fragments.push(body);
        self.cv.notify_all();
    }

    fn finish(&self) {
        lock(&self.state).done = true;
        self.cv.notify_all();
    }
}

/// State shared by every connection thread.
struct ServerState {
    sim: Simulator,
    tracer: Tracer,
    jobs: usize,
    addr: SocketAddr,
    inflight: Mutex<HashMap<String, Arc<Inflight>>>,
    requests: AtomicU64,
    deduped: AtomicU64,
    /// `sweep`, `simulate` and `codesign` requests handled — the
    /// autosave clock. Only they can change the cache, so `stats`,
    /// `ping` and refused requests never rewrite an unchanged snapshot.
    completed: AtomicU64,
    /// Connections currently being served (admission control).
    active: AtomicUsize,
    shutdown: AtomicBool,
    deadline_ms: Option<u64>,
    max_line_bytes: usize,
    autosave_every: u64,
    /// Rotating autosave generations, locked so two request threads
    /// can't snapshot concurrently ([`maybe_autosave`] skips when the
    /// lock is held — the other thread is already saving).
    autosave: Option<Mutex<GenerationStore>>,
}

/// Runs the server until a `shutdown` request arrives.
pub fn run_serve(inv: &Invocation) -> Result<(), RunError> {
    let sim = Simulator::new();
    // Counters only: the server reports cumulative counters in `stats`
    // and has no sink for spans, so recording them would be pure cost.
    let tracer = Tracer::counters_only();
    let refused = load_cache(&sim, inv.cache_load.as_deref())?;
    if refused > 0 {
        tracer.add_counter("serve.snapshot.refused", refused as u64);
    }
    let listener = TcpListener::bind(("127.0.0.1", inv.port))
        .map_err(|e| RunError::Usage(format!("cannot bind 127.0.0.1:{}: {e}", inv.port)))?;
    let addr =
        listener.local_addr().map_err(|e| RunError::Usage(format!("cannot resolve port: {e}")))?;
    // The port line is the startup handshake: clients (and the CI smoke
    // test) parse it to learn an ephemeral port, so print-and-flush
    // before accepting.
    println!("codesign serve listening on {addr}");
    let _ = std::io::stdout().flush();

    let autosave = inv
        .cache_save
        .as_ref()
        .filter(|_| inv.autosave_every > 0)
        .map(|base| Mutex::new(GenerationStore::open(base)));
    let state = Arc::new(ServerState {
        sim,
        tracer,
        jobs: inv.jobs,
        addr,
        inflight: Mutex::new(HashMap::new()),
        requests: AtomicU64::new(0),
        deduped: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        active: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        deadline_ms: inv.deadline_ms,
        max_line_bytes: inv.max_line_bytes,
        autosave_every: inv.autosave_every,
        autosave,
    });

    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Reap finished connection threads as we go: under connection
        // churn the handle list stays bounded by the live connections.
        reap_finished(&mut handles);
        if state.active.load(Ordering::SeqCst) >= inv.max_connections {
            fast_reject_overloaded(stream, &state);
            continue;
        }
        state.active.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&state);
        handles.push(std::thread::spawn(move || {
            handle_connection(stream, &state);
            state.active.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    // Connection reads time out periodically and re-check the shutdown
    // flag, so this join is bounded even with idle clients attached.
    for h in handles {
        let _ = h.join();
    }

    if let Some(snap) = save_cache(&state.sim, inv.cache_save.as_deref())? {
        // Keep the newest generation at least as fresh as the base file:
        // recovery prefers generations, so a stale one must not shadow
        // the shutdown snapshot.
        if let Some(auto) = &state.autosave {
            let _ = lock(auto).write(&snap);
        }
    }
    Ok(())
}

/// Joins every connection thread that has already exited.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Answers one `overloaded` error line and drops the connection: the
/// client learns immediately instead of queueing behind a full house.
fn fast_reject_overloaded(stream: TcpStream, state: &ServerState) {
    state.tracer.add_counter("serve.overloaded", 1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut writer = ConnWriter { stream, dead: false };
    writer.send(
        "null",
        &error_body("overloaded", "no connection slot free (--max-connections); retry later"),
    );
}

/// A response writer that latches dead on the first write failure, so a
/// vanished or stalled client stops costing syscalls while the leader
/// keeps computing for its followers.
struct ConnWriter {
    stream: TcpStream,
    dead: bool,
}

impl ConnWriter {
    /// One response line: the subscriber's `id` wrapped around a shared
    /// body, formatted first and sent with one `write_all`. Split writes
    /// would let Nagle's algorithm hold the tail of the line until the
    /// client's delayed ACK, ~40 ms per response.
    fn send(&mut self, id_json: &str, body: &str) {
        if self.dead {
            return;
        }
        let line = format!("{{\"id\":{id_json},{body}}}\n");
        if self.stream.write_all(line.as_bytes()).is_err() {
            self.dead = true;
        }
    }
}

/// What one bounded-line read step produced.
enum ReadOutcome {
    /// A complete line within the size budget.
    Line(String),
    /// The line under construction exceeded the budget; its remaining
    /// bytes are being discarded (one `Overflow` per oversized line).
    Overflow,
    /// The read timed out — re-check the shutdown flag.
    Tick,
    /// The peer closed (or the socket errored).
    Eof,
}

/// Reads one newline-terminated line of at most `max` bytes without ever
/// buffering more than `max` bytes of it: a client streaming a gigabyte
/// line costs one error response and zero accumulation. `line` carries
/// the partial line across timeout ticks; `discarding` is the
/// oversized-line skip state.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    discarding: &mut bool,
    max: usize,
) -> ReadOutcome {
    loop {
        let available = match reader.fill_buf() {
            Ok([]) => return ReadOutcome::Eof,
            Ok(buf) => buf.to_vec(),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                return ReadOutcome::Tick
            }
            Err(_) => return ReadOutcome::Eof,
        };
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                if *discarding {
                    // End of an oversized line that already answered its
                    // one error: swallow silently, start the next line.
                    *discarding = false;
                    line.clear();
                    continue;
                }
                if line.len() + i > max {
                    line.clear();
                    return ReadOutcome::Overflow;
                }
                line.extend_from_slice(&available[..i]);
                let text = String::from_utf8_lossy(line).into_owned();
                line.clear();
                return ReadOutcome::Line(text);
            }
            None => {
                let n = available.len();
                reader.consume(n);
                if *discarding {
                    continue;
                }
                if line.len() + n > max {
                    line.clear();
                    *discarding = true;
                    return ReadOutcome::Overflow;
                }
                line.extend_from_slice(&available);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, state: &ServerState) {
    // Periodic read timeouts keep the thread responsive to shutdown even
    // when the client goes quiet with the connection open; the write
    // timeout bounds how long a stalled client can block a response.
    // TCP_NODELAY sends each response line (and each streamed frontier
    // delta) as soon as it is written instead of after the client's ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = ConnWriter { stream: write_half, dead: false };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut discarding = false;
    loop {
        match read_bounded_line(&mut reader, &mut line, &mut discarding, state.max_line_bytes) {
            ReadOutcome::Line(text) => {
                let text = text.trim();
                if !text.is_empty() && handle_request(text, &mut writer, state) {
                    break;
                }
            }
            ReadOutcome::Overflow => {
                state.tracer.add_counter("serve.overflow", 1);
                writer.send(
                    "null",
                    &error_body(
                        "usage",
                        &format!(
                            "request line exceeds --max-line-bytes ({})",
                            state.max_line_bytes
                        ),
                    ),
                );
            }
            ReadOutcome::Tick => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            ReadOutcome::Eof => break,
        }
        if writer.dead {
            break;
        }
    }
}

fn error_body(code: &str, message: &str) -> String {
    format!("\"event\":\"error\",\"code\":{},\"message\":{}", quote(code), quote(message))
}

/// Handles one request line. Returns `true` when the connection should
/// close (shutdown).
fn handle_request(text: &str, writer: &mut ConnWriter, state: &ServerState) -> bool {
    let req = match Value::parse(text) {
        Ok(v @ Value::Obj(_)) => v,
        Ok(_) => {
            writer.send("null", &error_body("usage", "request must be a JSON object"));
            return false;
        }
        Err(e) => {
            writer.send("null", &error_body("usage", &e.to_string()));
            return false;
        }
    };
    let id_json = req.get("id").map_or_else(|| "null".to_owned(), Value::to_json);
    state.requests.fetch_add(1, Ordering::SeqCst);
    let cmd = req.get("cmd").and_then(Value::as_str).unwrap_or("").to_owned();
    state
        .tracer
        .add_counter(&format!("serve.requests.{}", if cmd.is_empty() { "?" } else { &cmd }), 1);
    let close = match cmd.as_str() {
        "ping" => {
            writer.send(&id_json, "\"event\":\"done\",\"cmd\":\"ping\",\"ok\":true");
            false
        }
        "stats" => {
            writer.send(&id_json, &stats_body(state));
            false
        }
        "shutdown" => {
            writer.send(&id_json, "\"event\":\"done\",\"cmd\":\"shutdown\",\"ok\":true");
            state.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(state.addr);
            true
        }
        // `__panic__` is the always-compiled fault-injection hook proving
        // the catch_unwind isolation below: it panics mid-request like a
        // latent bug would.
        "sweep" | "simulate" | "codesign" | "__panic__" => {
            let isolated = catch_unwind(AssertUnwindSafe(|| {
                #[allow(clippy::panic)]
                if cmd == "__panic__" {
                    panic!("injected request panic");
                }
                match parse_deadline(&req, state) {
                    Ok(deadline_ms) => match Compute::parse(&cmd, &req) {
                        Ok(compute) => run_compute(compute, deadline_ms, &id_json, writer, state),
                        Err((code, message)) => writer.send(&id_json, &error_body(&code, &message)),
                    },
                    Err(message) => writer.send(&id_json, &error_body("usage", &message)),
                }
            }));
            if isolated.is_err() {
                state.tracer.add_counter("serve.internal", 1);
                writer.send(
                    &id_json,
                    &error_body("internal", "request thread panicked; the server is still serving"),
                );
            }
            false
        }
        other => {
            writer.send(
                &id_json,
                &error_body(
                    "usage",
                    &format!(
                        "unknown cmd `{other}` (sweep, simulate, codesign, stats, ping, shutdown)"
                    ),
                ),
            );
            false
        }
    };
    if matches!(cmd.as_str(), "sweep" | "simulate" | "codesign") {
        let completed = state.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if state.autosave_every > 0 && completed.is_multiple_of(state.autosave_every) {
            maybe_autosave(state);
        }
    }
    close
}

/// The effective deadline: the request's `deadline_ms` capped at the
/// server's `--deadline-ms` (a client may lower its budget, never raise
/// it past the server's).
fn parse_deadline(req: &Value, state: &ServerState) -> Result<Option<u64>, String> {
    let requested = match req.get("deadline_ms") {
        None => None,
        Some(v) => {
            Some(v.as_usize().map(|ms| ms as u64).ok_or("`deadline_ms` must be a whole number")?)
        }
    };
    Ok(match (state.deadline_ms, requested) {
        (Some(server), Some(client)) => Some(server.min(client)),
        (server, client) => server.or(client),
    })
}

/// Best-effort cache autosave into the next rotating generation file.
/// Never fatal: a failed autosave is logged and the next period retries.
/// `try_lock` keeps at most one snapshotting thread; a contending
/// request skips (the in-progress save is at least as fresh).
fn maybe_autosave(state: &ServerState) {
    let Some(auto) = &state.autosave else { return };
    let Ok(mut store) = auto.try_lock() else { return };
    let snap = match state.sim.cache_snapshot() {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("; autosave skipped: {e}");
            return;
        }
    };
    match store.write(&snap) {
        Ok(path) => {
            state.tracer.add_counter("serve.autosave", 1);
            eprintln!("; autosaved cache to {} ({} bytes)", path.display(), snap.len());
        }
        Err(e) => eprintln!("; autosave failed: {e}"),
    }
}

fn stats_body(state: &ServerState) -> String {
    let cache = state.sim.stats();
    let inflight = lock(&state.inflight).len();
    let counters = state.tracer.snapshot().counters;
    let counters_json: Vec<String> =
        counters.iter().map(|(name, v)| format!("{}:{v}", quote(name))).collect();
    format!(
        "\"event\":\"done\",\"cmd\":\"stats\",\"requests\":{},\"deduped\":{},\"inflight\":{inflight},\"active\":{},\"pool_size\":{},\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"contended\":{}}},\"counters\":{{{}}}",
        state.requests.load(Ordering::SeqCst),
        state.deduped.load(Ordering::SeqCst),
        state.active.load(Ordering::SeqCst),
        pool_size(),
        cache.hits,
        cache.misses,
        cache.entries,
        cache.contended,
        counters_json.join(",")
    )
}

/// A parsed compute request, normalized enough that two textually
/// different but semantically identical requests produce the same dedup
/// key.
enum Compute {
    Sweep { spec: String, network: Network, space: SweepSpace, chunk: Option<usize>, prune: bool },
    Simulate { spec: String, network: Network, policy: DataflowPolicy, cfg: AcceleratorConfig },
    Codesign { spec: String, network: Network, cfg: AcceleratorConfig },
}

impl Compute {
    /// Parses the request. Errors are `(code, message)` with the same
    /// usage/rejected split as the one-shot CLI.
    fn parse(cmd: &str, req: &Value) -> Result<Compute, (String, String)> {
        let usage = |m: String| ("usage".to_owned(), m);
        let spec = req
            .get("network")
            .and_then(Value::as_str)
            .ok_or_else(|| usage("`network` is required".to_owned()))?
            .to_owned();
        let network = load_network(&spec).map_err(|e| match e {
            RunError::Usage(m) => ("usage".to_owned(), m),
            RunError::Rejected(m) => ("rejected".to_owned(), m),
        })?;
        if cmd == "sweep" {
            let default = SweepSpace::paper_default();
            let axis = |key: &str, default: Vec<usize>, scale: usize| match req.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_arr()
                    .and_then(|items| {
                        items.iter().map(|x| x.as_usize().map(|n| n * scale)).collect()
                    })
                    .filter(|axis: &Vec<usize>| !axis.is_empty())
                    .ok_or_else(|| {
                        usage(format!("`{key}` must be a non-empty array of whole numbers"))
                    }),
            };
            let space = SweepSpace {
                array_sizes: axis("arrays", default.array_sizes.clone(), 1)?,
                rf_depths: axis("rfs", default.rf_depths.clone(), 1)?,
                buffer_bytes: axis("buffers_kib", default.buffer_bytes.clone(), 1024)?,
            };
            let chunk = match req.get("chunk") {
                None => None,
                Some(v) => Some(
                    v.as_usize()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| usage("`chunk` must be a whole number >= 1".to_owned()))?,
                ),
            };
            let prune = match req.get("prune") {
                None => false,
                Some(v) => {
                    v.as_bool().ok_or_else(|| usage("`prune` must be true or false".to_owned()))?
                }
            };
            return Ok(Compute::Sweep { spec, network, space, chunk, prune });
        }
        let policy = match req.get("arch").and_then(Value::as_str) {
            None | Some("hybrid") => DataflowPolicy::PerLayer,
            Some("ws") => DataflowPolicy::Fixed(Dataflow::WeightStationary),
            Some("os") => DataflowPolicy::Fixed(Dataflow::OutputStationary),
            Some(other) => {
                return Err(usage(format!("`arch` must be ws, os, or hybrid (got `{other}`)")))
            }
        };
        let mut b = AcceleratorConfig::builder();
        let dim = |key: &str| match req.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_usize()
                .map(Some)
                .ok_or_else(|| usage(format!("`{key}` must be a whole number"))),
        };
        if let Some(n) = dim("array")? {
            b.array_size(n);
        }
        if let Some(r) = dim("rf")? {
            b.rf_depth(r);
        }
        if let Some(kib) = dim("buffer_kib")? {
            b.global_buffer_bytes(kib * 1024);
        }
        let cfg = b.build().map_err(|e| usage(e.to_string()))?;
        // No pre-flight here: the simulator validates each layer as it
        // goes, and `compute_and_publish` validates the whole network
        // only when an answer other than `done` is about to go out.
        if cmd == "simulate" {
            Ok(Compute::Simulate { spec, network, policy, cfg })
        } else {
            Ok(Compute::Codesign { spec, network, cfg })
        }
    }

    /// The dedup key: identical in-flight computations share one run.
    fn key(&self) -> String {
        match self {
            Compute::Sweep { spec, space, chunk, prune, .. } => format!(
                "sweep|{spec}|{:?}|{:?}|{:?}|chunk{chunk:?}|prune{prune}",
                space.array_sizes, space.rf_depths, space.buffer_bytes
            ),
            Compute::Simulate { spec, policy, cfg, .. } => {
                format!("simulate|{spec}|{policy:?}|{cfg}")
            }
            Compute::Codesign { spec, cfg, .. } => format!("codesign|{spec}|{cfg}"),
        }
    }
}

/// Leader-or-follower dispatch: the first request for a key computes
/// and publishes; concurrent identical requests replay its stream. A
/// panicking leader still finishes its group with an `internal` error,
/// so followers never hang on an abandoned buffer.
fn run_compute(
    compute: Compute,
    deadline_ms: Option<u64>,
    id_json: &str,
    writer: &mut ConnWriter,
    state: &ServerState,
) {
    // Deadline is part of the dedup key: a follower with a different
    // budget must not be handed a stream that was cancelled under (or
    // computed beyond) its own deadline.
    let key = match deadline_ms {
        Some(ms) => format!("{}|deadline{ms}", compute.key()),
        None => compute.key(),
    };
    let (inflight, leader) = {
        let mut map = lock(&state.inflight);
        match map.get(&key) {
            Some(inf) => (Arc::clone(inf), false),
            None => {
                let inf = Arc::new(Inflight::default());
                map.insert(key.clone(), Arc::clone(&inf));
                (inf, true)
            }
        }
    };
    if leader {
        let isolated = catch_unwind(AssertUnwindSafe(|| {
            compute_and_publish(&compute, deadline_ms, &inflight, id_json, writer, state)
        }));
        if isolated.is_err() {
            state.tracer.add_counter("serve.internal", 1);
            let body =
                error_body("internal", "request thread panicked; the server is still serving");
            writer.send(id_json, &body);
            inflight.push(body);
        }
        inflight.finish();
        lock(&state.inflight).remove(&key);
    } else {
        state.deduped.fetch_add(1, Ordering::SeqCst);
        state.tracer.add_counter("serve.dedup", 1);
        replay(&inflight, id_json, writer);
    }
}

/// Streams a finished-or-in-progress computation's fragments to one
/// follower, wrapped in its own request id.
fn replay(inflight: &Inflight, id_json: &str, writer: &mut ConnWriter) {
    let mut cursor = 0;
    loop {
        let (new, done) = {
            let mut st = lock(&inflight.state);
            while st.fragments.len() == cursor && !st.done {
                st = inflight.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            (st.fragments[cursor..].to_vec(), st.done)
        };
        for body in &new {
            writer.send(id_json, body);
        }
        cursor += new.len();
        if done {
            return;
        }
    }
}

fn compute_and_publish(
    compute: &Compute,
    deadline_ms: Option<u64>,
    inflight: &Inflight,
    id_json: &str,
    writer: &mut ConnWriter,
    state: &ServerState,
) {
    let worker = state.sim.fork_counter().with_tracer(state.tracer.clone());
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();
    let cancel = match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::never(),
    };
    let deadline_error = |detail: &str| {
        let budget = deadline_ms.unwrap_or(0);
        error_body("deadline", &format!("deadline of {budget} ms exceeded{detail}"))
    };
    // Publish to the shared buffer (for followers) and this connection
    // in one step, so the leader streams exactly what followers replay.
    let mut emit = |body: String| {
        writer.send(id_json, &body);
        inflight.push(body);
    };
    let mut deadline_hit = false;
    // A query's outcome: its `done` line, `None` when the deadline
    // stopped it, or the simulator's error.
    let query = match compute {
        Compute::Sweep { network, space, chunk, prune, .. } => {
            let mut deltas = 0usize;
            // Default chunk = one scheduling round: each batch of
            // workers flushes its frontier deltas before the next
            // starts. Requests can widen it (`chunk`) to give the
            // branch-and-bound (`prune`) larger segments to cut.
            let config = FrontierConfig {
                jobs: state.jobs,
                chunk: chunk.unwrap_or_else(|| resolve_jobs(state.jobs).max(1)),
                prune: *prune,
                ..FrontierConfig::default()
            };
            let result = sweep_frontier_with(
                &worker,
                network,
                space,
                opts,
                &energy,
                &config,
                &cancel,
                |event| {
                    match event {
                        FrontierEvent::Entered { index, point } => {
                            deltas += 1;
                            emit(format!(
                                "\"event\":\"frontier\",\"index\":{index},\"design\":{},\"cycles\":{},\"energy\":{},\"utilization\":{},\"area\":{}",
                                quote(&point.params.to_string()),
                                point.cycles,
                                point.energy,
                                point.utilization,
                                point.area
                            ));
                        }
                        FrontierEvent::Pruned { from, until } => {
                            emit(format!("\"event\":\"pruned\",\"from\":{from},\"until\":{until}"));
                        }
                        // Failures are aggregated into the done line, as
                        // before the streaming engine.
                        FrontierEvent::Failure { .. } => {}
                    }
                },
            );
            match result {
                Ok(outcome) => {
                    let best = outcome
                        .best
                        .as_ref()
                        .map_or_else(|| "null".to_owned(), |p| quote(&p.params.to_string()));
                    emit(format!(
                        "\"event\":\"done\",\"cmd\":\"sweep\",\"points\":{},\"failures\":{},\"pruned\":{},\"frontier\":{},\"best\":{best}",
                        outcome.counters.evaluated,
                        outcome.counters.failed,
                        outcome.counters.pruned,
                        outcome.frontier.len()
                    ));
                }
                Err(SweepError::Cancelled) => {
                    deadline_hit = true;
                    emit(deadline_error(&format!(
                        "; {deltas} frontier delta(s) already streamed are a prefix of the full run"
                    )));
                }
                Err(e) => emit(error_body("usage", &e.to_string())),
            }
            None
        }
        Compute::Simulate { network, policy, cfg, .. } => {
            let result = if cancel.is_cancelled() {
                Ok(None)
            } else {
                worker.try_simulate_network(network, cfg, *policy, opts).map(|perf| {
                    Some(format!(
                        "\"event\":\"done\",\"cmd\":\"simulate\",\"cycles\":{},\"energy\":{},\"utilization\":{}",
                        perf.total_cycles(),
                        perf.total_energy(&energy),
                        perf.average_utilization(cfg.pe_count())
                    ))
                })
            };
            Some((network, cfg, result, " before simulation started"))
        }
        Compute::Codesign { network, cfg, .. } => {
            let result = ArchitectureComparison::evaluate_cancellable_with(
                &worker, network, cfg, opts, energy, &cancel,
            )
            .map(|c| {
                c.map(|c| format!(
                    "\"event\":\"done\",\"cmd\":\"codesign\",\"network\":{},\"hybrid_cycles\":{},\"ws_cycles\":{},\"os_cycles\":{},\"speedup_vs_ws\":{},\"speedup_vs_os\":{},\"energy_reduction_vs_ws\":{},\"energy_reduction_vs_os\":{}",
                    quote(&c.network),
                    c.hybrid.total_cycles(),
                    c.ws.total_cycles(),
                    c.os.total_cycles(),
                    c.speedup_vs_ws(),
                    c.speedup_vs_os(),
                    c.energy_reduction_vs_ws(),
                    c.energy_reduction_vs_os()
                ))
            });
            Some((network, cfg, result, " between architecture evaluations"))
        }
    };
    if let Some((network, cfg, result, late)) = query {
        // The simulator validates lazily, layer by layer. Any answer but
        // `done` first validates the whole network, so an invalid query
        // answers `rejected` for its first invalid layer whatever else
        // stopped it, as an up-front validation would.
        match result {
            Ok(Some(done)) => emit(done),
            Ok(None) => match validate_network(network, cfg) {
                Ok(()) => {
                    deadline_hit = true;
                    emit(deadline_error(late));
                }
                Err(e) => emit(error_body("rejected", &e.to_string())),
            },
            Err(e) => {
                let e = validate_network(network, cfg).err().unwrap_or(e);
                emit(error_body("rejected", &e.to_string()));
            }
        }
    }
    if deadline_hit {
        state.tracer.add_counter("serve.deadline", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::{DesignParams, DesignPoint, OnlineFrontier};

    fn pt(cycles: u64, energy: f64, area: f64) -> DesignPoint {
        let params = DesignParams { array_size: 8, rf_depth: 8, global_buffer_bytes: 64 * 1024 };
        DesignPoint { params, cycles, energy, utilization: 0.5, area }
    }

    #[test]
    fn frontier_deltas_match_dominance() {
        // The serve sweep streams `OnlineFrontier` insertions as deltas;
        // pin the semantics it relies on, including the one deliberate
        // change from the old local helper: exact duplicates are kept
        // (and hence are deltas), matching `pareto_designs`.
        let mut frontier = OnlineFrontier::new();
        assert!(frontier.insert(&pt(100, 10.0, 1.0)), "first point always enters");
        assert!(frontier.insert(&pt(100, 10.0, 1.0)), "exact duplicates are kept as deltas");
        assert!(!frontier.insert(&pt(200, 20.0, 2.0)), "dominated point");
        assert!(frontier.insert(&pt(50, 20.0, 1.0)), "cycles trade-off enters");
        assert!(frontier.insert(&pt(40, 5.0, 0.5)), "dominating point enters");
        // The dominating point evicted every earlier member.
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier.members()[0].cycles, 40);
        assert_eq!(frontier.peak(), 3, "both duplicates plus the trade-off were live at once");
    }

    /// One valid request line per compute command, the seeds of
    /// [`request_decoding_survives_mutated_lines`].
    const DECODE_SEEDS: [&str; 3] = [
        r#"{"id":1,"cmd":"simulate","network":"squeezenet-v1.1","arch":"ws","array":16,"rf":8,"buffer_kib":128}"#,
        r#"{"id":"c","cmd":"codesign","network":"tiny-darknet","array":8,"rf":16,"buffer_kib":64}"#,
        r#"{"id":[3],"cmd":"sweep","network":"alexnet","arrays":[8,16],"rfs":[8],"buffers_kib":[64,128],"chunk":2,"prune":true}"#,
    ];

    /// Decodes one request line as `handle_request` does, through
    /// `Compute::parse` for the compute commands, and names the error
    /// code the client would get, if any.
    fn decode(line: &str) -> Option<String> {
        let req = match Value::parse(line) {
            Ok(v @ Value::Obj(_)) => v,
            Ok(_) | Err(_) => return Some("usage".to_owned()),
        };
        let cmd = req.get("cmd").and_then(Value::as_str).unwrap_or("");
        if !matches!(cmd, "sweep" | "simulate" | "codesign") {
            return None;
        }
        Compute::parse(cmd, &req).err().map(|(code, _)| code)
    }

    /// Replaces the value of the first `"key":` in `line` with `value`.
    fn splice(line: &str, key: &str, value: &str) -> Option<String> {
        let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &line[start..];
        let len = if rest.starts_with('[') { rest.find(']')? + 1 } else { rest.find([',', '}'])? };
        Some(format!("{}{value}{}", &line[..start], &rest[len..]))
    }

    #[test]
    fn request_decoding_survives_mutated_lines() {
        // Hostile lines reach `Compute::parse` before any simulation, so
        // every truncation, every single-bit flip and every huge, negative
        // or fractional number spliced into a design axis must decode to
        // `Ok` or a typed `usage`/`rejected` error, never a panic.
        let numbers = [
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "9007199254740993",
            "1e300",
            "1e400",
            "-1",
            "0",
            "2.5",
        ];
        let mut lines: Vec<String> = Vec::new();
        for seed in DECODE_SEEDS {
            assert_eq!(decode(seed), None, "seed must decode: {seed}");
            lines.extend((0..seed.len()).map(|cut| seed[..cut].to_owned()));
            for (i, bit) in (0..seed.len()).flat_map(|i| (0..8).map(move |bit| (i, bit))) {
                let mut bytes = seed.as_bytes().to_vec();
                bytes[i] ^= 1 << bit;
                // The connection loop decodes lines lossily, so do the same.
                lines.push(String::from_utf8_lossy(&bytes).into_owned());
            }
            for key in ["array", "rf", "buffer_kib", "arrays", "rfs", "buffers_kib"] {
                for n in numbers {
                    let value = if key.ends_with('s') { format!("[8,{n}]") } else { n.to_owned() };
                    lines.extend(splice(seed, key, &value));
                }
            }
        }
        assert_eq!(lines.len(), 2_808, "every seed byte mutated and every axis spliced");
        let mut typed = 0;
        for line in &lines {
            match catch_unwind(|| decode(line)) {
                Ok(None) => {}
                Ok(Some(code)) => {
                    assert!(code == "usage" || code == "rejected", "`{code}` for {line}");
                    typed += 1;
                }
                Err(_) => panic!("decoding panicked on {line}"),
            }
        }
        assert!(typed > lines.len() / 2, "only {typed} of {} lines were refused", lines.len());
    }

    /// Drains a reader through `read_bounded_line`, tagging each outcome.
    fn drain(input: &[u8], max: usize) -> Vec<String> {
        let mut reader = BufReader::with_capacity(8, input);
        let mut line = Vec::new();
        let mut discarding = false;
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut reader, &mut line, &mut discarding, max) {
                ReadOutcome::Line(text) => out.push(format!("line:{text}")),
                ReadOutcome::Overflow => out.push("overflow".to_owned()),
                ReadOutcome::Tick => out.push("tick".to_owned()),
                ReadOutcome::Eof => return out,
            }
        }
    }

    #[test]
    fn bounded_reader_passes_normal_lines() {
        assert_eq!(drain(b"hello\nworld\n", 64), vec!["line:hello", "line:world"]);
        assert_eq!(drain(b"", 64), Vec::<String>::new());
        // A trailing unterminated fragment is dropped at EOF, like the
        // old read_line loop did.
        assert_eq!(drain(b"complete\npartial", 64), vec!["line:complete"]);
    }

    #[test]
    fn bounded_reader_rejects_oversized_lines_once() {
        let long = vec![b'x'; 200];
        let mut input = long.clone();
        input.push(b'\n');
        input.extend_from_slice(b"after\n");
        // One Overflow for the oversized line, then normal service.
        assert_eq!(drain(&input, 64), vec!["overflow", "line:after"]);
    }

    #[test]
    fn bounded_reader_survives_binary_garbage() {
        // Non-UTF-8 bytes become replacement characters, to be rejected
        // by the JSON parser as a usage error rather than crashing.
        let out = drain(&[0xff, 0xfe, 0x80, b'\n'], 64);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("line:"), "{out:?}");
    }

    #[test]
    fn bounded_reader_never_accumulates_past_the_cap() {
        // A "gigabyte line" (scaled down): the line buffer never holds
        // more than max bytes however much the client streams.
        let mut input = vec![b'y'; 4096];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let mut reader = BufReader::with_capacity(16, &input[..]);
        let mut line = Vec::new();
        let mut discarding = false;
        let mut overflows = 0;
        let mut lines = Vec::new();
        loop {
            match read_bounded_line(&mut reader, &mut line, &mut discarding, 100) {
                ReadOutcome::Line(text) => lines.push(text),
                ReadOutcome::Overflow => overflows += 1,
                ReadOutcome::Tick => {}
                ReadOutcome::Eof => break,
            }
            assert!(line.len() <= 100, "buffer stayed bounded");
        }
        assert_eq!(overflows, 1, "one error per oversized line");
        assert_eq!(lines, vec!["ok".to_owned()]);
    }
}
