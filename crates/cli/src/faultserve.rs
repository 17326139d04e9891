//! Server and persistence fault-injection corpus (`codesign
//! faultinject --serve`).
//!
//! Extends the simulator-core corpus in `codesign_sim::faultinject` to
//! the serving and persistence layers: hostile clients (oversized and
//! binary-garbage lines, slow-loris partial writes, mid-stream
//! disconnects), resource-exhaustion paths (overloaded fast-reject,
//! per-request deadlines), panic isolation, and torn/corrupt snapshot
//! generations at every byte offset. Every case runs a real server
//! in-process on an ephemeral port and talks to it over real TCP.
//!
//! The contract under test mirrors the sim corpus: hostile inputs cost
//! one typed error and leave the server serving; a crash at any byte
//! offset during autosave never loses the warm start.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codesign_arch::{AcceleratorConfig, DataflowPolicy};
use codesign_dnn::{NetworkBuilder, Shape};
use codesign_sim::{
    atomic_write, generation_path, recover, scan_generations, write_generation, CaseOutcome,
    FaultReport, SimOptions, Simulator,
};

use crate::serve::{run_serve_opts, ServeOptions};
use crate::RunError;

/// How long any single protocol exchange may take before a case fails.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs the server/persistence corpus and reports per-case outcomes in
/// the same format as the sim corpus. Cases are judged as controls:
/// each must *complete* (uphold its invariant); a violated invariant
/// surfaces as a `violation` rejection, which mismatches the
/// expectation and fails the report.
pub fn run_serve_corpus() -> FaultReport {
    type Case = (&'static str, fn() -> Result<(), String>);
    let cases: Vec<Case> = vec![
        ("serve/oversized-line-answers-usage", case_oversized_line),
        ("serve/binary-garbage-line", case_binary_garbage),
        ("serve/slow-loris-partial-line", case_slow_loris_partial),
        ("serve/slow-loris-disconnect", case_slow_loris_disconnect),
        ("serve/mid-sweep-disconnect", case_mid_sweep_disconnect),
        ("serve/request-deadline-keeps-serving", case_request_deadline),
        ("serve/server-deadline-caps-requests", case_server_deadline),
        ("serve/overloaded-fast-reject", case_overloaded),
        ("serve/request-panic-isolated", case_panic_isolated),
        ("serve/shutdown-races-inflight-sweep", case_shutdown_races_sweep),
        ("snapshot/torn-autosave-at-every-offset-recovers", case_torn_autosave_every_offset),
        ("snapshot/all-candidates-corrupt-is-refused", case_all_candidates_corrupt),
        ("snapshot/zero-length-generation-skipped", case_zero_length_generation),
        ("snapshot/kill-after-autosave-warm-restarts", case_autosave_rotation_and_recovery),
    ];
    // The corpus deliberately injects panics (and catches every one);
    // silence the default hook so expected backtraces don't pollute the
    // report. Payload messages still surface as `Panicked { message }`.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut report = FaultReport { cases: Vec::new() };
    for (name, run) in cases {
        let outcome = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(())) => CaseOutcome::Completed,
            Ok(Err(message)) => CaseOutcome::Rejected { kind: "violation".to_owned(), message },
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_owned()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_owned()
                };
                CaseOutcome::Panicked { message }
            }
        };
        report.cases.push((name.to_owned(), false, outcome));
    }
    std::panic::set_hook(previous_hook);
    report
}

// ---------------------------------------------------------------------
// Harness: in-process servers and raw TCP clients.

fn base_opts() -> ServeOptions {
    ServeOptions {
        port: 0,
        jobs: 2,
        cache_load: None,
        cache_save: None,
        deadline_ms: None,
        max_line_bytes: 1 << 20,
        max_connections: 64,
        autosave_every: 0,
        quiet: true,
    }
}

fn run_error_text(e: &RunError) -> String {
    match e {
        RunError::Usage(m) => format!("usage: {m}"),
        RunError::Rejected(m) => format!("rejected: {m}"),
    }
}

/// A server running on its own thread inside this process.
struct TestServer {
    addr: SocketAddr,
    thread: JoinHandle<Result<(), RunError>>,
}

impl TestServer {
    fn start(opts: ServeOptions) -> Result<TestServer, String> {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            run_serve_opts(&opts, |addr| {
                let _ = tx.send(addr);
            })
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(addr) => Ok(TestServer { addr, thread }),
            Err(_) => match thread.join() {
                Ok(Err(e)) => Err(format!("server failed to start: {}", run_error_text(&e))),
                Ok(Ok(())) => Err("server exited before binding".to_owned()),
                Err(_) => Err("server thread panicked at startup".to_owned()),
            },
        }
    }

    /// Requests a clean shutdown and joins the server thread.
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr)?;
        c.send(r#"{"id":"stop","cmd":"shutdown"}"#)?;
        let _ = c.recv();
        drop(c);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server exited with an error: {}", run_error_text(&e))),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

/// Starts a server, runs the case body, and always attempts a clean
/// shutdown — a failing case must not leak a listener into later cases.
fn with_server(
    opts: ServeOptions,
    body: impl FnOnce(SocketAddr) -> Result<(), String>,
) -> Result<(), String> {
    let server = TestServer::start(opts)?;
    let addr = server.addr;
    let result = body(addr);
    let stopped = server.stop();
    result.and(stopped)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("client cannot connect: {e}"))?;
        stream
            .set_read_timeout(Some(EXCHANGE_TIMEOUT))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("cannot clone stream: {e}"))?);
        Ok(Client { writer: stream, reader })
    }

    /// Sends one request line in a single write (DESIGN.md §16: a
    /// request split over two writes waits for the delayed ACK).
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// One response line; `Ok(None)` when the server closed the
    /// connection.
    fn recv(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim().to_owned())),
            Err(e) => Err(format!("recv failed: {e}")),
        }
    }

    fn recv_some(&mut self) -> Result<String, String> {
        self.recv()?.ok_or_else(|| "server closed the connection".to_owned())
    }

    /// Reads lines until the `done`/`error` terminator, inclusive.
    fn recv_until_done(&mut self) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        loop {
            let line = self.recv_some()?;
            let done = line.contains("\"event\":\"done\"") || line.contains("\"event\":\"error\"");
            lines.push(line);
            if done {
                return Ok(lines);
            }
        }
    }

    fn request(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.send(line)?;
        self.recv_until_done()
    }

    /// The server still answers on this connection — the after-hostility
    /// liveness probe every case ends with.
    fn assert_serves(&mut self) -> Result<(), String> {
        let pong = self.request(r#"{"id":"live","cmd":"ping"}"#)?;
        if pong.len() == 1 && pong[0].contains("\"ok\":true") {
            Ok(())
        } else {
            Err(format!("server no longer serves pings: {pong:?}"))
        }
    }
}

fn expect_error_code(lines: &[String], code: &str) -> Result<(), String> {
    let needle = format!("\"code\":\"{code}\"");
    match lines.last() {
        Some(last) if last.contains("\"event\":\"error\"") && last.contains(&needle) => Ok(()),
        other => Err(format!("expected a `{code}` error, got {other:?}")),
    }
}

/// Polls `stats` on fresh connections until `pred` holds.
fn wait_for_stats(
    addr: SocketAddr,
    what: &str,
    pred: impl Fn(&str) -> bool,
) -> Result<String, String> {
    let deadline = Instant::now() + EXCHANGE_TIMEOUT;
    loop {
        let mut probe = Client::connect(addr)?;
        let stats = probe
            .request(r#"{"id":"probe","cmd":"stats"}"#)?
            .pop()
            .ok_or("empty stats response")?;
        if pred(&stats) {
            return Ok(stats);
        }
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}; last stats: {stats}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Extracts a `"field":123` integer from a response line.
fn field_u64(line: &str, field: &str) -> Result<u64, String> {
    let key = format!("\"{field}\":");
    let at = line.find(&key).ok_or_else(|| format!("no {field} in {line}"))?;
    line[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .map_err(|_| format!("bad {field} in {line}"))
}

/// A scratch directory unique to this corpus run, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let dir =
            std::env::temp_dir().join(format!("codesign-faultserve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create scratch dir: {e}"))?;
        Ok(Scratch(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small valid cache snapshot (one tiny conv layer — a few hundred
/// bytes, so every-byte-offset torn-write scans stay fast).
fn tiny_snapshot() -> Result<Vec<u8>, String> {
    let net = NetworkBuilder::new("fault-snap", Shape::new(8, 8, 3))
        .conv("c1", 8, 3, 1, 1)
        .finish()
        .map_err(|e| format!("cannot build network: {e}"))?;
    let sim = Simulator::new();
    sim.try_simulate_network(
        &net,
        &AcceleratorConfig::paper_default(),
        DataflowPolicy::PerLayer,
        SimOptions::paper_default(),
    )
    .map_err(|e| format!("cannot simulate: {e}"))?;
    sim.cache_snapshot().map_err(|e| format!("cannot snapshot: {e}"))
}

// ---------------------------------------------------------------------
// Hostile-client cases.

fn case_oversized_line() -> Result<(), String> {
    let mut opts = base_opts();
    opts.max_line_bytes = 256;
    with_server(opts, |addr| {
        let mut c = Client::connect(addr)?;
        let huge = format!("{}\n", "x".repeat(64 * 1024));
        c.writer.write_all(huge.as_bytes()).map_err(|e| format!("send failed: {e}"))?;
        let err = c.recv_some()?;
        if !(err.contains("\"code\":\"usage\"") && err.contains("max-line-bytes")) {
            return Err(format!("expected a usage error naming the line cap, got: {err}"));
        }
        // One error per oversized line, then normal service resumes on
        // the very same connection.
        c.assert_serves()
    })
}

fn case_binary_garbage() -> Result<(), String> {
    with_server(base_opts(), |addr| {
        let mut c = Client::connect(addr)?;
        let garbage: Vec<u8> = (0u16..=255).map(|b| if b == 10 { 7 } else { b as u8 }).collect();
        c.writer.write_all(&garbage).map_err(|e| format!("send failed: {e}"))?;
        c.writer.write_all(b"\n").map_err(|e| format!("send failed: {e}"))?;
        let err = c.recv_some()?;
        if !err.contains("\"code\":\"usage\"") {
            return Err(format!("expected a usage error for binary garbage, got: {err}"));
        }
        c.assert_serves()
    })
}

fn case_slow_loris_partial() -> Result<(), String> {
    with_server(base_opts(), |addr| {
        let mut c = Client::connect(addr)?;
        // A request dribbled in three fragments with pauses longer than
        // the server's read-timeout tick must still parse as one line.
        for fragment in [r#"{"id":"slow","#, r#""cmd":"#, "\"ping\"}\n"] {
            c.writer.write_all(fragment.as_bytes()).map_err(|e| format!("send failed: {e}"))?;
            c.writer.flush().map_err(|e| format!("flush failed: {e}"))?;
            std::thread::sleep(Duration::from_millis(250));
        }
        let pong = c.recv_some()?;
        if !(pong.starts_with(r#"{"id":"slow""#) && pong.contains("\"ok\":true")) {
            return Err(format!("slow-loris request did not complete: {pong}"));
        }
        Ok(())
    })
}

fn case_slow_loris_disconnect() -> Result<(), String> {
    with_server(base_opts(), |addr| {
        {
            let mut loris = Client::connect(addr)?;
            loris.writer.write_all(b"{\"id\":1,").map_err(|e| format!("send failed: {e}"))?;
            loris.writer.flush().map_err(|e| format!("flush failed: {e}"))?;
            std::thread::sleep(Duration::from_millis(250));
            // Vanish mid-line.
        }
        Client::connect(addr)?.assert_serves()
    })
}

fn case_mid_sweep_disconnect() -> Result<(), String> {
    with_server(base_opts(), |addr| {
        {
            let mut a = Client::connect(addr)?;
            a.send(
                r#"{"id":"gone","cmd":"sweep","network":"tiny-darknet","arrays":[8,16,32],"rfs":[8,16],"buffers_kib":[64,128]}"#,
            )?;
            // Disconnect without reading a single streamed delta.
        }
        let mut b = Client::connect(addr)?;
        b.assert_serves()?;
        // The abandoned sweep drains (to a latched-dead writer) and its
        // in-flight entry is removed — no leak, no hang.
        wait_for_stats(addr, "abandoned sweep to drain", |s| {
            field_u64(s, "inflight").is_ok_and(|n| n == 0)
        })?;
        Ok(())
    })
}

// ---------------------------------------------------------------------
// Deadline and admission-control cases.

fn case_request_deadline() -> Result<(), String> {
    with_server(base_opts(), |addr| {
        let mut c = Client::connect(addr)?;
        // A zero budget deterministically cancels at the first chunk
        // boundary: typed deadline error, zero or more prefix deltas.
        let lines = c.request(
            r#"{"id":"dl","cmd":"sweep","network":"tiny-darknet","deadline_ms":0,"arrays":[8,16],"rfs":[8],"buffers_kib":[64]}"#,
        )?;
        expect_error_code(&lines, "deadline")?;
        let last = lines.last().map(String::as_str).unwrap_or_default();
        if !last.contains("prefix") {
            return Err(format!("deadline error must state the prefix guarantee: {last}"));
        }
        // The same connection — and the same sweep without a deadline —
        // still serve.
        let full = c.request(
            r#"{"id":"full","cmd":"sweep","network":"tiny-darknet","arrays":[8,16],"rfs":[8],"buffers_kib":[64]}"#,
        )?;
        let done = full.last().map(String::as_str).unwrap_or_default();
        if field_u64(done, "points")? != 2 {
            return Err(format!("post-deadline sweep did not complete: {done}"));
        }
        c.assert_serves()
    })
}

fn case_server_deadline() -> Result<(), String> {
    let mut opts = base_opts();
    opts.deadline_ms = Some(0);
    with_server(opts, |addr| {
        let mut c = Client::connect(addr)?;
        // The server-wide budget applies without any per-request field…
        let lines = c.request(r#"{"id":1,"cmd":"codesign","network":"tiny-darknet"}"#)?;
        expect_error_code(&lines, "deadline")?;
        // …and a request cannot raise it past the server's cap.
        let lines =
            c.request(r#"{"id":2,"cmd":"simulate","network":"tiny-darknet","deadline_ms":60000}"#)?;
        expect_error_code(&lines, "deadline")?;
        // Non-compute commands never carry a deadline.
        c.assert_serves()
    })
}

fn case_overloaded() -> Result<(), String> {
    let mut opts = base_opts();
    opts.max_connections = 1;
    with_server(opts, |addr| {
        let mut a = Client::connect(addr)?;
        a.assert_serves()?; // guarantees A holds the only slot
        let mut b = Client::connect(addr)?;
        let reject = b.recv_some()?;
        if !(reject.contains("\"code\":\"overloaded\"") && reject.contains("\"id\":null")) {
            return Err(format!("expected an overloaded fast-reject, got: {reject}"));
        }
        if b.recv()?.is_some() {
            return Err("rejected connection was not closed".to_owned());
        }
        a.assert_serves()?;
        drop(a);
        // Freed slot: a later client is admitted (poll — the server
        // notices the disconnect on its next read tick).
        let deadline = Instant::now() + EXCHANGE_TIMEOUT;
        loop {
            let mut c = Client::connect(addr)?;
            if c.assert_serves().is_ok() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err("slot never freed after disconnect".to_owned());
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    })
}

fn case_panic_isolated() -> Result<(), String> {
    with_server(base_opts(), |addr| {
        let mut c = Client::connect(addr)?;
        let lines = c.request(r#"{"id":"boom","cmd":"__panic__"}"#)?;
        expect_error_code(&lines, "internal")?;
        c.assert_serves()?;
        let stats = c.request(r#"{"id":"s","cmd":"stats"}"#)?.pop().ok_or("no stats")?;
        if !stats.contains("\"serve.internal\":1") {
            return Err(format!("serve.internal counter missing: {stats}"));
        }
        Ok(())
    })
}

fn case_shutdown_races_sweep() -> Result<(), String> {
    let server = TestServer::start(base_opts())?;
    let addr = server.addr;
    let mut a = Client::connect(addr)?;
    a.send(r#"{"id":"race","cmd":"sweep","network":"squeezenet-v1.1"}"#)?;
    let mut b = Client::connect(addr)?;
    b.send(r#"{"id":"bye","cmd":"shutdown"}"#)?;
    let _ = b.recv();
    drop(b);
    // The in-flight sweep either completes its stream or the connection
    // closes — but A must not hang, and the server must join cleanly.
    loop {
        match a.recv()? {
            None => break,
            Some(line)
                if line.contains("\"event\":\"done\"") || line.contains("\"event\":\"error\"") =>
            {
                break
            }
            Some(_) => {}
        }
    }
    drop(a);
    match server.thread.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server errored during racing shutdown: {}", run_error_text(&e))),
        Err(_) => Err("server thread panicked during racing shutdown".to_owned()),
    }
}

// ---------------------------------------------------------------------
// Persistence cases.

fn case_torn_autosave_every_offset() -> Result<(), String> {
    // THE acceptance criterion: a kill -9 at *any* byte offset during a
    // (hypothetically non-atomic) autosave must never lose the warm
    // start — recovery refuses the torn newest generation and loads the
    // previous one. Exhaustive over every prefix length of a real
    // snapshot.
    let scratch = Scratch::new("torn")?;
    let base = scratch.path("cache.snap");
    let snap = tiny_snapshot()?;
    write_generation(&base, 1, &snap).map_err(|e| format!("cannot write gen 1: {e}"))?;
    for cut in 0..snap.len() {
        atomic_write(&generation_path(&base, 2), &snap[..cut])
            .map_err(|e| format!("cannot write torn gen 2: {e}"))?;
        let sim = Simulator::new();
        let (loaded, refused) = recover(&base, |bytes| sim.load_cache_snapshot(bytes))
            .map_err(|e| format!("recovery errored: {e}"))?;
        match loaded {
            Some(loaded) if loaded.generation == Some(1) => {}
            other => {
                return Err(format!(
                    "cut at byte {cut}/{}: expected generation 1 to load, got {other:?}",
                    snap.len()
                ))
            }
        }
        if refused.len() != 1 {
            return Err(format!("cut at byte {cut}: expected 1 refusal, got {refused:?}"));
        }
    }
    Ok(())
}

fn case_all_candidates_corrupt() -> Result<(), String> {
    // Every candidate torn or bit-flipped: the server must refuse to
    // start (exit-2 semantics), never serve from a half-trusted cache.
    let scratch = Scratch::new("all-corrupt")?;
    let base = scratch.path("cache.snap");
    let snap = tiny_snapshot()?;
    let mut flipped = snap.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    atomic_write(&base, &flipped).map_err(|e| format!("cannot write base: {e}"))?;
    atomic_write(&generation_path(&base, 1), &snap[..snap.len() / 2])
        .map_err(|e| format!("cannot write gen 1: {e}"))?;
    atomic_write(&generation_path(&base, 2), b"")
        .map_err(|e| format!("cannot write gen 2: {e}"))?;
    let mut opts = base_opts();
    opts.cache_load = Some(base.to_string_lossy().into_owned());
    match run_serve_opts(&opts, |_| {}) {
        Err(RunError::Rejected(m)) if m.contains("refused") => Ok(()),
        Err(e) => {
            Err(format!("expected a rejection naming the refusals, got: {}", run_error_text(&e)))
        }
        Ok(()) => Err("server started from all-corrupt snapshots".to_owned()),
    }
}

fn case_zero_length_generation() -> Result<(), String> {
    let scratch = Scratch::new("zero-gen")?;
    let base = scratch.path("cache.snap");
    let snap = tiny_snapshot()?;
    write_generation(&base, 1, &snap).map_err(|e| format!("cannot write gen 1: {e}"))?;
    atomic_write(&generation_path(&base, 2), b"")
        .map_err(|e| format!("cannot write gen 2: {e}"))?;
    let mut opts = base_opts();
    opts.cache_load = Some(base.to_string_lossy().into_owned());
    with_server(opts, |addr| {
        let mut c = Client::connect(addr)?;
        let stats = c.request(r#"{"id":"s","cmd":"stats"}"#)?.pop().ok_or("no stats")?;
        if field_u64(&stats, "entries")? == 0 {
            return Err(format!("warm start lost despite a valid generation: {stats}"));
        }
        if !stats.contains("\"serve.snapshot.refused\":1") {
            return Err(format!("refused-snapshot counter missing: {stats}"));
        }
        Ok(())
    })
}

fn case_autosave_rotation_and_recovery() -> Result<(), String> {
    // A serving lifetime end to end: autosave every request into
    // rotating generations, die, suffer a torn newest generation, and
    // still warm-start from the survivor.
    let scratch = Scratch::new("autosave")?;
    let base = scratch.path("cache.snap");
    let base_str = base.to_string_lossy().into_owned();
    let mut opts = base_opts();
    opts.cache_save = Some(base_str.clone());
    opts.autosave_every = 1;
    with_server(opts, |addr| {
        let mut c = Client::connect(addr)?;
        for (i, array) in [8usize, 16, 32, 8, 16].iter().enumerate() {
            let done = c
                .request(&format!(
                    r#"{{"id":{i},"cmd":"simulate","network":"tiny-darknet","array":{array}}}"#
                ))?
                .pop()
                .ok_or("no simulate response")?;
            if !done.contains("\"cycles\":") {
                return Err(format!("simulate failed mid-corpus: {done}"));
            }
        }
        let gens = scan_generations(&base);
        if gens.is_empty() {
            return Err("autosave produced no generation files".to_owned());
        }
        if gens.len() > 3 {
            return Err(format!("rotation kept too many generations: {gens:?}"));
        }
        Ok(())
    })?;
    // "kill -9 during the next autosave": tear the newest generation.
    let gens = scan_generations(&base);
    let (_, newest) = gens.last().ok_or("no generations after shutdown")?;
    let bytes = std::fs::read(newest).map_err(|e| format!("cannot read newest gen: {e}"))?;
    std::fs::write(newest, &bytes[..bytes.len() / 3])
        .map_err(|e| format!("cannot tear newest gen: {e}"))?;
    let mut opts = base_opts();
    opts.cache_load = Some(base_str);
    with_server(opts, |addr| {
        let mut c = Client::connect(addr)?;
        let stats = c.request(r#"{"id":"s","cmd":"stats"}"#)?.pop().ok_or("no stats")?;
        if field_u64(&stats, "entries")? == 0 {
            return Err(format!("warm start lost after torn autosave: {stats}"));
        }
        if !stats.contains("\"serve.snapshot.refused\":1") {
            return Err(format!("refused-snapshot counter missing: {stats}"));
        }
        // The recovered cache answers the old workload without misses.
        let done = c
            .request(r#"{"id":"warm","cmd":"simulate","network":"tiny-darknet","array":8}"#)?
            .pop()
            .ok_or("no simulate response")?;
        if !done.contains("\"cycles\":") {
            return Err(format!("recovered server cannot simulate: {done}"));
        }
        let stats = c.request(r#"{"id":"s2","cmd":"stats"}"#)?.pop().ok_or("no stats")?;
        if field_u64(&stats, "misses")? != 0 {
            return Err(format!("recovered cache missed on a warm workload: {stats}"));
        }
        Ok(())
    })
}
