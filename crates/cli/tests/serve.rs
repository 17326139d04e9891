//! End-to-end tests of `codesign serve`: a real server process on an
//! ephemeral port, real TCP clients, real line-delimited JSON. Besides
//! the protocol, they hold the server's hostile-client and torn-snapshot
//! invariants: each hostile input costs at most one typed error, and the
//! server keeps serving.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A running server process, killed on drop so a failing test can't
/// leak a listener.
struct Server {
    child: Child,
    port: u16,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(extra: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(["serve", "--port", "0", "--jobs", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let port = read_port_line(stdout);
    Server { child, port }
}

/// Waits for `child` to exit; a server still running after a minute is
/// killed and fails the test instead of hanging it.
fn exit_within_a_minute(child: &mut Child) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("child status readable") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("the server was still running after a minute");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Parses the startup handshake: `codesign serve listening on 127.0.0.1:PORT`.
fn read_port_line(stdout: ChildStdout) -> u16 {
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("port line");
    let addr = line.trim().rsplit(' ').next().expect("address in port line");
    addr.rsplit(':').next().expect("port in address").parse().expect("numeric port")
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("client connects");
        stream.set_nodelay(true).expect("nodelay set");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout set");
        let reader = BufReader::new(stream.try_clone().expect("stream clones"));
        Client { writer: stream, reader }
    }

    /// Sends one request line in a single write: a request split over
    /// two writes waits for the server's delayed ACK (~40 ms) on a
    /// kept-alive connection.
    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("request sends");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response arrives");
        assert!(!line.is_empty(), "server closed mid-response");
        line.trim().to_owned()
    }

    /// Reads lines until the `done`/`error` terminator, inclusive.
    fn recv_until_done(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let line = self.recv();
            let done = line.contains("\"event\":\"done\"") || line.contains("\"event\":\"error\"");
            lines.push(line);
            if done {
                return lines;
            }
        }
    }

    fn request(&mut self, line: &str) -> Vec<String> {
        self.send(line);
        self.recv_until_done()
    }
}

/// Polls `stats` until `pred` holds (or panics after ~10s): the dedup
/// tests need to know the leader's sweep is registered in-flight before
/// sending the duplicate.
fn wait_for_stats(port: u16, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut probe = Client::connect(port);
        let stats = probe.request(r#"{"id":"probe","cmd":"stats"}"#).pop().expect("stats line");
        if pred(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "timed out waiting for stats; last: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Extracts a `"field":123` integer from a response line.
fn field_u64(line: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let at = line.find(&key).unwrap_or_else(|| panic!("no {field} in {line}"));
    line[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {field} in {line}"))
}

#[test]
fn ping_stats_and_errors_speak_the_protocol() {
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);

    let pong = c.request(r#"{"id":41,"cmd":"ping"}"#);
    assert_eq!(pong, vec![r#"{"id":41,"event":"done","cmd":"ping","ok":true}"#.to_owned()]);
    // Every id comes back as sent: numbers an `f64` would round or
    // rewrite, and a string that Python's `json.dumps` escapes as a
    // UTF-16 surrogate pair.
    for (id, echo) in [
        ("9007199254740993", "9007199254740993"),
        ("12345678901234567891", "12345678901234567891"),
        ("1.50", "1.50"),
        ("1e2", "1e2"),
        (r#""\ud83d\ude00""#, r#""😀""#),
    ] {
        let pong = c.request(&format!(r#"{{"id":{id},"cmd":"ping"}}"#));
        assert_eq!(pong, [format!(r#"{{"id":{echo},"event":"done","cmd":"ping","ok":true}}"#)]);
    }

    // Unknown command and bad JSON are usage errors, not disconnects.
    let err = c.request(r#"{"id":"x","cmd":"explode"}"#).pop().unwrap();
    assert!(err.contains(r#""event":"error""#) && err.contains(r#""code":"usage""#), "{err}");
    let err = c.request("this is not json").pop().unwrap();
    assert!(err.contains(r#""code":"usage""#), "{err}");
    // So are 255 bytes of binary garbage: every byte but the newline.
    let mut garbage: Vec<u8> = (0..=255u8).filter(|&b| b != b'\n').collect();
    garbage.push(b'\n');
    c.writer.write_all(&garbage).expect("garbage sends");
    let err = c.recv();
    assert!(err.starts_with(r#"{"id":null,"#) && err.contains(r#""code":"usage""#), "{err}");
    let err = c.request(r#"{"id":7,"cmd":"simulate","network":"no-such-net"}"#).pop().unwrap();
    assert!(err.contains(r#""code":"usage""#) && err.contains("no-such-net"), "{err}");

    let stats = c.request(r#"{"id":"s","cmd":"stats"}"#).pop().unwrap();
    assert!(field_u64(&stats, "requests") >= 9, "{stats}");
    assert_eq!(field_u64(&stats, "deduped"), 0, "{stats}");
    assert!(stats.contains("\"cache\":"), "{stats}");
}

#[test]
fn sweep_streams_frontier_deltas_then_a_summary() {
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);
    let lines = c.request(
        r#"{"id":"sw","cmd":"sweep","network":"tiny-darknet","arrays":[8,16],"rfs":[8,16],"buffers_kib":[64]}"#,
    );
    let done = lines.last().unwrap();
    assert!(done.contains(r#""event":"done","cmd":"sweep""#), "{done}");
    assert_eq!(field_u64(done, "points"), 4, "{done}");
    let frontier: Vec<&String> =
        lines.iter().filter(|l| l.contains(r#""event":"frontier""#)).collect();
    assert_eq!(frontier.len() as u64, field_u64(done, "frontier"), "{done}");
    assert!(!frontier.is_empty(), "a non-empty sweep has a non-empty frontier");
    for line in &frontier {
        for field in ["\"design\":", "\"cycles\":", "\"energy\":", "\"index\":"] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }
    assert!(done.contains("\"best\":\""), "{done}");

    // simulate and codesign answer over the same warmed cache.
    let sim = c.request(
        r#"{"id":1,"cmd":"simulate","network":"tiny-darknet","array":8,"rf":8,"buffer_kib":64}"#,
    );
    assert_eq!(sim.len(), 1);
    assert!(field_u64(&sim[0], "cycles") > 0, "{}", sim[0]);
    let cd = c.request(r#"{"id":2,"cmd":"codesign","network":"tiny-darknet"}"#).pop().unwrap();
    assert!(cd.contains("\"hybrid_cycles\":") && cd.contains("\"speedup_vs_ws\":"), "{cd}");
}

/// A JSON array of the whole numbers in `range`.
fn json_range(range: std::ops::RangeInclusive<usize>) -> String {
    let items: Vec<String> = range.map(|n| n.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// A sweep that stays in flight until its 1 s deadline fires. The grid
/// has 241 x 64 x 64 ~ 987k valid points, ~45 s of work for a release
/// build on a 2-core x86-64 host (~47 us per point) and far more in
/// debug, so a test that sees it in flight can act before it ends.
fn sweep_until_the_deadline(id: &str) -> String {
    format!(
        r#"{{"id":"{id}","cmd":"sweep","network":"squeezenet-v1.1","deadline_ms":1000,"arrays":{},"rfs":{},"buffers_kib":{}}}"#,
        json_range(16..=256),
        json_range(1..=64),
        json_range(512..=575)
    )
}

#[test]
fn identical_inflight_sweeps_are_deduplicated() {
    let server = spawn_server(&[]);
    // Leader and follower send the same deadline, which is part of the
    // dedup key. The leader stays registered in flight until its
    // deadline fires, so the follower attaches by construction instead
    // of racing the leader's sweep.
    let mut leader = Client::connect(server.port);
    leader.send(&sweep_until_the_deadline("a"));
    wait_for_stats(server.port, |s| field_u64(s, "inflight") >= 1);
    let mut follower = Client::connect(server.port);
    follower.send(&sweep_until_the_deadline("b"));

    let leader_lines = leader.recv_until_done();
    let follower_lines = follower.recv_until_done();
    // Both streams carry the same bodies, each under its own id.
    let strip = |lines: &[String], id: &str| -> Vec<String> {
        let prefix = format!("{{\"id\":\"{id}\",");
        lines
            .iter()
            .map(|l| {
                assert!(l.starts_with(&prefix), "{l}");
                l[prefix.len()..].to_owned()
            })
            .collect()
    };
    assert_eq!(strip(&leader_lines, "a"), strip(&follower_lines, "b"));
    // Both streams end in the leader's deadline error.
    let last = leader_lines.last().expect("leader answered");
    assert!(last.contains(r#""code":"deadline""#), "{last}");

    let stats = wait_for_stats(server.port, |s| field_u64(s, "inflight") == 0);
    assert_eq!(field_u64(&stats, "deduped"), 1, "{stats}");
    assert!(stats.contains(r#""serve.dedup":1"#), "dedup counter fired: {stats}");
}

#[test]
fn kept_alive_responses_are_not_held_back() {
    // Each response line leaves in one write on a TCP_NODELAY socket.
    // A line split over several writes stalls ~40 ms on Nagle's
    // algorithm and the client's delayed ACK, so these 130 round trips
    // would take ~5.7 s. Without TCP_NODELAY each multi-line sweep
    // still stalls once, ~1.2 s over 30 repeats.
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);
    let sweep = r#"{"id":"sw","cmd":"sweep","network":"tiny-darknet","arrays":[8,16],"rfs":[8,16],"buffers_kib":[64]}"#;
    let warm = c.request(sweep);
    assert!(warm.len() > 2, "a multi-line sweep: {warm:?}");

    let start = Instant::now();
    for i in 0..100 {
        let pong = c.request(&format!(r#"{{"id":{i},"cmd":"ping"}}"#));
        assert_eq!(pong.len(), 1, "{pong:?}");
    }
    for _ in 0..30 {
        assert_eq!(c.request(sweep), warm, "a cached sweep answers the same lines");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "130 kept-alive requests took {elapsed:?}");
}

#[test]
fn simulate_counts_every_layer_in_stats() {
    // One hybrid simulation runs every layer under both dataflows, and
    // its `sim.*` counters reach the server's counters before the
    // `done` line is written.
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);
    let done = c.request(r#"{"id":1,"cmd":"simulate","network":"tiny-darknet"}"#).pop().unwrap();
    assert!(field_u64(&done, "cycles") > 0, "{done}");
    let stats = c.request(r#"{"id":2,"cmd":"stats"}"#).pop().unwrap();
    let layers = codesign_dnn::zoo::by_name("tiny-darknet").expect("zoo network").layers().len();
    assert_eq!(field_u64(&stats, "sim.layer_sims"), 2 * layers as u64, "{stats}");
    assert!(field_u64(&stats, "sim.macs") > 0, "{stats}");
    assert!(field_u64(&stats, "sim.dram.bytes") > 0, "{stats}");
}

#[test]
fn concurrent_distinct_clients_share_the_cache() {
    let server = spawn_server(&[]);
    // Two clients, overlapping-but-distinct spaces: no request-level
    // dedup possible, but the shared cache still removes repeated work.
    let mut a = Client::connect(server.port);
    let mut b = Client::connect(server.port);
    a.send(r#"{"id":"a","cmd":"sweep","network":"tiny-darknet","arrays":[8,16],"rfs":[8],"buffers_kib":[64]}"#);
    b.send(r#"{"id":"b","cmd":"sweep","network":"tiny-darknet","arrays":[16,32],"rfs":[8],"buffers_kib":[64]}"#);
    let da = a.recv_until_done().pop().unwrap();
    let db = b.recv_until_done().pop().unwrap();
    assert_eq!(field_u64(&da, "points"), 2, "{da}");
    assert_eq!(field_u64(&db, "points"), 2, "{db}");

    let stats = wait_for_stats(server.port, |s| field_u64(s, "inflight") == 0);
    assert_eq!(field_u64(&stats, "deduped"), 0, "distinct requests never dedup: {stats}");
    assert!(field_u64(&stats, "hits") > 0, "overlap resolves from the shared cache: {stats}");
}

#[test]
fn shutdown_saves_a_snapshot_a_new_server_warm_starts_from() {
    let dir = std::env::temp_dir().join(format!("codesign-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("cache.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");

    {
        let mut server = spawn_server(&["--cache-save", snap_str]);
        let mut c = Client::connect(server.port);
        let done =
            c.request(r#"{"id":1,"cmd":"simulate","network":"tiny-darknet"}"#).pop().unwrap();
        let cold_cycles = field_u64(&done, "cycles");
        assert!(cold_cycles > 0);
        let bye = c.request(r#"{"id":2,"cmd":"shutdown"}"#).pop().unwrap();
        assert!(bye.contains(r#""cmd":"shutdown""#), "{bye}");
        drop(c); // disconnect so the server can finish joining
        let status = exit_within_a_minute(&mut server.child);
        assert!(status.success(), "clean shutdown exits 0");
        assert!(snap.exists(), "snapshot written on shutdown");
    }

    // Warm boot: the same request must be answered entirely from the
    // loaded snapshot — hits, no misses.
    let server = spawn_server(&["--cache-load", snap_str]);
    let mut c = Client::connect(server.port);
    let warm = c.request(r#"{"id":3,"cmd":"simulate","network":"tiny-darknet"}"#).pop().unwrap();
    assert!(field_u64(&warm, "cycles") > 0);
    let stats = c.request(r#"{"id":4,"cmd":"stats"}"#).pop().unwrap();
    assert_eq!(field_u64(&stats, "misses"), 0, "warm start answers from snapshot: {stats}");
    assert!(field_u64(&stats, "hits") > 0, "{stats}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shot_cache_flags_round_trip_and_reject_damage() {
    let dir = std::env::temp_dir().join(format!("codesign-oneshot-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("sweep.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_codesign")).args(args).output().expect("binary runs")
    };

    let cold = run(&["sweep", "tiny-darknet", "--cache-save", snap_str]);
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    assert!(snap.exists());
    let warm = run(&["sweep", "tiny-darknet", "--cache-load", snap_str]);
    assert!(warm.status.success());
    // Byte-identical stdout: the cache changes wall-time, never results.
    assert_eq!(cold.stdout, warm.stdout, "warm sweep output must match cold");
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_err.contains("warm-started"), "{warm_err}");

    // A corrupted snapshot is a rejected input: exit 2, named error.
    let mut bytes = std::fs::read(&snap).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).expect("snapshot writable");
    let bad = run(&["sweep", "tiny-darknet", "--cache-load", snap_str]);
    assert_eq!(bad.status.code(), Some(2), "{}", String::from_utf8_lossy(&bad.stderr));

    // A missing snapshot is a usage error: exit 1.
    let missing = run(&["sweep", "tiny-darknet", "--cache-load", "/no/such/file.snap"]);
    assert_eq!(missing.status.code(), Some(1));
    // Cache flags on a non-caching command are usage errors too.
    let misuse = run(&["simulate", "tiny-darknet", "--cache-load", snap_str]);
    assert_eq!(misuse.status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_load_recovers_generations_and_refuses_version_1_in_every_command() {
    let dir = std::env::temp_dir().join(format!("codesign-v1-gen-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("cache.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_codesign")).args(args).output().expect("binary runs")
    };

    // Only a generation exists, as an autosaving server leaves behind:
    // one-shot `--cache-load` recovers it the way `serve` does.
    let cold = run(&["sweep", "tiny-darknet", "--cache-save", snap_str]);
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    let gen1 = dir.join("cache.snap.gen-1");
    std::fs::rename(&snap, &gen1).expect("snapshot becomes generation 1");
    let warm = run(&["sweep", "tiny-darknet", "--cache-load", snap_str]);
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));
    assert_eq!(warm.stdout, cold.stdout, "a generation warm-start changes no result");

    // A newer generation in the version-1 layout (the same payload, no
    // length word) is refused by name and counted, never migrated.
    let bytes = std::fs::read(&gen1).expect("generation 1 reads");
    let mut v1 = bytes[..8].to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&bytes[20..bytes.len() - 8]);
    v1.extend_from_slice(&codesign_sim::fnv1a(&v1).to_le_bytes());
    std::fs::write(dir.join("cache.snap.gen-2"), &v1).expect("v1 generation writes");
    let warm = run(&["sweep", "tiny-darknet", "--cache-load", snap_str]);
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));
    assert_eq!(warm.stdout, cold.stdout);
    let notes = String::from_utf8_lossy(&warm.stderr);
    let refusal =
        format!("schema version 1 is not the supported {}", codesign_sim::SNAPSHOT_VERSION);
    assert!(notes.contains(&refusal), "{notes}");
    let server = spawn_server(&["--cache-load", snap_str]);
    let stats = Client::connect(server.port).request(r#"{"id":1,"cmd":"stats"}"#).pop().unwrap();
    assert!(stats.contains(r#""serve.snapshot.refused":1"#), "{stats}");
    assert!(field_u64(&stats, "entries") > 0, "warm-started from generation 1: {stats}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadlines_answer_typed_errors_and_the_server_keeps_serving() {
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);

    // A pre-expired per-request deadline: typed error, prefix statement,
    // zero deltas delivered (the empty prefix).
    let lines = c.request(
        r#"{"id":"dl","cmd":"sweep","network":"tiny-darknet","deadline_ms":0,"arrays":[8,16],"rfs":[8],"buffers_kib":[64]}"#,
    );
    assert_eq!(lines.len(), 1, "no deltas before a zero deadline: {lines:?}");
    let err = &lines[0];
    assert!(err.contains(r#""event":"error""#) && err.contains(r#""code":"deadline""#), "{err}");
    assert!(err.contains("prefix of the full run"), "{err}");

    // The very same sweep without a deadline completes on the same
    // connection — a deadline costs one request, not the server.
    let done = c
        .request(
            r#"{"id":"full","cmd":"sweep","network":"tiny-darknet","arrays":[8,16],"rfs":[8],"buffers_kib":[64]}"#,
        )
        .pop()
        .unwrap();
    assert_eq!(field_u64(&done, "points"), 2, "{done}");
    let stats = c.request(r#"{"id":"s","cmd":"stats"}"#).pop().unwrap();
    assert!(stats.contains(r#""serve.deadline":1"#), "{stats}");
}

#[test]
fn server_wide_deadline_caps_every_request() {
    let server = spawn_server(&["--deadline-ms", "0"]);
    let mut c = Client::connect(server.port);
    // A request without a budget of its own gets the server's…
    let err = c.request(r#"{"id":0,"cmd":"codesign","network":"tiny-darknet"}"#).pop().unwrap();
    assert!(err.contains(r#""code":"deadline""#), "{err}");
    // …and one asking for a generous budget cannot raise it.
    let err = c
        .request(r#"{"id":1,"cmd":"codesign","network":"tiny-darknet","deadline_ms":60000}"#)
        .pop()
        .unwrap();
    assert!(err.contains(r#""code":"deadline""#), "{err}");
    // Non-compute commands are never subject to the deadline.
    let pong = c.request(r#"{"id":2,"cmd":"ping"}"#).pop().unwrap();
    assert!(pong.contains(r#""ok":true"#), "{pong}");
}

#[test]
fn infeasible_queries_are_rejected_whatever_their_deadline() {
    // AlexNet's conv1 needs a 5346-B tile; a 4-KiB buffer leaves a
    // 2048-B working half. An invalid query answers `rejected` even when
    // its deadline has already passed; a valid one past its deadline
    // answers `deadline`.
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);
    let rejected = r#""event":"error","code":"rejected","message":"infeasible tiling in layer `conv1`: smallest tile needs 5346 B on chip but the working buffer holds 2048 B""#;
    for (cmd, late) in [
        ("simulate", "before simulation started"),
        ("codesign", "between architecture evaluations"),
    ] {
        for deadline in ["", r#","deadline_ms":0"#] {
            let request = format!(
                r#"{{"id":"{cmd}","cmd":"{cmd}","network":"alexnet","buffer_kib":4{deadline}}}"#
            );
            assert_eq!(c.request(&request), [format!(r#"{{"id":"{cmd}",{rejected}}}"#)]);
        }
        let request =
            format!(r#"{{"id":"{cmd}","cmd":"{cmd}","network":"alexnet","deadline_ms":0}}"#);
        let deadline = format!(
            r#"{{"id":"{cmd}","event":"error","code":"deadline","message":"deadline of 0 ms exceeded {late}"}}"#
        );
        assert_eq!(c.request(&request), [deadline]);
    }
}

#[test]
fn oversized_lines_cost_one_typed_error_each() {
    let server = spawn_server(&["--max-line-bytes", "256"]);
    let mut c = Client::connect(server.port);
    writeln!(c.writer, "{}", "x".repeat(64 * 1024)).expect("oversized line sends");
    let err = c.recv();
    assert!(err.contains(r#""code":"usage""#) && err.contains("max-line-bytes"), "{err}");
    // Exactly one error for the whole oversized line, then normal
    // service resumes on the same connection.
    let pong = c.request(r#"{"id":1,"cmd":"ping"}"#).pop().unwrap();
    assert!(pong.contains(r#""ok":true"#), "{pong}");
    let stats = c.request(r#"{"id":2,"cmd":"stats"}"#).pop().unwrap();
    assert!(stats.contains(r#""serve.overflow":1"#), "{stats}");
}

#[test]
fn connections_beyond_the_slot_limit_are_fast_rejected() {
    let server = spawn_server(&["--max-connections", "1"]);
    let mut a = Client::connect(server.port);
    let pong = a.request(r#"{"id":1,"cmd":"ping"}"#).pop().unwrap();
    assert!(pong.contains(r#""ok":true"#), "{pong}");

    // The second connection gets one overloaded line, then EOF.
    let mut b = Client::connect(server.port);
    let reject = b.recv();
    assert!(
        reject.contains(r#""code":"overloaded""#) && reject.contains(r#""id":null"#),
        "{reject}"
    );
    let mut rest = String::new();
    assert_eq!(b.reader.read_line(&mut rest).expect("EOF readable"), 0, "rejected conn closed");

    // The admitted client is unaffected.
    let pong = a.request(r#"{"id":2,"cmd":"ping"}"#).pop().unwrap();
    assert!(pong.contains(r#""ok":true"#), "{pong}");

    // Once it leaves, its slot admits the next client. The server sees
    // the disconnect on its next read, so a client arriving first is
    // still turned away: retry until one is served.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = Client::connect(server.port);
        c.send(r#"{"id":3,"cmd":"ping"}"#);
        if c.recv().contains(r#""ok":true"#) {
            break;
        }
        assert!(Instant::now() < deadline, "the freed slot never admitted a client");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn request_panics_are_isolated_and_answered() {
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);
    let err = c.request(r#"{"id":"boom","cmd":"__panic__"}"#).pop().unwrap();
    assert!(err.contains(r#""code":"internal""#) && err.contains("still serving"), "{err}");
    let pong = c.request(r#"{"id":1,"cmd":"ping"}"#).pop().unwrap();
    assert!(pong.contains(r#""ok":true"#), "{pong}");
    let stats = c.request(r#"{"id":2,"cmd":"stats"}"#).pop().unwrap();
    assert!(stats.contains(r#""serve.internal":1"#), "{stats}");
}

#[test]
fn only_compute_requests_advance_the_autosave_clock() {
    // `stats`, `ping` and refused requests cannot change the cache, so
    // under `--autosave-every 1` they must not rewrite the snapshot.
    let dir = std::env::temp_dir().join(format!("codesign-autosave-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("cache.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");

    let server = spawn_server(&["--cache-save", snap_str, "--autosave-every", "1"]);
    let mut c = Client::connect(server.port);
    let done = c
        .request(r#"{"id":"sim","cmd":"simulate","network":"tiny-darknet","array":8}"#)
        .pop()
        .unwrap();
    assert!(field_u64(&done, "cycles") > 0, "{done}");
    for i in 0..20 {
        let cmd = if i % 2 == 0 { "stats" } else { "ping" };
        let line = c.request(&format!(r#"{{"id":{i},"cmd":"{cmd}"}}"#)).pop().unwrap();
        assert!(!line.contains(r#""event":"error""#), "{line}");
    }
    let refused = c.request(r#"{"id":"bad","cmd":"bogus"}"#).pop().unwrap();
    assert!(refused.contains(r#""code":"usage""#), "{refused}");
    // One connection is served in order and each request autosaves
    // before the next is read, so this count is final.
    let stats = c.request(r#"{"id":"last","cmd":"stats"}"#).pop().unwrap();
    assert_eq!(field_u64(&stats, "serve.autosave"), 1, "{stats}");
    assert_eq!(codesign_sim::scan_generations(&snap).len(), 1);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_after_autosave_never_loses_the_warm_start() {
    // The crash-safety acceptance path end to end, with a real SIGKILL:
    // autosaved generations survive the kill, a torn newest generation
    // is refused, and the replacement server warm-starts from the
    // survivor.
    let dir = std::env::temp_dir().join(format!("codesign-kill9-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("cache.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");

    let mut server = spawn_server(&["--cache-save", snap_str, "--autosave-every", "1"]);
    let mut c = Client::connect(server.port);
    for (i, array) in [8u64, 16, 32, 8, 16].iter().enumerate() {
        let done = c
            .request(&format!(
                r#"{{"id":{i},"cmd":"simulate","network":"tiny-darknet","array":{array}}}"#
            ))
            .pop()
            .unwrap();
        assert!(field_u64(&done, "cycles") > 0, "{done}");
    }
    // Autosaves land after the response is written; wait for all five.
    // The stats probes do not advance the autosave clock, so no sixth
    // one follows.
    wait_for_stats(server.port, |s| {
        s.contains(r#""serve.autosave":"#) && field_u64(s, "serve.autosave") >= 5
    });
    server.child.kill().expect("SIGKILL lands");
    server.child.wait().expect("killed server reaped");
    assert!(!snap.exists(), "no clean-shutdown snapshot after kill -9");

    // Five autosaves rotated down to the kept generations.
    let gens = codesign_sim::scan_generations(&snap);
    let kept = codesign_sim::GENERATIONS_KEPT;
    assert_eq!(gens.len(), kept, "rotation bounds the files: {gens:?}");

    // Tear the newest generation mid-write, as a crash during the next
    // autosave would.
    let (_, newest) = gens.last().unwrap();
    let bytes = std::fs::read(newest).expect("newest gen readable");
    std::fs::write(newest, &bytes[..bytes.len() / 2]).expect("newest gen torn");

    // Recovery: torn newest refused (counted), older generation loaded,
    // warm workload answered without a single miss.
    let server = spawn_server(&["--cache-load", snap_str]);
    let mut c = Client::connect(server.port);
    let stats = c.request(r#"{"id":"s","cmd":"stats"}"#).pop().unwrap();
    assert!(field_u64(&stats, "entries") > 0, "warm start survived: {stats}");
    assert!(stats.contains(r#""serve.snapshot.refused":1"#), "{stats}");
    let warm = c
        .request(r#"{"id":"w","cmd":"simulate","network":"tiny-darknet","array":8}"#)
        .pop()
        .unwrap();
    assert!(field_u64(&warm, "cycles") > 0, "{warm}");
    let stats = c.request(r#"{"id":"s2","cmd":"stats"}"#).pop().unwrap();
    assert_eq!(field_u64(&stats, "misses"), 0, "recovered cache answers warm: {stats}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reader_interleaves_requests_without_blocking() {
    // One connection, two requests back to back before reading: the
    // server must answer both in order (the protocol is pipelined).
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);
    c.send(r#"{"id":1,"cmd":"ping"}"#);
    c.send(r#"{"id":2,"cmd":"ping"}"#);
    assert!(c.recv().starts_with(r#"{"id":1,"#));
    assert!(c.recv().starts_with(r#"{"id":2,"#));
    // Half a line then the rest: framing survives write fragmentation.
    write!(c.writer, r#"{{"id":3,"cmd":"#).expect("half line");
    c.writer.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(50));
    writeln!(c.writer, r#""ping"}}"#).expect("rest of line");
    assert!(c.recv().starts_with(r#"{"id":3,"#));
    // A slow client: three fragments, each pause longer than the
    // server's 200 ms read tick, still make one line.
    for fragment in [r#"{"id":4,"#, r#""cmd":"#, "\"ping\"}\n"] {
        c.writer.write_all(fragment.as_bytes()).expect("fragment sends");
        std::thread::sleep(Duration::from_millis(250));
    }
    assert!(c.recv().starts_with(r#"{"id":4,"#));
}

#[test]
fn a_line_just_under_the_cap_is_answered_promptly() {
    // A ping padded with one string to a line one byte under the default
    // 1 MiB cap. The connection thread parses a request before any
    // deadline applies, so the parse must be linear in the line.
    let server = spawn_server(&[]);
    let mut c = Client::connect(server.port);
    let head = r#"{"id":"long","cmd":"ping","pad":""#;
    let line = format!("{head}{}\"}}", "x".repeat((1 << 20) - head.len() - 3));
    assert_eq!(line.len() + 1, 1 << 20, "the line and its newline fill the cap");
    let start = Instant::now();
    let pong = c.request(&line);
    let took = start.elapsed();
    assert_eq!(pong, [r#"{"id":"long","event":"done","cmd":"ping","ok":true}"#]);
    assert!(took < Duration::from_secs(5), "a 1 MiB ping took {took:?}");
    let pong = c.request(r#"{"id":1,"cmd":"ping"}"#).pop().unwrap();
    assert!(pong.contains(r#""ok":true"#), "{pong}");
}

#[test]
fn a_client_vanishing_mid_line_frees_its_slot() {
    let server = spawn_server(&[]);
    {
        let mut loris = Client::connect(server.port);
        loris.writer.write_all(br#"{"id":1,"#).expect("half line sends");
        std::thread::sleep(Duration::from_millis(250));
        // Vanish mid-line.
    }
    let pong = Client::connect(server.port).request(r#"{"id":2,"cmd":"ping"}"#).pop().unwrap();
    assert!(pong.contains(r#""ok":true"#), "{pong}");
    // Only the probe itself is left connected.
    wait_for_stats(server.port, |s| field_u64(s, "active") == 1);
}

#[test]
fn a_client_vanishing_mid_sweep_leaves_nothing_in_flight() {
    let server = spawn_server(&[]);
    {
        let mut gone = Client::connect(server.port);
        gone.send(&sweep_until_the_deadline("gone"));
        wait_for_stats(server.port, |s| field_u64(s, "inflight") == 1);
        // Disconnect mid-sweep without reading a single streamed delta.
    }
    let pong = Client::connect(server.port).request(r#"{"id":1,"cmd":"ping"}"#).pop().unwrap();
    assert!(pong.contains(r#""ok":true"#), "{pong}");
    // The abandoned sweep runs to its deadline against a dead writer,
    // then leaves the in-flight table and frees its connection slot.
    let stats = wait_for_stats(server.port, |s| field_u64(s, "active") == 1);
    assert_eq!(field_u64(&stats, "inflight"), 0, "{stats}");
    assert!(stats.contains(r#""serve.deadline":1"#), "{stats}");
}

#[test]
fn shutdown_racing_an_inflight_sweep_exits_zero() {
    let mut server = spawn_server(&[]);
    let mut a = Client::connect(server.port);
    a.send(&sweep_until_the_deadline("race"));
    wait_for_stats(server.port, |s| field_u64(s, "inflight") == 1);
    let bye = Client::connect(server.port).request(r#"{"id":"stop","cmd":"shutdown"}"#);
    assert_eq!(bye, [r#"{"id":"stop","event":"done","cmd":"shutdown","ok":true}"#]);
    // The in-flight sweep still ends in its terminator, and the server
    // joins its connection and exits cleanly.
    let last = a.recv_until_done().pop().unwrap();
    assert!(last.contains(r#""code":"deadline""#), "{last}");
    let status = exit_within_a_minute(&mut server.child);
    assert!(status.success(), "{status}");
}

#[test]
fn serve_refuses_to_start_when_every_snapshot_candidate_is_refused() {
    // Every candidate damaged: the base file bit-flipped, generation 1
    // torn, generation 2 empty. The server must not serve from a
    // half-trusted cache: exit 2, naming the refusals, before the port
    // line.
    let dir = std::env::temp_dir().join(format!("codesign-all-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("cache.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");
    let cold = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(["sweep", "tiny-darknet", "--cache-save", snap_str])
        .output()
        .expect("binary runs");
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    let bytes = std::fs::read(&snap).expect("snapshot readable");
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x20;
    std::fs::write(&snap, &flipped).expect("base file writes");
    std::fs::write(dir.join("cache.snap.gen-1"), &bytes[..bytes.len() / 2]).expect("gen 1 writes");
    std::fs::write(dir.join("cache.snap.gen-2"), b"").expect("gen 2 writes");

    let mut child = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(["serve", "--port", "0", "--cache-load", snap_str])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let status = exit_within_a_minute(&mut child);
    let (mut out, mut err) = (String::new(), String::new());
    child.stdout.take().expect("stdout piped").read_to_string(&mut out).expect("stdout reads");
    child.stderr.take().expect("stderr piped").read_to_string(&mut err).expect("stderr reads");
    assert_eq!(status.code(), Some(2), "{err}");
    assert_eq!(out, "", "no port line");
    assert!(err.contains("all 3 snapshot candidate(s) refused"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}
