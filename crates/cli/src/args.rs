//! Hand-rolled argument parsing for the `codesign` binary.

use std::fmt;

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, InvalidConfigError};

/// The selected subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Simulate a network end to end.
    Simulate,
    /// Print the per-layer WS/OS schedule.
    Schedule,
    /// Print the compiled command stream.
    Compile,
    /// Compare hybrid vs the fixed references (one Table-2 row).
    Compare,
    /// Sweep the hardware design space.
    Sweep,
    /// Dump a layer's cycle-machine waveform as VCD.
    Wave,
    /// List the model zoo.
    List,
    /// Run the line-delimited-JSON co-design server.
    Serve,
    /// Run the functional executors and assert zoo-wide bit-equality.
    VerifyFunctional,
}

/// Fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Subcommand.
    pub action: Action,
    /// Network name (zoo) or path to a `.net` text file.
    pub network: Option<String>,
    /// Dataflow policy (default: per-layer hybrid).
    pub policy: DataflowPolicy,
    /// Hardware overrides applied to the paper default.
    pub array_size: Option<usize>,
    /// Register-file depth override.
    pub rf_depth: Option<usize>,
    /// Global buffer size override, in KiB.
    pub buffer_kib: Option<usize>,
    /// Batch size (default 1).
    pub batch: u64,
    /// Core count (default 1).
    pub cores: usize,
    /// Worker threads for the sweep fan-out (`0` = one per core).
    pub jobs: usize,
    /// Layer name (for `wave`).
    pub layer: Option<String>,
    /// Write a Chrome-trace JSON of the run to this path.
    pub trace: Option<String>,
    /// Write an aggregated metrics JSON of the run to this path.
    pub metrics: Option<String>,
    /// TCP port for `serve` (`0` = ephemeral, printed at startup).
    pub port: u16,
    /// Warm-start the simulation cache from this snapshot file.
    pub cache_load: Option<String>,
    /// Save the simulation cache to this snapshot file at the end.
    pub cache_save: Option<String>,
    /// serve: per-request compute budget in milliseconds (`None` = no
    /// deadline). Per-request `deadline_ms` overrides are capped at this.
    pub deadline_ms: Option<u64>,
    /// serve: maximum request-line length in bytes before the line is
    /// rejected with a `usage` error instead of accumulating unbounded.
    pub max_line_bytes: usize,
    /// serve: maximum concurrent connections; at capacity new
    /// connections are fast-rejected with an `overloaded` error.
    pub max_connections: usize,
    /// serve: autosave the cache to a rotating `--cache-save` generation
    /// file every N handled `sweep`/`simulate`/`codesign` requests
    /// (`0` = off).
    pub autosave_every: u64,
    /// sweep: stream the bounded-memory online Pareto frontier instead
    /// of materializing every point (implied by the other streaming
    /// flags; see [`Invocation::frontier_mode`]).
    pub frontier: bool,
    /// sweep: evaluation chunk size for the streaming pipeline.
    pub chunk: Option<usize>,
    /// sweep: enable dominance branch-and-bound pruning.
    pub prune: bool,
    /// sweep: override the array-size axis (comma-separated edges).
    pub arrays: Option<Vec<usize>>,
    /// sweep: override the register-file-depth axis.
    pub rfs: Option<Vec<usize>>,
    /// sweep: override the buffer axis, in KiB.
    pub buffers_kib: Option<Vec<usize>>,
    /// sweep: base path for crash-safe checkpoint generations.
    pub checkpoint: Option<String>,
    /// sweep: minimum completed points between checkpoints.
    pub checkpoint_every: u64,
    /// sweep: resume from the newest intact checkpoint generation.
    pub resume: bool,
}

impl Invocation {
    /// Builds the accelerator configuration with the overrides applied.
    ///
    /// # Errors
    ///
    /// Propagates [`InvalidConfigError`] for out-of-range overrides.
    pub fn config(&self) -> Result<AcceleratorConfig, InvalidConfigError> {
        let mut b = AcceleratorConfig::builder();
        if let Some(n) = self.array_size {
            b.array_size(n);
        }
        if let Some(r) = self.rf_depth {
            b.rf_depth(r);
        }
        if let Some(kb) = self.buffer_kib {
            b.global_buffer_bytes(kb * 1024);
        }
        b.build()
    }

    /// Whether `sweep` should run the bounded-memory streaming frontier
    /// pipeline: `--frontier`, or any flag that only makes sense there.
    /// The classic full-materialization sweep (and its byte-exact
    /// output) remains the default.
    pub fn frontier_mode(&self) -> bool {
        self.frontier
            || self.chunk.is_some()
            || self.prune
            || self.arrays.is_some()
            || self.rfs.is_some()
            || self.buffers_kib.is_some()
            || self.checkpoint.is_some()
            || self.resume
    }
}

/// Error from [`parse_args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// The usage text.
pub const USAGE: &str = "\
usage: codesign <command> [network] [options]

commands:
  simulate <net>   end-to-end cycles, time, energy, utilization
  schedule <net>   per-layer WS/OS schedule (Figure-1 style)
  compile  <net>   compiled accelerator command stream
  compare  <net>   hybrid vs fixed WS/OS references (Table-2 row)
  sweep    <net>   hardware design-space sweep
  wave     <net> <layer>  layer waveform as VCD (stdout; pipe to a file)
  list             list the model zoo
  serve            run the line-delimited-JSON co-design server
  verify-functional [net]  run the GEMM functional executor and assert
                   bit-equality against the reference ops (whole zoo
                   when no network is given); prints a MACs/sec
                   throughput headline

<net> is a zoo name (try `codesign list`) or a path to a .net file.

exit codes: 0 success; 1 usage or I/O error; 2 the workload or
configuration was rejected by the simulator (preflight validation,
infeasible tiling, overflow-scale shapes, ...) or verify-functional
found a divergent layer.

options:
  --arch ws|os|hybrid    simulate/compile: dataflow policy (default hybrid)
  --array N              PE array edge              (default 32)
  --rf R                 register-file depth        (default 16)
  --buffer KB            global buffer KiB          (default 128)
  --batch B              simulate: batch size       (default 1)
  --cores C              simulate: core count       (default 1)
  --jobs N               sweep worker threads, 0 = one per core
                                                    (default 0)
  --trace PATH           write a Chrome-trace JSON (about:tracing /
                         ui.perfetto.dev) of the simulated run
  --metrics PATH         write an aggregated metrics JSON snapshot
                         (both: not on list, serve or verify-functional)
  --port N               serve: TCP port, 0 = ephemeral (default 7227)
  --cache-load PATH      sweep/compare/serve: warm-start the simulation
                         cache from a snapshot file (serve also scans
                         PATH.gen-K generation files, newest valid wins)
  --cache-save PATH      sweep/compare/serve: save the simulation cache
                         to a snapshot file at the end
  --deadline-ms MS       serve: per-request compute budget; exceeded
                         requests answer a `deadline` error (default
                         none; per-request deadline_ms is capped here)
  --max-line-bytes N     serve: longest accepted request line (default
                         1048576, min 64); longer lines answer `usage`
  --max-connections N    serve: concurrent connection slots (default 64);
                         at capacity connections get one `overloaded`
                         error and are closed
  --autosave-every N     serve: autosave the cache into rotating
                         --cache-save generation files every N sweep,
                         simulate or codesign requests
                         (default 0 = off; requires --cache-save)
  --frontier             sweep: stream the online Pareto frontier with
                         bounded memory instead of materializing every
                         point (implied by the flags below)
  --chunk N              sweep: streaming evaluation chunk (default 64)
  --prune                sweep: dominance branch-and-bound — skip buffer
                         segments provably off the frontier
  --arrays LIST          sweep: comma-separated PE array edges
  --rfs LIST             sweep: comma-separated register-file depths
  --buffers-kib LIST     sweep: comma-separated buffer sizes in KiB
  --checkpoint PATH      sweep: write crash-safe checkpoint generations
                         to PATH.gen-K while sweeping
  --checkpoint-every N   sweep: completed points between checkpoints
                         (default 2048; requires --checkpoint)
  --resume               sweep: resume from the newest intact checkpoint
                         generation under --checkpoint
";

fn parse_list(flag: &str, value: Option<String>) -> Result<Vec<usize>, ParseArgsError> {
    let raw =
        value.ok_or_else(|| ParseArgsError(format!("{flag} requires a comma-separated list")))?;
    raw.split(',')
        .map(|item| item.trim().parse())
        .collect::<Result<Vec<usize>, _>>()
        .map_err(|_| ParseArgsError(format!("bad value for {flag} (comma-separated integers)")))
}

fn parse_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
) -> Result<T, ParseArgsError> {
    value
        .ok_or_else(|| ParseArgsError(format!("{flag} requires a value")))?
        .parse()
        .map_err(|_| ParseArgsError(format!("bad value for {flag}")))
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns [`ParseArgsError`] with a user-facing message on any malformed
/// input.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Invocation, ParseArgsError> {
    let mut it = args.into_iter();
    let action = match it.next().as_deref() {
        Some("simulate") => Action::Simulate,
        Some("schedule") => Action::Schedule,
        Some("compile") => Action::Compile,
        Some("compare") => Action::Compare,
        Some("sweep") => Action::Sweep,
        Some("wave") => Action::Wave,
        Some("list") => Action::List,
        Some("serve") => Action::Serve,
        Some("verify-functional") => Action::VerifyFunctional,
        Some(other) => return Err(ParseArgsError(format!("unknown command `{other}`"))),
        None => return Err(ParseArgsError("missing command".to_owned())),
    };
    let mut inv = Invocation {
        action,
        network: None,
        policy: DataflowPolicy::PerLayer,
        array_size: None,
        rf_depth: None,
        buffer_kib: None,
        batch: 1,
        cores: 1,
        jobs: 0,
        layer: None,
        trace: None,
        metrics: None,
        port: 7227,
        cache_load: None,
        cache_save: None,
        deadline_ms: None,
        max_line_bytes: 1 << 20,
        max_connections: 64,
        autosave_every: 0,
        frontier: false,
        chunk: None,
        prune: false,
        arrays: None,
        rfs: None,
        buffers_kib: None,
        checkpoint: None,
        checkpoint_every: 2048,
        resume: false,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--arch" => {
                inv.policy = match it.next().as_deref() {
                    Some("ws") => DataflowPolicy::Fixed(Dataflow::WeightStationary),
                    Some("os") => DataflowPolicy::Fixed(Dataflow::OutputStationary),
                    Some("hybrid") => DataflowPolicy::PerLayer,
                    other => {
                        return Err(ParseArgsError(format!(
                            "--arch must be ws, os, or hybrid (got {:?})",
                            other.unwrap_or("nothing")
                        )))
                    }
                };
            }
            "--array" => inv.array_size = Some(parse_value("--array", it.next())?),
            "--rf" => inv.rf_depth = Some(parse_value("--rf", it.next())?),
            "--buffer" => inv.buffer_kib = Some(parse_value("--buffer", it.next())?),
            "--batch" => inv.batch = parse_value("--batch", it.next())?,
            "--cores" => inv.cores = parse_value("--cores", it.next())?,
            "--jobs" => inv.jobs = parse_value("--jobs", it.next())?,
            "--trace" => inv.trace = Some(parse_value("--trace", it.next())?),
            "--metrics" => inv.metrics = Some(parse_value("--metrics", it.next())?),
            "--port" => inv.port = parse_value("--port", it.next())?,
            "--cache-load" => inv.cache_load = Some(parse_value("--cache-load", it.next())?),
            "--cache-save" => inv.cache_save = Some(parse_value("--cache-save", it.next())?),
            "--deadline-ms" => inv.deadline_ms = Some(parse_value("--deadline-ms", it.next())?),
            "--max-line-bytes" => inv.max_line_bytes = parse_value("--max-line-bytes", it.next())?,
            "--max-connections" => {
                inv.max_connections = parse_value("--max-connections", it.next())?
            }
            "--autosave-every" => inv.autosave_every = parse_value("--autosave-every", it.next())?,
            "--frontier" => inv.frontier = true,
            "--chunk" => inv.chunk = Some(parse_value("--chunk", it.next())?),
            "--prune" => inv.prune = true,
            "--arrays" => inv.arrays = Some(parse_list("--arrays", it.next())?),
            "--rfs" => inv.rfs = Some(parse_list("--rfs", it.next())?),
            "--buffers-kib" => inv.buffers_kib = Some(parse_list("--buffers-kib", it.next())?),
            "--checkpoint" => inv.checkpoint = Some(parse_value("--checkpoint", it.next())?),
            "--checkpoint-every" => {
                inv.checkpoint_every = parse_value("--checkpoint-every", it.next())?
            }
            "--resume" => inv.resume = true,
            flag if flag.starts_with("--") => {
                return Err(ParseArgsError(format!("unknown option `{flag}`")));
            }
            name if inv.network.is_none() => inv.network = Some(name.to_owned()),
            name if inv.action == Action::Wave && inv.layer.is_none() => {
                inv.layer = Some(name.to_owned())
            }
            extra => return Err(ParseArgsError(format!("unexpected argument `{extra}`"))),
        }
    }
    if inv.network.is_none()
        && !matches!(inv.action, Action::List | Action::Serve | Action::VerifyFunctional)
    {
        return Err(ParseArgsError("this command needs a network".to_owned()));
    }
    if (inv.cache_load.is_some() || inv.cache_save.is_some())
        && !matches!(inv.action, Action::Sweep | Action::Compare | Action::Serve)
    {
        return Err(ParseArgsError(
            "--cache-load/--cache-save apply to sweep, compare, and serve".to_owned(),
        ));
    }
    // Flags, the commands that read them, and those commands as the
    // refusal names them: any other command would silently ignore the
    // flag, so it refuses it.
    use Action::{Compare, Compile, Schedule, Serve, Simulate, Sweep, Wave};
    let scopes: [(&[_], &[Action], &str); 5] = [
        (
            &[
                ("--deadline-ms", inv.deadline_ms.is_some()),
                ("--max-line-bytes", inv.max_line_bytes != 1 << 20),
                ("--max-connections", inv.max_connections != 64),
                ("--autosave-every", inv.autosave_every != 0),
            ],
            &[Serve],
            "serve only",
        ),
        (
            &[
                ("--frontier", inv.frontier),
                ("--chunk", inv.chunk.is_some()),
                ("--prune", inv.prune),
                ("--arrays", inv.arrays.is_some()),
                ("--rfs", inv.rfs.is_some()),
                ("--buffers-kib", inv.buffers_kib.is_some()),
                ("--checkpoint", inv.checkpoint.is_some()),
                ("--checkpoint-every", inv.checkpoint_every != 2048),
                ("--resume", inv.resume),
            ],
            &[Sweep],
            "sweep only",
        ),
        (&[("--batch", inv.batch != 1), ("--cores", inv.cores != 1)], &[Simulate], "simulate only"),
        (
            &[("--arch", inv.policy != DataflowPolicy::PerLayer)],
            &[Simulate, Compile],
            "simulate and compile only",
        ),
        (
            &[("--trace", inv.trace.is_some()), ("--metrics", inv.metrics.is_some())],
            &[Simulate, Schedule, Compile, Compare, Sweep, Wave],
            "simulate, schedule, compile, compare, sweep and wave",
        ),
    ];
    for (flags, commands, names) in scopes {
        if commands.contains(&inv.action) {
            continue;
        }
        if let Some((flag, _)) = flags.iter().find(|(_, set)| *set) {
            return Err(ParseArgsError(format!("{flag} applies to {names}")));
        }
    }
    if inv.chunk == Some(0) {
        return Err(ParseArgsError("--chunk must be at least 1".to_owned()));
    }
    if inv.checkpoint_every == 0 {
        return Err(ParseArgsError("--checkpoint-every must be at least 1".to_owned()));
    }
    if inv.checkpoint.is_none() && (inv.resume || inv.checkpoint_every != 2048) {
        return Err(ParseArgsError("--resume/--checkpoint-every require --checkpoint".to_owned()));
    }
    for (flag, axis) in
        [("--arrays", &inv.arrays), ("--rfs", &inv.rfs), ("--buffers-kib", &inv.buffers_kib)]
    {
        if let Some(values) = axis {
            if values.is_empty() || values.contains(&0) {
                return Err(ParseArgsError(format!("{flag} needs positive values")));
            }
        }
    }
    // `config` and the sweep space convert KiB to bytes, so every buffer
    // size must fit in a byte count.
    let largest_kib =
        inv.buffer_kib.into_iter().chain(inv.buffers_kib.iter().flatten().copied()).max();
    if largest_kib.is_some_and(|kib| kib > usize::MAX / 1024) {
        return Err(ParseArgsError("--buffer/--buffers-kib do not fit in a byte count".to_owned()));
    }
    if inv.max_line_bytes < 64 {
        return Err(ParseArgsError("--max-line-bytes must be at least 64".to_owned()));
    }
    if inv.max_connections == 0 {
        return Err(ParseArgsError("--max-connections must be at least 1".to_owned()));
    }
    if inv.autosave_every != 0 && inv.cache_save.is_none() {
        return Err(ParseArgsError("--autosave-every requires --cache-save".to_owned()));
    }
    if inv.action == Action::Wave && inv.layer.is_none() {
        return Err(ParseArgsError("`wave` needs a layer name (see `schedule`)".to_owned()));
    }
    if inv.batch == 0 {
        return Err(ParseArgsError("--batch must be at least 1".to_owned()));
    }
    if inv.cores == 0 {
        return Err(ParseArgsError("--cores must be at least 1".to_owned()));
    }
    // The multi-core model splits one image across the cores and takes
    // no batch: `simulate` would divide that one image's cycles by it.
    if inv.batch > 1 && inv.cores > 1 {
        return Err(ParseArgsError("--batch and --cores cannot both exceed 1".to_owned()));
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use std::panic::catch_unwind;

    use super::*;
    use crate::jsonval::tests::XorShift;

    fn parse(s: &str) -> Result<Invocation, ParseArgsError> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_invocation() {
        let inv = parse(
            "simulate mobilenet --arch ws --array 16 --rf 8 --buffer 64 --batch 4 --cores 1 --jobs 3",
        )
        .unwrap();
        assert_eq!(inv.action, Action::Simulate);
        assert_eq!(inv.network.as_deref(), Some("mobilenet"));
        assert_eq!(inv.policy, DataflowPolicy::Fixed(Dataflow::WeightStationary));
        assert_eq!(inv.array_size, Some(16));
        assert_eq!(inv.batch, 4);
        assert_eq!(inv.cores, 1);
        assert_eq!(inv.jobs, 3);
        let cfg = inv.config().unwrap();
        assert_eq!(cfg.array_size(), 16);
        assert_eq!(cfg.global_buffer_bytes(), 64 * 1024);
    }

    #[test]
    fn defaults_are_paper_defaults() {
        let inv = parse("compare squeezenet").unwrap();
        assert_eq!(inv.policy, DataflowPolicy::PerLayer);
        assert_eq!(inv.jobs, 0, "jobs defaults to one worker per core");
        let cfg = inv.config().unwrap();
        assert_eq!(cfg.array_size(), 32);
        assert_eq!(cfg.rf_depth(), 16);
    }

    #[test]
    fn list_needs_no_network() {
        assert_eq!(parse("list").unwrap().action, Action::List);
        assert!(parse("simulate").is_err());
    }

    #[test]
    fn wave_takes_a_layer_operand() {
        let inv = parse("wave squeezenet conv1").unwrap();
        assert_eq!(inv.action, Action::Wave);
        assert_eq!(inv.layer.as_deref(), Some("conv1"));
        assert!(parse("wave squeezenet").is_err());
    }

    #[test]
    fn trace_and_metrics_take_paths() {
        let inv = parse("simulate squeezenet --trace t.json --metrics m.json").unwrap();
        assert_eq!(inv.trace.as_deref(), Some("t.json"));
        assert_eq!(inv.metrics.as_deref(), Some("m.json"));
        let inv = parse("compare squeezenet").unwrap();
        assert_eq!((inv.trace, inv.metrics), (None, None));
        assert!(parse("simulate squeezenet --trace").is_err());
        assert!(parse("simulate squeezenet --metrics").is_err());
    }

    #[test]
    fn serve_takes_port_and_cache_flags_without_a_network() {
        let inv = parse("serve --port 0 --jobs 2 --cache-load a.snap --cache-save b.snap").unwrap();
        assert_eq!(inv.action, Action::Serve);
        assert_eq!(inv.port, 0);
        assert_eq!(inv.cache_load.as_deref(), Some("a.snap"));
        assert_eq!(inv.cache_save.as_deref(), Some("b.snap"));
        assert_eq!(parse("serve").unwrap().port, 7227, "default port");
        assert!(parse("serve --port").is_err());
        assert!(parse("serve --port nine").is_err());
        assert!(parse("serve --port 99999").is_err(), "port must fit u16");
    }

    #[test]
    fn cache_flags_apply_to_sweep_compare_and_serve_only() {
        assert!(parse("sweep tiny-darknet --cache-save s.snap").is_ok());
        assert!(parse("compare tiny-darknet --cache-load s.snap").is_ok());
        assert!(parse("simulate tiny-darknet --cache-load s.snap").is_err());
        assert!(parse("list --cache-save s.snap").is_err());
    }

    #[test]
    fn serve_hardening_flags_parse_with_defaults() {
        let inv = parse("serve").unwrap();
        assert_eq!(inv.deadline_ms, None, "no deadline by default");
        assert_eq!(inv.max_line_bytes, 1 << 20);
        assert_eq!(inv.max_connections, 64);
        assert_eq!(inv.autosave_every, 0, "autosave off by default");
        let inv = parse(
            "serve --deadline-ms 250 --max-line-bytes 4096 --max-connections 2 \
             --cache-save s.snap --autosave-every 10",
        )
        .unwrap();
        assert_eq!(inv.deadline_ms, Some(250));
        assert_eq!(inv.max_line_bytes, 4096);
        assert_eq!(inv.max_connections, 2);
        assert_eq!(inv.autosave_every, 10);
    }

    #[test]
    fn serve_hardening_flags_are_validated() {
        assert!(parse("serve --max-line-bytes 8").is_err(), "line cap floor");
        assert!(parse("serve --max-connections 0").is_err(), "at least one slot");
        assert!(parse("serve --autosave-every 5").is_err(), "autosave needs --cache-save");
        assert!(parse("sweep tiny-darknet --deadline-ms 100").is_err(), "serve-only flag");
        assert!(parse("simulate net --max-connections 2").is_err(), "serve-only flag");
        assert!(parse("sweep tiny-darknet --autosave-every 3").is_err(), "serve-only flag");
    }

    #[test]
    fn flags_a_command_would_ignore_are_refused() {
        let simulate = "simulate only";
        let arch = "simulate and compile only";
        let traced = "simulate, schedule, compile, compare, sweep and wave";
        for (args, flag, commands) in [
            ("compare tiny-darknet --batch 4", "--batch", simulate),
            ("compare tiny-darknet --cores 4", "--cores", simulate),
            ("sweep tiny-darknet --arch ws", "--arch", arch),
            ("schedule tiny-darknet --arch os", "--arch", arch),
            ("wave squeezenet-v1.1 conv1 --arch ws", "--arch", arch),
            ("list --metrics m.json", "--metrics", traced),
            ("verify-functional tiny-darknet --metrics m.json", "--metrics", traced),
            ("serve --trace t.json", "--trace", traced),
            ("serve --metrics m.json", "--metrics", traced),
        ] {
            let refusal = parse(args).unwrap_err().to_string();
            assert_eq!(refusal, format!("{flag} applies to {commands}"), "{args}");
        }
        // Where a command reads the flag, it parses.
        for args in [
            "simulate tiny-darknet --batch 4",
            "simulate tiny-darknet --cores 4",
            "compile tiny-darknet --arch os",
            "schedule tiny-darknet --trace t.json",
            "wave squeezenet-v1.1 conv1 --metrics m.json",
            "serve --port 0 --jobs 2 --cache-load a.snap",
        ] {
            assert!(parse(args).is_ok(), "{args}");
        }
    }

    #[test]
    fn batch_and_cores_do_not_combine() {
        // No model runs a batch on several cores: `simulate` would print
        // a one-image multi-core run's cycles divided by the batch.
        let err = parse("simulate squeezenet-v1.0 --cores 2 --batch 4").unwrap_err();
        assert_eq!(err.to_string(), "--batch and --cores cannot both exceed 1");
        assert!(parse("simulate squeezenet-v1.0 --batch 4 --cores 2").is_err());
        assert_eq!(parse("simulate squeezenet-v1.0 --cores 2 --batch 1").unwrap().cores, 2);
        assert_eq!(parse("simulate squeezenet-v1.0 --batch 4 --cores 1").unwrap().batch, 4);
    }

    #[test]
    fn verify_functional_network_is_optional() {
        let inv = parse("verify-functional").unwrap();
        assert_eq!(inv.action, Action::VerifyFunctional);
        assert_eq!(inv.network, None, "no network means the whole zoo");
        let inv = parse("verify-functional squeezenet-v1.1 --jobs 4 --array 16").unwrap();
        assert_eq!(inv.network.as_deref(), Some("squeezenet-v1.1"));
        assert_eq!(inv.jobs, 4);
        assert_eq!(inv.array_size, Some(16));
    }

    #[test]
    fn streaming_sweep_flags_parse() {
        let inv = parse(
            "sweep tiny-darknet --frontier --chunk 32 --prune --arrays 8,16 --rfs 8 \
             --buffers-kib 64,128,256 --checkpoint ck/sweep --checkpoint-every 100 --resume",
        )
        .unwrap();
        assert!(inv.frontier && inv.prune && inv.resume);
        assert_eq!(inv.chunk, Some(32));
        assert_eq!(inv.arrays.as_deref(), Some(&[8, 16][..]));
        assert_eq!(inv.rfs.as_deref(), Some(&[8][..]));
        assert_eq!(inv.buffers_kib.as_deref(), Some(&[64, 128, 256][..]));
        assert_eq!(inv.checkpoint.as_deref(), Some("ck/sweep"));
        assert_eq!(inv.checkpoint_every, 100);
        assert!(inv.frontier_mode());
    }

    #[test]
    fn any_streaming_flag_implies_frontier_mode_but_plain_sweep_stays_classic() {
        assert!(!parse("sweep tiny-darknet").unwrap().frontier_mode());
        assert!(!parse("sweep tiny-darknet --jobs 2").unwrap().frontier_mode());
        for flags in [
            "--frontier",
            "--chunk 8",
            "--prune",
            "--arrays 8",
            "--rfs 16",
            "--buffers-kib 64",
            "--checkpoint c.ck",
        ] {
            assert!(
                parse(&format!("sweep tiny-darknet {flags}")).unwrap().frontier_mode(),
                "{flags} should imply frontier mode"
            );
        }
    }

    #[test]
    fn streaming_sweep_flags_are_validated() {
        assert!(parse("simulate net --frontier").is_err(), "sweep-only flag");
        assert!(parse("compare net --chunk 8").is_err(), "sweep-only flag");
        assert!(parse("serve --prune").is_err(), "sweep-only flag");
        assert!(parse("list --arrays 8,16").is_err(), "sweep-only flag");
        assert!(parse("sweep net --chunk 0").is_err(), "chunk floor");
        assert!(parse("sweep net --resume").is_err(), "resume needs --checkpoint");
        assert!(parse("sweep net --checkpoint-every 5").is_err(), "needs --checkpoint");
        assert!(parse("sweep net --checkpoint c --checkpoint-every 0").is_err());
        assert!(parse("sweep net --arrays").is_err(), "list needs a value");
        assert!(parse("sweep net --arrays 8,x").is_err(), "list must be integers");
        assert!(parse("sweep net --buffers-kib 64,0").is_err(), "positive values only");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("").is_err());
        assert!(parse("explode net").is_err());
        assert!(parse("simulate net --arch sideways").is_err());
        assert!(parse("simulate net --array").is_err());
        assert!(parse("simulate net --array twelve").is_err());
        assert!(parse("simulate net --frobnicate 3").is_err());
        assert!(parse("simulate net extra").is_err());
        assert!(parse("simulate net --batch 0").is_err());
        assert!(parse("simulate net --cores 0").is_err());
    }

    #[test]
    fn config_surfaces_invalid_overrides() {
        let inv = parse("simulate net --array 1000").unwrap();
        assert!(inv.config().is_err());
    }

    #[test]
    fn buffer_sizes_must_fit_in_bytes() {
        // 2^54 + 128 KiB once wrapped to a 128 KiB buffer in release
        // builds and overflowed `config` in debug ones.
        let huge = (usize::MAX / 1024 + 1 + 128).to_string();
        assert!(parse(&format!("simulate net --buffer {huge}")).is_err());
        assert!(parse(&format!("sweep net --buffers-kib 64,{huge}")).is_err());
        let max = (usize::MAX / 1024).to_string();
        assert!(parse(&format!("simulate net --buffer {max}")).unwrap().config().is_ok());
    }

    /// Valid invocations covering every flag, the seeds of
    /// [`every_mutation_of_a_valid_invocation_parses_or_is_refused_typed`].
    const SEEDS: [&str; 6] = [
        "simulate squeezenet-v1.0 --arch ws --array 16 --rf 8 --buffer 64 --batch 4 --cores 1 \
         --jobs 2 --trace t.json --metrics m.json",
        "simulate squeezenet-v1.1 --arch os --cores 2 --batch 1",
        "sweep tiny-darknet --frontier --chunk 8 --prune --arrays 8,16 --rfs 8 --buffers-kib 64,128 \
         --checkpoint ck --checkpoint-every 16 --resume --cache-load a.snap --cache-save b.snap",
        "serve --port 0 --jobs 2 --deadline-ms 500 --max-line-bytes 4096 --max-connections 4 \
         --autosave-every 2 --cache-save s.snap",
        "wave alexnet conv1 --array 8 --trace w.json",
        "compile tiny-darknet --arch os --rf 8 --metrics m.json",
    ];

    #[test]
    fn every_mutation_of_a_valid_invocation_parses_or_is_refused_typed() {
        // The fixed-seed mutation pattern of the snapshot and checkpoint
        // decoders, over argument lists: every dropped, duplicated and
        // swapped token, every truncation, every value replaced by a
        // huge, negative or non-numeric one, and random compositions of
        // those. Each ends in an invocation whose hardware builds or is
        // refused, or in a `ParseArgsError`; never a panic.
        let values = [
            "18446744073709551615",
            "18446744073709551616",
            "18014398509482112",
            "4294967296",
            "65536",
            "-1",
            "0",
            "1.5",
            "1e3",
            "+5",
            "0x10",
            "twelve",
            "",
            "8,",
            ",8",
            "8,,16",
            "8,-1",
            "--array",
        ];
        let mut cases: Vec<Vec<String>> = Vec::new();
        for seed in SEEDS {
            let tokens: Vec<String> = seed.split_whitespace().map(str::to_owned).collect();
            let inv = parse_args(tokens.clone()).unwrap_or_else(|e| panic!("{seed}: {e}"));
            assert!(inv.config().is_ok(), "seed hardware must build: {seed}");
            for i in 0..tokens.len() {
                let mut dropped = tokens.clone();
                dropped.remove(i);
                cases.push(dropped);
                let mut doubled = tokens.clone();
                doubled.insert(i, tokens[i].clone());
                cases.push(doubled);
                if i + 1 < tokens.len() {
                    let mut swapped = tokens.clone();
                    swapped.swap(i, i + 1);
                    cases.push(swapped);
                }
                cases.push(tokens[..i].to_vec());
                for value in values {
                    let mut replaced = tokens.clone();
                    replaced[i] = value.to_owned();
                    cases.push(replaced);
                }
            }
        }
        let mut rng = XorShift(0xa5a5_0123_4567_89ab);
        for _ in 0..2_000 {
            let mut tokens: Vec<String> =
                SEEDS[rng.below(SEEDS.len())].split_whitespace().map(str::to_owned).collect();
            for _ in 0..1 + rng.below(3) {
                let (at, other) = (rng.below(tokens.len()), rng.below(tokens.len()));
                match rng.below(4) {
                    0 => {
                        tokens.remove(at);
                    }
                    1 => tokens.insert(at, tokens[other].clone()),
                    2 => tokens.swap(at, other),
                    _ => tokens[at] = values[rng.below(values.len())].to_owned(),
                }
                if tokens.is_empty() {
                    break;
                }
            }
            cases.push(tokens);
        }
        assert_eq!(cases.len(), 3_732, "every seed token mutated");
        let mut refused = 0;
        let mut batch_on_cores = 0;
        for tokens in &cases {
            match catch_unwind(|| parse_args(tokens.clone()).map(|inv| inv.config())) {
                Ok(Ok(Ok(_))) => {}
                Ok(Ok(Err(_))) => refused += 1,
                Ok(Err(e)) => {
                    refused += 1;
                    batch_on_cores += usize::from(e.to_string().starts_with("--batch and --cores"));
                }
                Err(_) => panic!("parsing panicked on {tokens:?}"),
            }
        }
        assert!(refused > cases.len() / 2, "only {refused} of {} were refused", cases.len());
        assert!(batch_on_cores > 0, "no mutation combined a batch with several cores");
    }
}
