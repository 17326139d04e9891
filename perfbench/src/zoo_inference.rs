//! `zoo-inference`: each op is one functional pass over the six table
//! networks at `jobs` workers. Weights (range 8, 40% zeros) and inputs
//! are seeded as `FunctionalBench` makes them; each final output's
//! digest is checked against `run_network_reference` on the same
//! inputs, computed once per seed and cached in the work directory.

use std::fs;
use std::time::Instant;

use codesign_dnn::{zoo, Network};
use codesign_tensor::{run_network_reference, run_network_with, Tensor, WeightStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Spans;
use crate::stats::median;
use crate::{fnv1a, peak_rss_mb, Env, Outcome};

const SETUP_REPS: usize = 3;

/// One network with its seeded weights and input.
pub struct Case {
    pub net: Network,
    pub weights: WeightStore,
    pub image: Tensor,
}

/// The table networks with weights and inputs drawn from `seed`.
pub fn cases(seed: u64) -> Vec<Case> {
    zoo::table_networks()
        .into_iter()
        .enumerate()
        .map(|(i, net)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(i as u64));
            let weights = WeightStore::random(&net, 8, 0.4, &mut rng);
            let image = Tensor::random(net.input(), 64, &mut rng);
            Case { net, weights, image }
        })
        .collect()
}

fn digest(t: &Tensor) -> u64 {
    let s = t.shape();
    fnv1a(
        [s.channels, s.height, s.width]
            .map(|d| d as u32)
            .into_iter()
            .chain(t.as_slice().iter().map(|&v| v as u32)),
    )
}

/// Reference digests for `seed`, from the naive operators, one thread
/// per case group.
fn reference(env: &Env, cases: &[Case]) -> Result<Vec<u64>, String> {
    let path = env.work.join(format!("zoo-{}.ref", env.seed));
    if let Ok(text) = fs::read_to_string(&path) {
        let cached: Vec<u64> = text.lines().filter_map(|l| l.parse().ok()).collect();
        if cached.len() == cases.len() {
            return Ok(cached);
        }
    }
    let started = Instant::now();
    let mut digests = vec![0u64; cases.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..env.jobs)
            .map(|w| {
                s.spawn(move || {
                    cases
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(env.jobs)
                        .map(|(i, c)| {
                            run_network_reference(&c.net, &c.image, &c.weights)
                                .map(|acts| (i, digest(acts.final_output())))
                                .map_err(|e| e.to_string())
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        for h in handles {
            for (i, d) in h.join().map_err(|_| "reference thread panicked".to_owned())?? {
                digests[i] = d;
            }
        }
        Ok::<(), String>(())
    })?;
    eprintln!("computed zoo reference digests in {:.1} s", started.elapsed().as_secs_f64());
    let text: String = digests.iter().map(|d| format!("{d}\n")).collect();
    fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(digests)
}

/// One op: every case through the GEMM executor. Returns the summed run
/// time in milliseconds and the output digests; digests are taken
/// between networks, outside the timed calls.
fn pass(env: &Env, cases: &[Case], spans: &Spans, op: u64) -> Result<(f64, Vec<u64>), String> {
    let root = spans.open("zoo.pass", op, None);
    let mut ms = 0.0;
    let mut digests = Vec::with_capacity(cases.len());
    for c in cases {
        let t = Instant::now();
        let acts = spans
            .time("tensor.run_network", op, root, |_| {
                run_network_with(&c.net, &c.image, &c.weights, env.jobs)
            })
            .map_err(|e| format!("{}: {e}", c.net.name()))?;
        ms += t.elapsed().as_secs_f64() * 1e3;
        digests.push(digest(acts.final_output()));
    }
    spans.close(root);
    Ok((ms, digests))
}

pub fn run(env: &Env, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut built = Vec::new();
    for _ in 0..SETUP_REPS {
        // Free the previous copy first: AlexNet's weights alone are ~250 MB.
        built.clear();
        let t = Instant::now();
        built = cases(env.seed);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let cases = built;
    let macs: u64 = cases.iter().map(|c| c.net.total_macs()).sum();

    let (traced, untraced) = (Spans::new(trace), Spans::new(false));
    let (mut traced_ms, mut outputs) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < env.seconds {
        let op = out.attempted;
        let with_spans = trace && op % 2 == 1;
        let (ms, digests) = pass(env, &cases, if with_spans { &traced } else { &untraced }, op)?;
        out.attempted += 1;
        outputs.push(digests);
        if with_spans {
            traced_ms.push(ms);
        } else {
            out.op_ms.push(ms);
        }
    }
    // Read before the reference pass, which would otherwise set the peak.
    out.peak_rss_mb = peak_rss_mb(None);
    let want = reference(env, &cases)?;
    out.failed = outputs.iter().filter(|d| **d != want).count() as u64;
    let busy_s: f64 = out.op_ms.iter().chain(&traced_ms).sum::<f64>() / 1e3;
    out.ops_per_s = out.attempted as f64 / busy_s;
    out.note("gmac_per_s", "GMAC/s", vec![macs as f64 / median(&out.op_ms) / 1e6]);

    if trace {
        out.layer("trace.overhead_ms", median(&traced_ms) - median(&out.op_ms));
        traced.dump(&env.work.join(format!("spans-zoo-inference-{}.jsonl", env.seed)))?;
    }
    Ok(out)
}
