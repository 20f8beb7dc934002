//! perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <paper_all|harm_stream|serve_zipf|serve_churn>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload builds its inputs from `--seed`, then repeats a round of
//! fixed work until `--seconds` have passed. It reports the median set-up
//! and the fastest round. Every output is checked. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, holding the end-to-end
//! metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md`.

mod check;
mod harm;
mod paper;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, in the order `BENCHMARK.json` lists them. Every
/// workload reports every one of them.
const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB"), ("ok_ratio", "ratio")];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. A workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    // paper_all: substrate generation (set-up)
    ("history.generate_s", "s"),
    ("webcorpus.generate_corpus_s", "s"),
    ("repocorpus.generate_repos_s", "s"),
    // paper_all: repository detection and dating
    ("repocorpus.find_psl_files_us_per_call", "us"),
    ("repocorpus.files_scanned", "count"),
    ("history.date_dat_us_per_call", "us"),
    ("history.date_exact_ratio", "ratio"),
    ("repocorpus.classify_us_per_call", "us"),
    ("history.dating_index_build_s", "s"),
    // paper_all: experiments
    ("analysis.table1_s", "s"),
    ("analysis.fig3_s", "s"),
    ("analysis.fig4_s", "s"),
    ("analysis.table2_s", "s"),
    ("analysis.table3_s", "s"),
    ("analysis.update_failure_s", "s"),
    ("analysis.sweep_incremental_s", "s"),
    ("analysis.other_experiments_s", "s"),
    // harm_stream
    ("webcorpus.build_stream_s", "s"),
    ("history.compiled_versions_s", "s"),
    ("analysis.sweep_stream_s", "s"),
    ("analysis.sweep_stream_requests", "count"),
    ("analysis.sweep_stream_version_blocks", "count"),
    ("analysis.sweep_stream_peak_rss_mib", "MiB"),
    ("analysis.run_fleet_s", "s"),
    ("browser.session_executions", "count"),
    ("analysis.fleet_peak_rss_mib", "MiB"),
    // serve_zipf / serve_churn: server-side counters read from STATS
    ("service.cache_hit_ratio", "ratio"),
    ("service.lookups", "count"),
    ("service.errors", "count"),
    ("service.snapshot_epoch", "count"),
    ("service.command_p50_us", "us"),
    ("service.command_p99_us", "us"),
    // serve_*: in-process replay of the same hosts and commands
    ("service.distinct_keys", "count"),
    ("core.intern_ns", "ns"),
    ("core.match_ns", "ns"),
    ("service.engine_ns", "ns"),
    ("service.reload_ms", "ms"),
    ("service.wire_ns", "ns"),
    // serve_*: the load generator's view
    ("serve.spawn_s", "s"),
    ("loadgen.connect_s", "s"),
    ("serve.warmup_s", "s"),
    ("serve.lookups_per_s", "1/s"),
    ("serve.batch_p50_us", "us"),
    ("serve.batch_p99_us", "us"),
    ("serve.reload_p50_ms", "ms"),
    ("serve.server_cpu_s", "s"),
    ("serve.generator_cpu_s", "s"),
    // every workload: the trace itself
    ("trace.traced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("self.analysis_s", "s"),
    ("self.history_s", "s"),
    ("self.webcorpus_s", "s"),
    ("self.repocorpus_s", "s"),
    ("self.core_s", "s"),
    ("self.service_s", "s"),
    ("self.loadgen_s", "s"),
];

/// `--seconds` when none is given: `run_seconds` in `BENCHMARK.json`, the
/// length the bounds there were measured at.
const DEFAULT_SECONDS: f64 = 30.0;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// Named values; the printer picks the end-to-end or per-layer set.
    pub values: BTreeMap<&'static str, f64>,
    /// Thread counts the run used, for the environment record.
    pub threads: Vec<(&'static str, usize)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one checked operation.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Fixed-work rounds repeated until a deadline.
pub struct Rounds {
    /// Wall seconds of each round.
    pub times: Vec<f64>,
}

impl Rounds {
    /// Run rounds of fixed work for `budget`: untraced ones only, or, with
    /// `trace`, untraced and traced rounds in turn, so both halves see the
    /// same host. `round(traced)` runs one round, including any set-up it
    /// repeats, and returns the seconds of its timed part. Each kind runs
    /// at least `min` times; after that a round starts only if one of the
    /// median length still fits in the budget. Returns (untraced, traced).
    pub fn run(
        budget: Duration,
        min: usize,
        trace: bool,
        mut round: impl FnMut(bool) -> f64,
    ) -> (Rounds, Rounds) {
        let start = Instant::now();
        let (mut untraced, mut traced, mut walls) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let t = Instant::now();
            untraced.push(round(false));
            if trace {
                traced.push(round(true));
            }
            walls.push(t.elapsed().as_secs_f64());
            let done = untraced.len() >= min;
            let next = psl_stats::median(&walls).expect("a round ran");
            if done && start.elapsed().as_secs_f64() + next > budget.as_secs_f64() {
                return (Rounds { times: untraced }, Rounds { times: traced });
            }
        }
    }

    /// Mean round: the timed phase's wall time over its rounds.
    pub fn mean(&self) -> f64 {
        self.times.iter().sum::<f64>() / self.times.len().max(1) as f64
    }

    /// The fastest round, which every workload reports as `run_s`.
    /// Contention from outside only ever adds time to a round, and it comes
    /// in phases of seconds, longer than a round. So the mean of the rounds
    /// moves with the share of slow phases in a run, while the fastest of
    /// them is the cost of the work itself.
    pub fn fastest(&self) -> f64 {
        self.times.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// One line describing the rounds: count, quartiles and spread.
    pub fn describe(&self) -> String {
        let [q1, q2, q3] = stats::quartiles(&self.times).unwrap_or([self.mean(); 3]);
        format!(
            "{} rounds, mean {:.4} s, fastest {:.4} s, quartiles {q1:.4} / {q2:.4} / {q3:.4} s \
             (spread {:.1}%): {:.3?}",
            self.times.len(),
            self.mean(),
            self.fastest(),
            100.0 * stats::spread(&self.times).unwrap_or(0.0),
            self.times
        )
    }
}

/// Time `f`, returning its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn own_peak_rss_mib() -> Option<f64> {
    psl_stats::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

/// Peak resident set (`VmHWM`) of child process `pid`, in MiB.
pub fn child_peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system) process `pid` (`"self"` for this one) has
/// used so far, in seconds.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime and stime are fields 14 and 15.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // Linux reports them in USER_HZ ticks, 100 per second on every
    // architecture it exposes to user space.
    Some((utime + stime) / 100.0)
}

/// Pin this thread, and so every thread and process it starts, to the
/// highest CPU it may run on; returns that CPU. Every workload then runs
/// on one core: the serving workloads' server and generator take turns on
/// it, and library code that sizes its thread pool from
/// `available_parallelism` (the fleet's per-version views) runs one
/// thread. The other cores stay free for the kernel and the rest of the
/// host, and the choice of core is the same in every run.
fn pin_to_last_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes into `mask`, which is
    // a live array of that size, and only reads it back.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let (word, bits) =
        mask.iter().enumerate().rev().find(|(_, &b)| b != 0).ok_or("empty CPU affinity mask")?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    mask = [0; 16];
    mask[word] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, mask.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a over `bytes`: the digest the report checks compare.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Coverage outside this range means the traced decomposition no longer
/// accounts for the untraced round, so the traced run counts as failed.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.9..=1.1;

/// Add the trace-derived metrics every workload reports. `untraced` and
/// `traced` are the rounds of one traced run, which take turns, so round
/// `i` of each ran back to back on the same host; `rounds` holds the spans
/// of each traced round; `replay` the spans of a one-round replay through
/// in-process layers, where the traced rounds cannot see inside (empty for
/// in-process workloads). Coverage is the median, over these pairs, of the
/// traced round's top-level spans over the untraced round, and the
/// overhead the median of their difference: a pair sees one host phase,
/// while the fastest rounds of the two kinds may come from different ones.
/// Self time per layer is per round (median over the traced rounds, plus
/// the replay). A coverage outside [`COVERAGE`] is one failed operation.
pub fn trace_summary(
    out: &mut Outcome,
    untraced: &Rounds,
    traced: &Rounds,
    rounds: &[Vec<trace::Span>],
    replay: &[trace::Span],
) {
    let pairs = || untraced.times.iter().zip(&traced.times).zip(rounds);
    let ratios: Vec<f64> = pairs().map(|((u, _), r)| trace::top_level_s(r) / u).collect();
    let overheads: Vec<f64> = pairs().map(|((u, t), _)| t - u).collect();
    let coverage = psl_stats::median(&ratios).unwrap_or(0.0);
    let overhead_s = psl_stats::median(&overheads).unwrap_or(0.0);
    out.set("trace.traced_run_s", traced.fastest());
    out.set("trace.overhead_s", overhead_s);
    out.set("trace.coverage", coverage);
    out.tally(COVERAGE.contains(&coverage));
    let per_round: Vec<BTreeMap<&str, f64>> =
        rounds.iter().map(|r| trace::self_by_layer(r)).collect();
    let replayed = trace::self_by_layer(replay);
    for &(name, _) in PER_LAYER {
        let Some(layer) = name.strip_prefix("self.").and_then(|r| r.strip_suffix("_s")) else {
            continue;
        };
        let xs: Vec<f64> = per_round.iter().map(|m| m.get(layer).copied().unwrap_or(0.0)).collect();
        let s = psl_stats::median(&xs).unwrap_or(0.0) + replayed.get(layer).copied().unwrap_or(0.0);
        out.set(name, s);
    }
    out.note(format!(
        "trace: top-level spans cover {:.1}% of the untraced round, tracing overhead {:+.4} s \
         per round (medians over {} pairs of rounds)",
        100.0 * coverage,
        overhead_s,
        ratios.len()
    ));
}

/// Write the traced run's spans under the build directory of the checkout.
pub fn write_spans(tracer: &trace::Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let path =
        std::path::PathBuf::from(format!(".bench_build/perfbench/spans-{workload}-{seed}.jsonl"));
    tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: DEFAULT_SECONDS, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    if let Some(code) = serve::child_main() {
        std::process::exit(code);
    }
    let nproc = nproc();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_all|harm_stream|serve_zipf|serve_churn> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let result = pin_to_last_cpu().and_then(|cpu| {
        let mut out = match args.workload.as_str() {
            "paper_all" => paper::run(&args),
            "harm_stream" => harm::run(&args),
            "serve_zipf" => serve::run(&args, serve::Mix::Zipf, nproc),
            "serve_churn" => serve::run(&args, serve::Mix::Churn, nproc),
            other => Err(format!("unknown workload {other:?}")),
        }?;
        out.threads.push(("pinned_cpu", cpu));
        Ok(out)
    });
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Err(e) = report(&args, nproc, &mut out) {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
}

/// Print the environment, the notes, every metric by name and unit, and
/// finally the one-line JSON result.
fn report(args: &Args, nproc: usize, out: &mut Outcome) -> Result<(), String> {
    if out.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    out.set("ok_ratio", (out.attempted - out.failed) as f64 / out.attempted as f64);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let threads: Vec<String> = out.threads.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!(
        "env: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"kernel\":\"{}\",\"rustc\":\"{}\",\"threads\":{{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        kernel.trim(),
        env!("PERFBENCH_RUSTC"),
        threads.join(",")
    );
    for line in &out.notes {
        println!("{line}");
    }
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in set {
        let value = match out.values.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("{name:<40} {value:>16.6} {unit}");
        // `{:?}` prints every digit of the f64, in a form JSON accepts.
        metrics.push(format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"));
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    Ok(())
}
