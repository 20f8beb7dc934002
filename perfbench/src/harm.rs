//! `harm_stream`: the streaming Figures 5–7 sweep, then the browser fleet
//! that executes the harms, over one history and one streamed corpus.
//!
//! A round is `sweep_stream` followed by `run_fleet`, both with one worker
//! thread and a fixed shard count. No repository detection runs here, so a
//! change to the detector leaves this workload flat, while a change to the
//! compiled matcher, the request stream or the session engine moves it.

use crate::trace::{self, Tracer};
use crate::{digest, timed, Args, Outcome, Rounds};
use psl_analysis::{FleetConfig, FleetOutcome, SiteCounter, StreamSweepConfig, StreamSweepOutcome};
use psl_history::{GeneratorConfig, History};
use psl_webcorpus::CorpusConfig;
use std::time::Duration;

/// Requests the sweep streams per version block.
const REQUESTS: u64 = 400_000;
/// Sessions the fleet executes per sampled version.
const SESSIONS: u64 = 20_000;
/// Shards each phase splits its work into (fixed, so the work is too).
const SHARDS: usize = 4;

fn inputs(seed: u64) -> (GeneratorConfig, CorpusConfig) {
    let history = GeneratorConfig::small(seed);
    let corpus = CorpusConfig::small(seed.wrapping_add(1)).with_target_requests(REQUESTS);
    (history, corpus)
}

fn sweep_config() -> StreamSweepConfig {
    StreamSweepConfig {
        threads: 1,
        shards: SHARDS,
        counter: SiteCounter::Exact,
        ..Default::default()
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        sessions: SESSIONS,
        threads: 1,
        shards: SHARDS,
        counter: SiteCounter::Exact,
        ..Default::default()
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (history_cfg, corpus_cfg) = inputs(args.seed);
    let mut out = Outcome::default();
    out.threads.push(("sweep", 1));
    out.threads.push(("fleet", 1));
    let tracer = Tracer::new(args.trace, format!("harm_stream-{}", args.seed));

    // Timed phase: each round sets up afresh (so set-up is sampled across
    // the whole run), then sweeps and runs the fleet. The traced run
    // alternates untraced and traced rounds.
    let budget = Duration::from_secs_f64(args.seconds);
    let off = Tracer::new(false, String::new());
    let (mut setup, mut gen, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut expected_digest = None;
    let mut rounds = Vec::new();
    let mut shape = (0u64, 0usize, 0u64);
    let (untraced, traced) = Rounds::run(budget, 3, args.trace, |traced| {
        let t = if traced { &tracer } else { &off };
        last = None;
        let ((history, stream), secs) = timed(|| {
            let (history, g) =
                timed(|| t.span("history.generate", || psl_history::generate(&history_cfg)));
            let (stream, b) = timed(|| {
                t.span("webcorpus.build_stream", || {
                    psl_webcorpus::build_stream(&history, &corpus_cfg)
                })
            });
            if traced {
                gen.push(g);
                build.push(b);
            }
            (history, stream)
        });
        setup.push(secs);
        let mark = t.mark();
        let (sweep, s) = timed(|| {
            t.span("analysis.sweep_stream", || {
                psl_analysis::sweep_stream(&history, &stream, &sweep_config())
            })
        });
        let (fleet, f) = timed(|| {
            t.span("analysis.run_fleet", || {
                psl_analysis::run_fleet(&history, &stream, &fleet_config())
            })
        });
        if traced {
            rounds.push(t.since(mark));
        }
        shape = (
            sweep.total_requests,
            sweep.version_blocks,
            fleet.sessions * fleet.versions_sampled as u64,
        );
        let d = round_digest(&sweep, &fleet);
        let stable = *expected_digest.get_or_insert(d) == d;
        out.tally(stable && harmless_at_latest(&sweep, &fleet, &history));
        last = Some((history, stream));
        s + f
    });
    let (history, stream) = last.expect("a round ran");
    out.set("setup_s", psl_stats::median(&setup).expect("a round ran"));
    if args.trace {
        out.set("history.generate_s", psl_stats::median(&gen).expect("a traced round ran"));
        out.set("webcorpus.build_stream_s", psl_stats::median(&build).expect("a traced round ran"));
    }
    out.set("run_s", untraced.fastest());
    out.set("analysis.sweep_stream_requests", shape.0 as f64);
    out.set("analysis.sweep_stream_version_blocks", shape.1 as f64);
    out.set("browser.session_executions", shape.2 as f64);

    if args.trace {
        let per_round = |name| {
            let xs: Vec<f64> = rounds.iter().map(|r| trace::total(r, name).1).collect();
            psl_stats::median(&xs).unwrap_or(0.0)
        };
        out.set("analysis.sweep_stream_s", per_round("analysis.sweep_stream"));
        out.set("analysis.run_fleet_s", per_round("analysis.run_fleet"));
        // Peak memory of each phase on its own, after the timed phase.
        psl_stats::reset_peak_rss();
        psl_analysis::sweep_stream(&history, &stream, &sweep_config());
        out.set("analysis.sweep_stream_peak_rss_mib", crate::own_peak_rss_mib().unwrap_or(0.0));
        psl_stats::reset_peak_rss();
        psl_analysis::run_fleet(&history, &stream, &fleet_config());
        out.set("analysis.fleet_peak_rss_mib", crate::own_peak_rss_mib().unwrap_or(0.0));
        // The per-version compile `sweep_stream` starts with, on its own.
        let compiled: Vec<f64> = (0..3)
            .map(|_| {
                timed(|| tracer.span("history.compiled_versions", || history.compiled_versions())).1
            })
            .collect();
        out.set("history.compiled_versions_s", psl_stats::median(&compiled).expect("ran"));
        crate::trace_summary(&mut out, &untraced, &traced, &rounds, &[]);
        crate::write_spans(&tracer, &args.workload, args.seed)?;
    }

    out.set("peak_rss_mib", crate::own_peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?);
    out.note(format!(
        "harm_stream: {} versions, {} hosts, {} requests streamed in {} block(s), {} session \
         executions; {} rounds, digest {:016x}",
        history.version_count(),
        stream.host_count(),
        shape.0,
        shape.1,
        shape.2,
        untraced.times.len(),
        expected_digest.unwrap_or(0)
    ));
    out.note(format!("harm_stream: untraced {}", untraced.describe()));
    Ok(out)
}

/// Digest of everything a round reports, so rounds can be compared.
fn round_digest(sweep: &StreamSweepOutcome, fleet: &FleetOutcome) -> u64 {
    let text = format!("{:?}\n{:?}\n{}", sweep.stats, fleet.rows, sweep.total_requests);
    digest(text.as_bytes())
}

/// The latest version moves no host against itself, and the fleet's
/// control row (the latest list paired with itself) executes no harm.
fn harmless_at_latest(sweep: &StreamSweepOutcome, fleet: &FleetOutcome, history: &History) -> bool {
    let sweep_ok = sweep.stats.len() == history.version_count()
        && sweep.stats.last().is_some_and(|s| s.hosts_in_different_site_vs_latest == 0);
    let fleet_ok = fleet.rows.last().is_some_and(|r| {
        r.age_days == 0
            && r.sessions > 0
            && r.cookie_set_flips
                + r.leaked_cookies
                + r.same_site_flips
                + r.wrong_autofill
                + r.merged_partitions
                + r.split_partitions
                == 0
            && r.distinct_victims == 0
    });
    sweep_ok && fleet_ok
}
