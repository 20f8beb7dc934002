//! `paper_all`: the paper run, `run_all` over freshly generated substrates.
//!
//! The untraced run calls `build_substrates` and `run_all`, the two public
//! entry points `pslharm all` uses. The traced run makes the same calls
//! one layer down — each experiment of `run_all` in its own span, and one
//! extra pass of the repository detector with spans around its steps — and
//! checks that the decomposed report is byte-identical to `run_all`'s.

use crate::trace::{self, Tracer};
use crate::{digest, timed, Args, Outcome, Rounds};
use psl_analysis::{
    browser_replay, category_shift, cert_harm, cookie_harm, dbound_exp, fig2, fig3, fig4, figs567,
    sweep_incremental, table1, table2, table3, update_failure, FullReport, PipelineConfig,
    Substrates,
};
use psl_history::{DatingIndex, MatchQuality};
use std::time::Duration;

/// Per-layer metrics read from the traced rounds: metric, span.
const TIMED_CALLS: [(&str, &str); 8] = [
    ("analysis.table1_s", "analysis.table1"),
    ("analysis.fig3_s", "analysis.fig3"),
    ("analysis.fig4_s", "analysis.fig4"),
    ("analysis.table2_s", "analysis.table2"),
    ("analysis.table3_s", "analysis.table3"),
    ("analysis.update_failure_s", "analysis.update_failure"),
    ("analysis.sweep_incremental_s", "analysis.sweep_incremental"),
    ("history.dating_index_build_s", "history.dating_index_build"),
];

/// Repositories in the corpus (the paper's 273).
const PAPER_REPOS: usize = 273;

fn config(seed: u64) -> PipelineConfig {
    // The laptop-scale pipeline of `pslharm all`: the paper's 273
    // repositories over a 120-version history. One worker thread.
    let mut config = PipelineConfig::small(seed);
    config.sweep.threads = 1;
    config
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = config(args.seed);
    let mut out = Outcome::default();
    out.threads.push(("sweep", config.sweep.threads));
    let tracer = Tracer::new(args.trace, format!("paper_all-{}", args.seed));

    // Timed phase: `run_all` rounds, each over freshly generated
    // substrates, so set-up is sampled across the whole run. The traced run
    // alternates untraced and traced rounds.
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setup = Vec::new();
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut last = None;
    let mut expected_digest = None;
    let mut rounds = Vec::new();
    let (untraced, traced) = Rounds::run(budget, 3, args.trace, |traced| {
        last = None;
        let (subs, secs) = if traced {
            timed(|| substrates_traced(&config, &tracer, &mut parts))
        } else {
            timed(|| psl_analysis::build_substrates(&config))
        };
        setup.push(secs);
        let mark = tracer.mark();
        let (report, secs) = timed(|| {
            if traced {
                run_all_traced(&subs, &config, &tracer)
            } else {
                psl_analysis::run_all(&subs, &config)
            }
        });
        let json = report.to_json();
        let d = digest(json.as_bytes());
        let stable = *expected_digest.get_or_insert(d) == d;
        out.tally(stable && invariants_hold(&report, &subs, &json));
        if traced {
            rounds.push(tracer.since(mark));
        }
        last = Some(subs);
        secs
    });
    let subs = last.expect("a round ran");
    out.set("setup_s", psl_stats::median(&setup).expect("a round ran"));
    for (name, xs) in
        ["history.generate_s", "webcorpus.generate_corpus_s", "repocorpus.generate_repos_s"]
            .into_iter()
            .zip(&parts)
    {
        if let Some(m) = psl_stats::median(xs) {
            out.set(name, m);
        }
    }
    out.set("run_s", untraced.fastest());

    if args.trace {
        let per_round = |f: &dyn Fn(&[trace::Span]) -> f64| {
            psl_stats::median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let mut named = 0.0;
        for (metric, span) in TIMED_CALLS {
            let secs = per_round(&|r| trace::total(r, span).1);
            named += secs;
            out.set(metric, secs);
        }
        let covered = per_round(&|r| trace::top_level_s(r));
        out.set("analysis.other_experiments_s", covered - named);
        detector_pass(&subs, &config, &tracer, &mut out);
        crate::trace_summary(&mut out, &untraced, &traced, &rounds, &[]);
        crate::write_spans(&tracer, &args.workload, args.seed)?;
    }

    out.set("peak_rss_mib", crate::own_peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?);
    out.note(format!(
        "paper_all: {} versions, {} repos, {} requests; {} rounds, digest {:016x}",
        subs.history.version_count(),
        subs.repos.len(),
        subs.corpus.request_count(),
        untraced.times.len(),
        expected_digest.unwrap_or(0)
    ));
    out.note(format!("paper_all: untraced {}", untraced.describe()));
    Ok(out)
}

/// `build_substrates`, one generator per span.
fn substrates_traced(
    config: &PipelineConfig,
    tracer: &Tracer,
    parts: &mut [Vec<f64>; 3],
) -> Substrates {
    let (history, h) =
        timed(|| tracer.span("history.generate", || psl_history::generate(&config.history)));
    let (corpus, c) = timed(|| {
        tracer.span("webcorpus.generate_corpus", || {
            psl_webcorpus::generate_corpus(&history, &config.corpus)
        })
    });
    let (repos, r) = timed(|| {
        tracer.span("repocorpus.generate_repos", || {
            psl_repocorpus::generate_repos(&history, &config.repos)
        })
    });
    for (xs, secs) in parts.iter_mut().zip([h, c, r]) {
        xs.push(secs);
    }
    Substrates { history, corpus, repos, iana: psl_iana::RootZoneDb::embedded() }
}

/// `run_all`, one experiment per span, in `run_all`'s order and with its
/// arguments.
fn run_all_traced(subs: &Substrates, config: &PipelineConfig, t: &Tracer) -> FullReport {
    let index = t.span("history.dating_index_build", || DatingIndex::build(&subs.history));
    let reference = t.span("history.latest_snapshot", || subs.history.latest_snapshot());
    let stats = t.span("analysis.sweep_incremental", || {
        sweep_incremental(&subs.history, &subs.corpus, &config.sweep)
    });
    let d = &config.detector;
    let opts = config.sweep.opts;
    FullReport {
        fig2: t.span("analysis.fig2", || fig2::run(&subs.history, &subs.iana)),
        table1: t.span("analysis.table1", || table1::run(&subs.repos, &reference, &index, d)),
        fig3: t.span("analysis.fig3", || fig3::run(&subs.repos, &reference, &index, d)),
        fig4: t.span("analysis.fig4", || fig4::run(&subs.repos, &reference, &index, d)),
        figs567: t.span("analysis.figs567", || figs567::package(&stats, &subs.corpus)),
        table2: t.span("analysis.table2", || {
            table2::run(&subs.history, &subs.corpus, &subs.repos, &index, d, config.table2_top)
        }),
        table3: t.span("analysis.table3", || {
            table3::run(&subs.history, &subs.corpus, &subs.repos, &index, d)
        }),
        cookie_harm: t
            .span("analysis.cookie_harm", || cookie_harm::run(&subs.history, &subs.corpus, opts)),
        dbound: t
            .span("analysis.dbound", || dbound_exp::run(&subs.history, &subs.corpus, &stats, opts)),
        cert_harm: t
            .span("analysis.cert_harm", || cert_harm::run(&subs.history, &subs.corpus, opts)),
        update_failure: t.span("analysis.update_failure", || {
            update_failure::run(
                &subs.history,
                &subs.corpus,
                &subs.repos,
                &index,
                d,
                &update_failure::FallbackModel::default(),
                opts,
            )
        }),
        browser_replay: t.span("analysis.browser_replay", || {
            browser_replay::run(&subs.history, &subs.corpus, 16, 120, opts)
        }),
        category_shift: t.span("analysis.category_shift", || {
            category_shift::run(&subs.history, &subs.corpus, &subs.iana, 20, opts)
        }),
    }
}

/// One pass of `psl_repocorpus::detect` over every repository, its steps
/// (`find_psl_files`, `date_dat`, `classify`) each in a span.
fn detector_pass(subs: &Substrates, config: &PipelineConfig, t: &Tracer, out: &mut Outcome) {
    let index = DatingIndex::build(&subs.history);
    let reference = subs.history.latest_snapshot();
    let mark = t.mark();
    let (mut files, mut dated, mut exact) = (0usize, 0usize, 0usize);
    t.span("repocorpus.detect_pass", || {
        for repo in &subs.repos.repos {
            files += repo.files.len();
            let found = t.span("repocorpus.find_psl_files", || {
                psl_repocorpus::find_psl_files(repo, &reference, &config.detector)
            });
            let Some(primary) = found.iter().max_by_key(|f| f.rule_count) else {
                continue;
            };
            let copy = t.span("history.date_dat", || index.date_dat(&primary.file.content));
            dated += 1;
            exact += usize::from(matches!(copy, Some(c) if c.quality == MatchQuality::Exact));
            t.span("repocorpus.classify", || psl_repocorpus::classify(repo, &found));
        }
    });
    let spans = t.since(mark);
    let per_call_us = |name| {
        let (n, secs) = trace::total(&spans, name);
        secs * 1e6 / n.max(1) as f64
    };
    out.set("repocorpus.find_psl_files_us_per_call", per_call_us("repocorpus.find_psl_files"));
    out.set("history.date_dat_us_per_call", per_call_us("history.date_dat"));
    out.set("repocorpus.classify_us_per_call", per_call_us("repocorpus.classify"));
    out.set("repocorpus.files_scanned", files as f64);
    out.set("history.date_exact_ratio", exact as f64 / dated.max(1) as f64);
}

/// The structural invariants `full_pipeline_produces_every_artifact`
/// asserts of every report.
fn invariants_hold(r: &FullReport, subs: &Substrates, json: &str) -> bool {
    !r.fig2.series.is_empty()
        && r.table1.classified == PAPER_REPOS
        && r.fig3.median_of("all").is_some()
        && r.fig4.points.len() == 68
        && r.figs567.rows.len() == subs.history.version_count()
        && !r.table2.rows.is_empty()
        && r.table3.rows.len() == 68
        && r.cookie_harm.rows.last().is_some_and(|x| x.accepted == 0)
        && r.dbound.dbound_misgrouped == 0
        && r.cert_harm.rows.last().is_some_and(|x| x.misissued == 0)
        && !r.update_failure.rows.is_empty()
        && r.browser_replay.rows.last().is_some_and(|x| x.divergent_decisions == 0)
        && r.category_shift.rows.last().is_some_and(|x| x.total == 0)
        && json.contains("myshopify.com")
        && json.contains("bitwarden/server")
}
