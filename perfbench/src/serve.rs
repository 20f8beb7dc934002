//! `serve_zipf` and `serve_churn`: a query server child and a closed-loop
//! generator replaying a fixed frame sequence over loopback.
//!
//! The server is this same executable started with `--serve-child`: a
//! paper-scale history behind `psl_service::Server` with one reactor
//! worker, built as `pslharm serve --paper-scale` builds it. The generator
//! is one thread holding a fixed window of frames in flight on each of two
//! connections. Every answer is checked against `psl-core` for the list
//! version in effect ([`crate::check`]).
//!
//! * `serve_zipf` replays the web corpus request stream as `BATCH` frames.
//!   Its hostnames collapse to fewer interned keys than the per-worker LRU
//!   holds, so after warm-up nearly every lookup is a cache hit.
//! * `serve_churn` sends hosts from `psl_conformance::probe_corpus`, several
//!   times more keys than the LRU holds, mixes in `ASOF` queries across the
//!   history, and `RELOAD`s to a stale date half way through a round and
//!   back to `latest` at its end.

use crate::check::{answer_ok, Timeline, Version};
use crate::trace::Tracer;
use crate::{stats, timed, Args, Outcome, Rounds};
use psl_core::{Date, DomainName, List, MatchOpts};
use psl_history::{GeneratorConfig, History};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server set-ups sampled before the timed phase, and again after it;
/// `setup_s` is the median of all of them. Sampling at both ends makes a
/// run's set-up reflect the host at both ends of its timed phase.
const SETUP_SAMPLES: usize = 3;

/// Hosts per `BATCH` frame.
const BATCH_HOSTS: usize = 64;
/// Frames in flight per connection.
const WINDOW: usize = 16;
/// Generator connections (all driven by one thread).
const CONNECTIONS: usize = 2;
/// Server reactor workers.
const SERVER_WORKERS: usize = 1;
/// Generator threads.
const GENERATOR_THREADS: usize = 1;
/// Hosts `serve_churn` draws from the probe corpus.
const CHURN_HOSTS: usize = 100_000;
/// `serve_churn`: one `ASOF` frame after this many `BATCH` frames.
const ASOF_EVERY: usize = 8;
/// `serve_churn`: `ASOF` commands per `ASOF` frame.
const ASOF_PER_FRAME: usize = 8;
/// `serve_churn`: distinct `ASOF` dates (fewer than the server's 32
/// materialised versions, so after warm-up they are all resident).
const ASOF_DATES: usize = 8;
/// `serve_churn`: passes over the probe hosts per round.
const CHURN_PASSES: usize = 3;
/// `serve_churn`: one `RELOAD` after this many `BATCH` frames, half a
/// round. A round serves its first half under the latest list, reloads the
/// stale one, serves the second half under it and reloads `latest`. A
/// reload compiles a whole list, and that work slows more than the read
/// path in the host's slow phases, so two reloads per round keep it to
/// about a tenth of the round.
const RELOAD_EVERY: usize = (CHURN_PASSES * CHURN_HOSTS).div_ceil(BATCH_HOSTS).div_ceil(2);
/// Expectation-table index of the latest version (the server starts on it).
const LATEST: Version = 0;
/// Expectation-table index of the stale version `serve_churn` reloads to.
const STALE: Version = 1;
/// Give up on a silent server after this long.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Zipf,
    Churn,
}

/// The server's history: `pslharm serve --paper-scale --seed <seed>`.
fn history_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig { seed, ..GeneratorConfig::default() }
}

/// `--serve-child <seed>`: run the server and never return to the
/// benchmark. `None` when this process is not a server child.
pub fn child_main() -> Option<i32> {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some("--serve-child") {
        return None;
    }
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok())?;
    let history = Arc::new(psl_history::generate(&history_config(seed)));
    let latest = history.latest_version();
    let engine = engine_for(&history, latest);
    let server = psl_service::Server::bind_with(
        engine,
        psl_service::ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() },
        psl_service::ReactorOptions { workers: Some(SERVER_WORKERS), ..Default::default() },
    );
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve child: bind: {e}");
            return Some(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening {addr}"),
        Err(e) => {
            eprintln!("serve child: {e}");
            return Some(1);
        }
    }
    std::io::stdout().flush().ok();
    // Stop when the parent's end of stdin closes. The watcher is never
    // joined: it blocks in `read` until then, and the process exits as soon
    // as the server returns.
    let stop = server.stop_handle();
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        stop.stop();
    });
    Some(match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve child: {e}");
            1
        }
    })
}

/// The engine `pslharm serve` builds: the latest snapshot, the history
/// behind it for `ASOF`/`RELOAD`, default cache sizes, one worker.
fn engine_for(history: &Arc<History>, latest: Date) -> Arc<psl_service::Engine> {
    let store = psl_service::owned_store(
        format!("history:{latest}"),
        Some(latest),
        history.latest_snapshot(),
    );
    psl_service::Engine::new(
        store,
        Some(Arc::clone(history)),
        psl_service::EngineConfig { workers: SERVER_WORKERS, ..Default::default() },
        psl_service::monotonic_clock(),
    )
}

/// One request frame and what its answers must be.
struct Frame {
    text: String,
    kind: FrameKind,
    /// The whole correct reply, per version for a `BATCH` frame, one for
    /// an `ASOF` frame, none for a `RELOAD`: most replies are checked with
    /// one comparison, so the generator stays cheap next to the server.
    replies: Vec<Vec<u8>>,
}

enum FrameKind {
    /// `BATCH n` + n hosts (indices into [`Workload::hosts`]).
    Batch(Vec<u32>),
    /// `ASOF` lines, each with its one acceptable answer.
    Asof(Vec<String>),
    /// `RELOAD` to a version.
    Reload(Version),
}

impl Frame {
    fn answers(&self) -> usize {
        match &self.kind {
            FrameKind::Batch(h) => h.len(),
            FrameKind::Asof(a) => a.len(),
            FrameKind::Reload(_) => 1,
        }
    }

    fn lookups(&self) -> usize {
        match &self.kind {
            FrameKind::Reload(_) => 0,
            _ => self.answers(),
        }
    }
}

/// Inputs and expectations for one serving workload.
struct Workload {
    history: Arc<History>,
    hosts: Vec<String>,
    /// `expected[v][h]`: the site of host `h` under version `v`.
    expected: Vec<Vec<String>>,
    /// `RELOAD` argument per version.
    reload_arg: Vec<String>,
    frames: Vec<Frame>,
}

impl Workload {
    fn build(mix: Mix, seed: u64) -> Workload {
        let history = Arc::new(psl_history::generate(&history_config(seed)));
        let opts = MatchOpts::default();
        let versions = history.versions().to_vec();
        let latest = history.latest_snapshot();
        let mut lists: Vec<List> = vec![latest];
        let mut reload_arg = vec!["latest".to_string()];
        let (hosts, sequence): (Vec<String>, Vec<u32>) = match mix {
            Mix::Zipf => {
                let cfg = psl_webcorpus::CorpusConfig {
                    seed: seed.wrapping_add(1),
                    ..Default::default()
                };
                let corpus = psl_webcorpus::generate_corpus(&history, &cfg);
                let hosts = corpus.hosts().iter().map(|h| h.as_str().to_string()).collect();
                (hosts, corpus.requests().iter().map(|r| r.request).collect())
            }
            Mix::Churn => {
                let stale = versions[versions.len() / 2];
                lists.push(history.snapshot_at(stale));
                reload_arg.push(stale.to_string());
                let mut hosts: Vec<String> =
                    psl_conformance::differential::probe_corpus(&history, seed, CHURN_HOSTS)
                        .into_iter()
                        .map(|d| d.as_str().to_string())
                        .collect();
                shuffle(&mut hosts, seed);
                let n = hosts.len() as u32;
                (hosts, (0..CHURN_PASSES).flat_map(|_| 0..n).collect())
            }
        };
        let expected: Vec<Vec<String>> =
            lists.iter().map(|list| hosts.iter().map(|h| site(list, h, opts)).collect()).collect();

        let mut frames = Vec::new();
        let asof_dates: Vec<Date> = (0..ASOF_DATES)
            .map(|i| versions[i * (versions.len() - 1) / (ASOF_DATES - 1)])
            .collect();
        let asof_lists: Vec<List> = asof_dates.iter().map(|&d| history.snapshot_at(d)).collect();
        let (mut asof_cursor, mut reload_to) = (0usize, STALE);
        for (i, chunk) in sequence.chunks(BATCH_HOSTS).enumerate() {
            let mut text = format!("BATCH {}\n", chunk.len());
            for &h in chunk {
                text.push_str(&hosts[h as usize]);
                text.push('\n');
            }
            frames.push(Frame {
                text,
                kind: FrameKind::Batch(chunk.to_vec()),
                replies: Vec::new(),
            });
            if mix == Mix::Churn && (i + 1) % ASOF_EVERY == 0 {
                let (mut text, mut answers) = (String::new(), Vec::new());
                for _ in 0..ASOF_PER_FRAME {
                    let d = asof_cursor % ASOF_DATES;
                    // A prime stride spreads the queries over the hosts.
                    let host = &hosts[(asof_cursor * 7919) % hosts.len()];
                    text.push_str(&format!("ASOF {} {host}\n", asof_dates[d]));
                    answers.push(format!(
                        "{} version={}",
                        site(&asof_lists[d], host, opts),
                        asof_dates[d]
                    ));
                    asof_cursor += 1;
                }
                frames.push(Frame { text, kind: FrameKind::Asof(answers), replies: Vec::new() });
            }
            if mix == Mix::Churn && (i + 1) % RELOAD_EVERY == 0 {
                frames.push(Frame {
                    text: format!("RELOAD {}\n", reload_arg[reload_to]),
                    kind: FrameKind::Reload(reload_to),
                    replies: Vec::new(),
                });
                reload_to = if reload_to == STALE { LATEST } else { STALE };
            }
        }
        // A round ends on the version it started on, so rounds repeat.
        if reload_to == LATEST {
            frames.push(Frame {
                text: "RELOAD latest\n".into(),
                kind: FrameKind::Reload(LATEST),
                replies: Vec::new(),
            });
        }
        for frame in &mut frames {
            let reply = |sites: &mut dyn Iterator<Item = &str>| {
                sites.flat_map(|site| ["OK ", site, "\n"]).collect::<String>().into_bytes()
            };
            frame.replies = match &frame.kind {
                FrameKind::Batch(hosts) => expected
                    .iter()
                    .map(|sites| reply(&mut hosts.iter().map(|&h| sites[h as usize].as_str())))
                    .collect(),
                FrameKind::Asof(answers) => vec![reply(&mut answers.iter().map(String::as_str))],
                FrameKind::Reload(_) => Vec::new(),
            };
        }
        Workload { history, hosts, expected, reload_arg, frames }
    }

    fn lookups(&self) -> usize {
        self.frames.iter().map(Frame::lookups).sum()
    }
}

fn site(list: &List, host: &str, opts: MatchOpts) -> String {
    let d = DomainName::parse(host).expect("generated hosts are valid names");
    list.site(&d, opts).as_str().to_string()
}

/// Deterministic Fisher–Yates with a SplitMix64 stream.
fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..xs.len()).rev() {
        xs.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// A running server child; killed if dropped without [`Server::shutdown`].
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(seed: u64) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--serve-child", &seed.to_string()])
            // The child stops when this pipe closes, so it cannot outlive
            // the benchmark even if the benchmark is killed.
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().strip_prefix("listening ").map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `SHUTDOWN`, then wait for the child to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let answer = psl_service::query_once(&self.addr, "SHUTDOWN");
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && answer.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("server exited with {status} ({answer:?})"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop after SHUTDOWN".into());
                }
            }
        }
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

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// `(frame, sent at, send event)`, oldest first.
    inflight: VecDeque<(usize, Instant, u64)>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: stream, reader, inflight: VecDeque::new() })
    }

    /// Send one line and read its one-line answer.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut answer = String::new();
        match self.reader.read_line(&mut answer) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(answer.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Per-round counts and latency samples.
#[derive(Default)]
struct Tally {
    answers: u64,
    wrong: u64,
    batch_us: Vec<f64>,
    reload_ms: Vec<f64>,
}

/// Replay every frame once over `conns`, closed loop, `WINDOW` frames in
/// flight per connection. Answers that are `ERR`, wrong, or missing (a
/// timeout or disconnect ends the round) count as wrong.
fn round(w: &Workload, conns: &mut [Conn], tally: &mut Tally) {
    let mut timeline = Timeline::new(LATEST);
    let mut reloads: Vec<Option<usize>> = vec![None; w.frames.len()];
    let mut event = 0u64;
    let mut next = 0usize;
    let mut reply = Vec::new();
    loop {
        for c in conns.iter_mut() {
            while c.inflight.len() < WINDOW && next < w.frames.len() {
                event += 1;
                if let FrameKind::Reload(v) = w.frames[next].kind {
                    reloads[next] = Some(timeline.sent(event, v));
                }
                if c.writer.write_all(w.frames[next].text.as_bytes()).is_err() {
                    return fail_rest(w, conns, next, tally);
                }
                c.inflight.push_back((next, Instant::now(), event));
                next += 1;
            }
        }
        if next == w.frames.len() && conns.iter().all(|c| c.inflight.is_empty()) {
            return;
        }
        for c in conns.iter_mut() {
            let Some(&(f, sent_at, sent_ev)) = c.inflight.front() else { continue };
            let frame = &w.frames[f];
            reply.clear();
            for _ in 0..frame.answers() {
                match c.reader.read_until(b'\n', &mut reply) {
                    Ok(n) if n > 0 && reply.ends_with(b"\n") => {}
                    _ => return fail_rest(w, conns, next, tally),
                }
            }
            let done = Instant::now();
            c.inflight.pop_front();
            event += 1;
            if let Some(handle) = reloads[f] {
                timeline.acked(handle, event);
            }
            let allowed = timeline.allowed(sent_ev, event);
            match frame.kind {
                FrameKind::Batch(_) => tally.batch_us.push((done - sent_at).as_secs_f64() * 1e6),
                FrameKind::Reload(_) => tally.reload_ms.push((done - sent_at).as_secs_f64() * 1e3),
                FrameKind::Asof(_) => {}
            }
            let whole = match &frame.kind {
                FrameKind::Batch(_) => allowed.iter().any(|&v| frame.replies[v] == reply),
                FrameKind::Asof(_) => frame.replies[0] == reply,
                FrameKind::Reload(_) => false,
            };
            let wrong = if whole {
                0
            } else {
                let answers: Vec<&str> = match std::str::from_utf8(&reply) {
                    Ok(text) => text.lines().collect(),
                    Err(_) => Vec::new(),
                };
                wrong_answers(w, frame, &answers, &allowed)
            };
            tally.answers += frame.answers() as u64;
            tally.wrong += wrong as u64;
        }
    }
}

/// Answers of `frame` that are wrong under every version in `allowed`,
/// checked line by line. A missing answer is wrong.
fn wrong_answers(w: &Workload, frame: &Frame, answers: &[&str], allowed: &[Version]) -> usize {
    let missing = frame.answers().saturating_sub(answers.len());
    missing
        + match &frame.kind {
            FrameKind::Batch(hosts) => hosts
                .iter()
                .zip(answers)
                .filter(|(&h, a)| !ok(a, allowed, |v| w.expected[v][h as usize].as_str()))
                .count(),
            FrameKind::Asof(expect) => {
                expect.iter().zip(answers).filter(|(e, a)| !ok(a, allowed, |_| e.as_str())).count()
            }
            FrameKind::Reload(v) => {
                let want = format!("version=history:{}", reload_version(w, *v));
                answers
                    .first()
                    .map_or(0, |a| usize::from(!a.starts_with("OK epoch=") || !a.contains(&want)))
            }
        }
}

/// An `OK` answer whose body is expected under one of `allowed`.
fn ok<'a>(answer: &str, allowed: &[Version], expect: impl Fn(Version) -> &'a str) -> bool {
    answer.strip_prefix("OK ").is_some_and(|a| answer_ok(a, allowed, expect))
}

/// The version date a `RELOAD` to table entry `v` publishes.
fn reload_version(w: &Workload, v: Version) -> Date {
    match w.reload_arg[v].as_str() {
        "latest" => w.history.latest_version(),
        date => {
            let d = Date::parse(date).expect("reload dates are version dates");
            w.history.version_at_or_before(d).expect("reload dates are in the history")
        }
    }
}

/// A round cut short: every answer not yet read counts as wrong.
fn fail_rest(w: &Workload, conns: &mut [Conn], next: usize, tally: &mut Tally) {
    let pending: usize = conns
        .iter_mut()
        .flat_map(|c| c.inflight.drain(..).collect::<Vec<_>>())
        .map(|(f, ..)| w.frames[f].answers())
        .sum::<usize>()
        + w.frames[next..].iter().map(Frame::answers).sum::<usize>();
    tally.answers += pending as u64;
    tally.wrong += pending as u64;
}

/// Seconds of each part of one set-up.
struct SetupTimes {
    /// Server spawn until it reports its address.
    spawn_s: f64,
    /// Connecting every connection and passing the `PING` barrier.
    connect_s: f64,
    /// One warm-up round.
    warm_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.spawn_s + self.connect_s + self.warm_s
    }
}

/// Server spawn to listening, connections plus a barrier, then one
/// warm-up round: the serving workloads' set-up.
fn setup(w: &Workload, seed: u64) -> Result<(Server, Vec<Conn>, SetupTimes), String> {
    let (server, spawn_s) = timed(|| Server::spawn(seed));
    let server = server?;
    let (conns, connect_s) = timed(|| -> Result<Vec<Conn>, String> {
        let mut conns =
            (0..CONNECTIONS).map(|_| Conn::open(&server.addr)).collect::<Result<Vec<_>, _>>()?;
        // Barrier: every connection is accepted and answering.
        for c in &mut conns {
            let pong = c.ask("PING")?;
            if pong != "OK pong" {
                return Err(format!("PING answered {pong:?}"));
            }
        }
        Ok(conns)
    });
    let mut conns = conns?;
    let mut warm = Tally::default();
    let ((), warm_s) = timed(|| round(w, &mut conns, &mut warm));
    if warm.wrong > 0 {
        return Err(format!("warm-up round: {} of {} answers wrong", warm.wrong, warm.answers));
    }
    Ok((server, conns, SetupTimes { spawn_s, connect_s, warm_s }))
}

/// `nproc` is the number of cores the benchmark may use, counted before it
/// pinned itself to one of them.
pub fn run(args: &Args, mix: Mix, nproc: usize) -> Result<Outcome, String> {
    if SERVER_WORKERS + GENERATOR_THREADS > nproc {
        return Err(format!(
            "refusing to run: {SERVER_WORKERS} server worker(s) + {GENERATOR_THREADS} generator \
             thread(s) exceed {nproc} core(s)"
        ));
    }
    let mut out = Outcome::default();
    out.threads.extend([
        ("server_workers", SERVER_WORKERS),
        ("generator_threads", GENERATOR_THREADS),
        ("connections", CONNECTIONS),
        ("window", WINDOW),
    ]);
    let name = if mix == Mix::Zipf { "serve_zipf" } else { "serve_churn" };
    let tracer = Tracer::new(args.trace, format!("{name}-{}", args.seed));
    let w = Workload::build(mix, args.seed);
    let lookups = w.lookups();

    // Set-up, sampled before the timed phase: each sample starts a fresh
    // server; the last one serves the timed phase. It is sampled again
    // after the timed phase.
    let mut setups = Vec::new();
    let mut live: Option<(Server, Vec<Conn>)> = None;
    for _ in 0..SETUP_SAMPLES {
        if let Some((server, conns)) = live.take() {
            drop(conns);
            server.shutdown()?;
        }
        let (server, conns, times) = setup(&w, args.seed)?;
        setups.push(times);
        live = Some((server, conns));
    }
    let (server, mut conns) = live.expect("a set-up ran");

    // Timed phase. The traced run alternates untraced and traced rounds.
    let (mut tally, mut traced_tally) = (Tally::default(), Tally::default());
    let mut rounds = Vec::new();
    let cpu = |pid: &str| crate::cpu_s(pid).ok_or(format!("no CPU time for process {pid}"));
    let (server_cpu0, gen_cpu0) = (cpu(&server.pid())?, cpu("self")?);
    let (untraced, traced) =
        Rounds::run(Duration::from_secs_f64(args.seconds), 3, args.trace, |traced| {
            if traced {
                let mark = tracer.mark();
                let secs = timed(|| {
                    tracer.span("loadgen.round", || round(&w, &mut conns, &mut traced_tally))
                })
                .1;
                rounds.push(tracer.since(mark));
                secs
            } else {
                timed(|| round(&w, &mut conns, &mut tally)).1
            }
        });
    let n_rounds = (untraced.times.len() + traced.times.len()) as f64;
    let wall_s = (untraced.times.iter().sum::<f64>() + traced.times.iter().sum::<f64>()) / n_rounds;
    let server_cpu_s = (cpu(&server.pid())? - server_cpu0) / n_rounds;
    let gen_cpu_s = (cpu("self")? - gen_cpu0) / n_rounds;
    out.set("serve.server_cpu_s", server_cpu_s);
    out.set("serve.generator_cpu_s", gen_cpu_s);
    out.note(format!(
        "{name}: per round, wall {wall_s:.4} s, server CPU {server_cpu_s:.4} s, generator CPU \
         {gen_cpu_s:.4} s"
    ));
    let run_s = untraced.fastest();
    out.set("run_s", run_s);
    out.set("serve.lookups_per_s", lookups as f64 / run_s);
    let p50 = stats::percentile(&tally.batch_us, 50.0).unwrap_or(0.0);
    let p99 = stats::percentile(&tally.batch_us, 99.0).unwrap_or(0.0);
    out.set("serve.batch_p50_us", p50);
    out.set("serve.batch_p99_us", p99);
    if let Some(m) = psl_stats::median(&tally.reload_ms) {
        out.set("serve.reload_p50_ms", m);
    }
    let high = stats::high_percentile(&tally.batch_us);

    if args.trace {
        let mark = tracer.mark();
        in_process(&w, &tracer, &mut out, lookups, run_s)?;
        let replay = tracer.since(mark);
        crate::trace_summary(&mut out, &untraced, &traced, &rounds, &replay);
        crate::write_spans(&tracer, name, args.seed)?;
    }

    // Server-side view after the timed phase, then its peak memory.
    let stats_line = conns[0].ask("STATS")?;
    let json: serde_json::Value =
        serde_json::from_str(stats_line.strip_prefix("OK ").unwrap_or(""))
            .map_err(|e| format!("STATS answer {stats_line:?}: {e}"))?;
    let num = |path: &[&str]| {
        path.iter().try_fold(&json, |v, k| v.get(k)).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
    };
    out.set("service.cache_hit_ratio", num(&["cache", "hit_ratio"]));
    out.set("service.lookups", num(&["lookups"]));
    out.set("service.errors", num(&["commands", "errors"]));
    out.set("service.snapshot_epoch", num(&["snapshot", "epoch"]));
    out.set("service.command_p50_us", num(&["latency_us", "p50_us"]));
    out.set("service.command_p99_us", num(&["latency_us", "p99_us"]));
    out.set(
        "peak_rss_mib",
        crate::child_peak_rss_mib(&server.pid()).ok_or("no VmHWM for the server")?,
    );
    drop(conns);
    server.shutdown()?;

    for _ in 0..SETUP_SAMPLES {
        let (server, conns, times) = setup(&w, args.seed)?;
        setups.push(times);
        drop(conns);
        server.shutdown()?;
    }
    let part = |f: fn(&SetupTimes) -> f64| {
        psl_stats::median(&setups.iter().map(f).collect::<Vec<_>>()).expect("set-up ran")
    };
    out.set("setup_s", part(SetupTimes::total));
    out.set("serve.spawn_s", part(|t| t.spawn_s));
    out.set("loadgen.connect_s", part(|t| t.connect_s));
    out.set("serve.warmup_s", part(|t| t.warm_s));

    for t in [&tally, &traced_tally] {
        out.attempted += t.answers;
        out.failed += t.wrong;
    }
    out.note(format!(
        "{name}: {} hosts, {} frames ({} lookups) per round; {} rounds; batch p50 {:.1} us, \
         p99 {:.1} us over {} frames{}",
        w.hosts.len(),
        w.frames.len(),
        lookups,
        untraced.times.len(),
        p50,
        p99,
        tally.batch_us.len(),
        high.map(|(p, v)| format!(" (highest supported percentile p{p}: {v:.1} us)"))
            .unwrap_or_default()
    ));
    out.note(format!("{name}: untraced {}", untraced.describe()));
    Ok(out)
}

/// Replay the same frames in-process through the public engine and
/// matcher functions: engine time per lookup, interning and matching per
/// host, and reload cost. What the wire adds is the rest of the round.
fn in_process(
    w: &Workload,
    t: &Tracer,
    out: &mut Outcome,
    lookups: usize,
    run_s: f64,
) -> Result<(), String> {
    let latest = w.history.latest_version();
    let engine = engine_for(&w.history, latest);
    let mut ws = engine.worker_state(0);
    let mut buf = String::new();
    let mut replay = |tr: &Tracer| -> Result<f64, String> {
        let mut engine_s = 0.0;
        let mut version = LATEST;
        for frame in &w.frames {
            buf.clear();
            let ((), secs) = timed(|| {
                tr.span("service.engine", || {
                    for line in frame.text.lines() {
                        engine.handle_line(&mut ws, line, &mut buf);
                    }
                })
            });
            engine_s += secs;
            let answers: Vec<&str> = buf.lines().collect();
            let ok = match &frame.kind {
                FrameKind::Batch(hosts) => hosts.iter().zip(&answers).all(|(&h, a)| {
                    a.strip_prefix("OK ") == Some(w.expected[version][h as usize].as_str())
                }),
                FrameKind::Asof(expect) => expect
                    .iter()
                    .zip(&answers)
                    .all(|(e, a)| a.strip_prefix("OK ") == Some(e.as_str())),
                FrameKind::Reload(v) => {
                    version = *v;
                    answers.len() == 1 && answers[0].starts_with("OK epoch=")
                }
            };
            if !ok || answers.len() != frame.answers() {
                return Err(format!(
                    "in-process replay disagrees on {:?}",
                    frame.text.lines().next()
                ));
            }
        }
        Ok(engine_s)
    };
    replay(&Tracer::new(false, String::new()))?;
    let engine_s = t.span("service.replay", || replay(t))?;
    let engine_ns = engine_s * 1e9 / lookups as f64;
    out.set("service.engine_ns", engine_ns);
    out.set("service.wire_ns", run_s * 1e9 / lookups as f64 - engine_ns);

    // The two halves of a cache miss, over every batch host of a round.
    let list = w.history.latest_snapshot();
    let opts = MatchOpts::default();
    let hosts: Vec<&str> = w
        .frames
        .iter()
        .filter_map(|f| match &f.kind {
            FrameKind::Batch(h) => Some(h),
            _ => None,
        })
        .flatten()
        .map(|&h| w.hosts[h as usize].as_str())
        .collect();
    let mut scratch = Vec::new();
    let (_, intern_s) = timed(|| {
        t.span("core.intern", || {
            for host in &hosts {
                list.reversed_ids_str(std::hint::black_box(host), &mut scratch);
            }
        })
    });
    let ids: Vec<Vec<u32>> = hosts
        .iter()
        .map(|h| {
            let mut ids = Vec::new();
            list.reversed_ids_str(h, &mut ids);
            ids
        })
        .collect();
    let mut codes = vec![0u32; hosts.len()];
    let (_, match_s) = timed(|| {
        t.span("core.match", || {
            for (id, code) in ids.iter().zip(codes.iter_mut()) {
                *code = psl_service::lookup::suffix_code_ids(&list, std::hint::black_box(id), opts);
            }
        })
    });
    for (host, &code) in hosts.iter().zip(&codes) {
        let want = site(&list, host, opts);
        if psl_service::lookup::decode_str(host, code).site != want {
            return Err(format!("matcher disagrees with List::site on {host}"));
        }
    }
    let keys: std::collections::HashSet<&[u32]> = ids.iter().map(Vec::as_slice).collect();
    out.set("service.distinct_keys", keys.len() as f64);
    out.note(format!(
        "{} batch hosts per round intern to {} distinct cache keys; the LRU holds {} per worker",
        hosts.len(),
        keys.len(),
        engine.config().cache_capacity
    ));
    out.set("core.intern_ns", intern_s * 1e9 / hosts.len() as f64);
    out.set("core.match_ns", match_s * 1e9 / hosts.len() as f64);

    // Publishing a new snapshot, alternating a stale date and latest.
    let stale = w.history.versions()[w.history.version_count() / 2].to_string();
    let mut reload_ms = Vec::new();
    for target in [stale.as_str(), "latest"].iter().cycle().take(8) {
        let (r, secs) = timed(|| t.span("service.reload", || engine.reload_target(target)));
        r.map_err(|e| format!("reload {target}: {e:?}"))?;
        reload_ms.push(secs * 1e3);
    }
    out.set("service.reload_ms", psl_stats::median(&reload_ms).expect("reloads ran"));
    Ok(())
}
