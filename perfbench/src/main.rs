//! The repository benchmark: per workload, a closed-loop `kbpd` TCP
//! phase and an in-process solver phase, every answer checked. See
//! README.md for the workloads, the metrics and how to run it.

mod daemon;
mod replay;
mod rng;
mod solver;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use kbp_service::json::{self, Json};

use daemon::{Class, Client, Conn, Daemon, Sample, Traffic};
use stats::{beyond, median, quantile, result_line, Metrics};
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Witness,
    Muddy,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "witness" => Some(Workload::Witness),
            "muddy" => Some(Workload::Muddy),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Witness => "witness",
            Workload::Muddy => "muddy",
        }
    }
}

/// `Tiny` shrinks the solver instances for the self-test; the kbpd mix
/// is the same at both sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Where the spans of a traced run are written, inside the checkout.
pub fn trace_path(workload: Workload, seed: u64, part: &str) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("trace-{}-{seed}-{part}.jsonl", workload.name()))
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds of kbpd traffic per run; the kbpd metrics are medians over
/// rounds, so two rounds hit by a burst of interference do not move
/// them.
const ROUNDS: usize = 5;
/// A solve follows every `solve_every`-th round, starting with the
/// first: every round on witness (five solves of about 3.5 s per run),
/// rounds 0, 2 and 4 on muddy (three of about 9 s), so that each run
/// spends 15 to 30 s solving.
fn solve_every(workload: Workload) -> usize {
    match workload {
        Workload::Witness => 1,
        Workload::Muddy => 2,
    }
}
/// End-to-end figures printed on `#` lines but left out of the result.
/// Over ten runs per workload on a 2-vCPU virtual machine whose host
/// steals a varying share of the CPU, their spread (quartile distance
/// over median) reached 0.20 to 0.67, above or at the largest bound a
/// gated metric may have (0.25).
/// `hit_p50_ms` joined them when the host's steal grew: a hit of about
/// 1.8 ms that a host time slice lands on takes several times as long,
/// and the median hit read 3.8 ms at 34% steal and 6.2 ms at 43%, which
/// no share of the round's time can correct.
const UNGATED: [&str; 5] = [
    "inline_tail_ms",
    "hit_p50_ms",
    "miss_p50_ms",
    "miss_tail_ms",
    "check_p50_ms",
];

/// Share of the machine's CPU time the host may steal during a kbpd
/// round before it is run again. Quiet rounds see under 10%; busy
/// neighbours push it past 40%, which stretches every wall-clock
/// figure.
const STEAL_LIMIT: f64 = 0.15;
/// Re-runs per run at the most, so that a host that stays busy cannot
/// stretch a run by more than one short round.
const MAX_RETRIES: usize = 1;

const USAGE: &str = "usage: kbp-perfbench --kbpd PATH --workload witness|muddy --seed N \
--seconds S --trace 0|1 [--size full|tiny] [--corrupt-expected]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    kbpd: Option<PathBuf>,
    size: Size,
    corrupt: bool,
    child: bool,
    oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Witness,
        seed: 0,
        seconds: 30.0,
        trace: false,
        kbpd: None,
        size: Size::Full,
        corrupt: false,
        child: false,
        oracle: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "solve-child" => args.child = true,
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--kbpd" => args.kbpd = Some(PathBuf::from(value("--kbpd")?)),
            "--size" => {
                args.size = match value("--size")?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, not {v:?}")),
                }
            }
            "--corrupt-expected" => args.corrupt = true,
            "--oracle" => args.oracle = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    // Library and service defaults only: no `KBP_*` knob reaches the
    // solver, the solve children or the daemon.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("KBP_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kbp-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.child {
        std::process::exit(solver::child_main(
            args.workload,
            args.size,
            solver::ChildOptions {
                seed: args.seed,
                oracle: args.oracle,
                corrupt: args.corrupt,
                trace: args.trace,
            },
        ));
    }
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("kbp-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Attempted and failed counts of one phase.
#[derive(Debug, Default)]
struct Phase {
    attempted: u64,
    failed: u64,
}

impl Phase {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn line(&self, name: &str) -> String {
        format!(
            "# phase {name}: attempted {} succeeded {} failed {}",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        )
    }
}

/// Service counters read through the `metrics` op.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: f64,
    misses: f64,
    layers_restored: f64,
    queue_rejections: f64,
}

fn counters(conn: &mut Conn) -> Result<Counters, String> {
    let (line, _, _) = conn.roundtrip("{\"kind\":\"metrics\",\"id\":1}")?;
    let v = json::parse(&line).map_err(|e| format!("metrics response: {e}"))?;
    let num = |v: Option<&Json>, name: &str| {
        v.and_then(Json::as_u64)
            .map(|n| n as f64)
            .ok_or(format!("metrics response lacks {name}"))
    };
    let cache = v.get("cache");
    Ok(Counters {
        hits: num(cache.and_then(|c| c.get("hits")), "cache.hits")?,
        misses: num(cache.and_then(|c| c.get("misses")), "cache.misses")?,
        layers_restored: num(v.get("layers_restored"), "layers_restored")?,
        queue_rejections: num(v.get("queue_rejections"), "queue_rejections")?,
    })
}

/// A daemon after one set-up: spawned, connected and warmed up.
struct Ready {
    daemon: Daemon,
    conns: Vec<Conn>,
    clients: Vec<Client>,
}

fn set_up(
    kbpd: &Path,
    seed: u64,
    corrupt: bool,
    warmup: &mut Phase,
    errors: &mut Vec<String>,
) -> Result<Ready, String> {
    let daemon = Daemon::spawn(kbpd)?;
    let mut conns = vec![Conn::open(&daemon.addr)?, Conn::open(&daemon.addr)?];
    let mut clients = vec![Client::new(seed, 0, corrupt), Client::new(seed, 1, corrupt)];
    for i in 0..conns.len() {
        if i > 0 {
            let (first, rest) = clients.split_at_mut(i);
            first[0].share_references(&mut rest[0]);
        }
        let plan = clients[i].warmup();
        let traffic = daemon::run_plan(&mut conns[i], &mut clients[i], plan, false);
        warmup.add(traffic.attempted, traffic.failed);
        errors.extend(traffic.errors);
    }
    Ok(Ready {
        daemon,
        conns,
        clients,
    })
}

/// Both connections' closed loops for `seconds`; returns each
/// connection's traffic and the elapsed wall-clock time.
fn window(ready: &mut Ready, seconds: f64, keep: bool) -> (Vec<Traffic>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let traffic = std::thread::scope(|s| {
        let handles: Vec<_> = ready
            .conns
            .iter_mut()
            .zip(ready.clients.iter_mut())
            .map(|(conn, client)| s.spawn(move || daemon::run_until(conn, client, deadline, keep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect::<Vec<_>>()
    });
    (traffic, start.elapsed().as_secs_f64())
}

fn class_ms(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(Sample::ms)
        .collect()
}

fn nan_or(v: Option<f64>) -> f64 {
    v.unwrap_or(f64::NAN)
}

/// Runs one solve child and returns its JSON line; a child that cannot
/// run or prints no verdict counts as a failed solve.
fn solve_child(args: &Args, oracle: bool, trace: bool) -> Json {
    spawn_solve_child(args, oracle, trace)
        .unwrap_or_else(|e| json::obj(vec![("ok", Json::Bool(false)), ("detail", Json::Str(e))]))
}

fn spawn_solve_child(args: &Args, oracle: bool, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("solve-child")
        .arg("--workload")
        .arg(args.workload.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--size")
        .arg(match args.size {
            Size::Full => "full",
            Size::Tiny => "tiny",
        })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.corrupt {
        cmd.arg("--corrupt-expected");
    }
    if oracle {
        cmd.arg("--oracle");
    }
    if trace {
        cmd.arg("--trace").arg("1");
    }
    let out = cmd.output().map_err(|e| format!("solve child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    json::parse(line).map_err(|e| format!("solve child printed {line:?}: {e}"))
}

fn field(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_u64)
        .map_or(f64::NAN, |n| n as f64)
}

fn run(args: &Args) -> Result<bool, String> {
    let kbpd = args.kbpd.clone().ok_or("--kbpd is required")?;
    println!(
        "# workload {} seed {} seconds {} trace {} size {:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size
    );
    let mut setup = Phase::default();
    let mut warmup = Phase::default();
    let mut measured = Phase::default();
    let mut errors: Vec<String> = Vec::new();
    let kbpd_seconds = args.seconds * 0.8;

    // Set-up, several times: spawn kbpd, connect, warm up. Only the last
    // daemon is measured; the others are shut down again.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        setup.attempted += 1;
        let host_before = host_cpu();
        let started = Instant::now();
        match set_up(&kbpd, args.seed, args.corrupt, &mut warmup, &mut errors) {
            Ok(ready) => {
                // Less the time the host stole meanwhile, as for solves:
                // the warm-up sends one request at a time.
                setup_s.push(started.elapsed().as_secs_f64() - stolen_s(host_before));
                if i + 1 == SETUPS {
                    kept = Some(ready);
                } else {
                    drop(ready.conns);
                    if let Err(e) = ready.daemon.shutdown() {
                        errors.push(e);
                    }
                }
            }
            Err(e) => {
                setup.failed += 1;
                errors.push(format!("set-up: {e}"));
            }
        }
    }
    let mut ready = kept.ok_or_else(|| format!("the last set-up failed: {errors:?}"))?;

    // Spans of the traced run are timed from here.
    let mut tracer = Tracer::new();

    // The measured phase: `ROUNDS` rounds of kbpd traffic, 80% of
    // `--seconds` in all, with a solve after every round or every other
    // round while the daemon idles, so that a burst of interference from
    // outside lands in few rounds of each kind. A kbpd round during
    // which the host stole more than `STEAL_LIMIT` of the machine's CPU
    // time is run again, at most `MAX_RETRIES` times per run; its
    // answers still count. A solve is not run again: the time stolen
    // during it is taken off its wall-clock time instead. Counters are
    // read before the first round and after the last, so the warm-up's
    // hits and misses are not counted.
    let before = counters(&mut ready.conns[0])?;
    let mut rounds: Vec<Round> = Vec::new();
    let mut logs = Vec::new();
    let mut prefixes: Vec<Vec<String>> = Vec::new();
    let mut solves: Vec<Json> = Vec::new();
    let mut traced_solve = None;
    let mut retries = 0;
    // A traced run has an untraced round, then a traced round that keeps
    // every exchange for the in-process replay and replays its solve;
    // their difference is the tracing overhead.
    let plan: Vec<bool> = if args.trace {
        vec![false, true]
    } else {
        vec![false; ROUNDS]
    };
    let round_seconds = kbpd_seconds / plan.len() as f64;
    for &traced in &plan {
        if traced {
            prefixes = ready.clients.iter().map(Client::replay_prefix).collect();
        }
        loop {
            let cpu_before = ready.daemon.cpu_ms();
            let host_before = host_cpu();
            let (traffic, elapsed) = window(&mut ready, round_seconds, traced);
            let cpu_ms = ready.daemon.cpu_ms().zip(cpu_before).map(|(b, a)| b - a);
            let mut round = Round {
                samples: Vec::new(),
                elapsed,
                cpu_ms,
                stolen: steal_since(host_before),
            };
            for t in traffic {
                measured.add(t.attempted, t.failed);
                errors.extend(t.errors);
                round.samples.extend(t.samples);
                if traced {
                    logs.push(t.log);
                }
            }
            let what = format!(
                "kbpd round {}: {:.1} requests/s",
                rounds.len(),
                round.samples.len() as f64 / round.elapsed
            );
            if !rerun(&what, round.stolen, !traced, &mut retries) {
                rounds.push(round);
                break;
            }
        }

        // A solve after every round or every other round, in a child
        // process of its own; the first solve of a run also runs the
        // oracle check.
        if traced {
            traced_solve = Some(solve_child(args, false, true));
            continue;
        }
        if args.trace || (rounds.len() - 1).is_multiple_of(solve_every(args.workload)) {
            let solve = solve_child(args, solves.is_empty(), false);
            println!(
                "# solve {}: {:.3} s wall-clock, {:.3} s of it stolen by the host",
                solves.len(),
                field(&solve, "solve_ns") / 1e9,
                field(&solve, "solve_steal_ns") / 1e9
            );
            solves.push(solve);
        }
    }
    let after = counters(&mut ready.conns[0])?;
    let server_hwm_kib = solver::peak_rss_kib(&ready.daemon.pid().to_string());
    drop(ready.conns);
    if let Err(e) = ready.daemon.shutdown() {
        errors.push(e);
        measured.failed += 1;
    }
    let samples: Vec<Sample> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().cloned())
        .collect();
    for s in solves.iter().chain(traced_solve.iter()) {
        measured.attempted += 1;
        if s.get("ok") != Some(&Json::Bool(true)) {
            measured.failed += 1;
            errors.push(format!(
                "solve: {}",
                s.get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("no verdict")
            ));
        }
    }

    let mut metrics = Metrics::default();
    let mut replay_failed = 0;
    if args.trace {
        for s in &rounds[1].samples {
            tracer.record(&format!("request.{}", s.class.name()), s.id, s.start, s.end);
        }
        let outcome = replay::run(&prefixes, &logs, &mut tracer);
        replay_failed = outcome.failed;
        errors.extend(outcome.errors.iter().cloned());
        let out = trace_path(args.workload, args.seed, "kbpd");
        tracer
            .write_jsonl(&out)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        per_layer(
            &mut metrics,
            &tracer,
            &outcome,
            &rounds,
            (&solves, traced_solve.as_ref()),
            (before, after),
        );
    } else {
        end_to_end(&mut metrics, &setup_s, &solves, &rounds, server_hwm_kib);
    }
    let (gated, ungated): (Vec<_>, Vec<_>) = metrics
        .0
        .into_iter()
        .partition(|m| !UNGATED.contains(&m.name.as_str()));
    let metrics = Metrics(gated);

    for s in &samples_by_class(&samples, rounds.len()) {
        println!("{s}");
    }
    println!("{}", setup.line("setup"));
    println!("{}", warmup.line("warm-up"));
    println!("{}", measured.line("measured"));
    let attempted = measured.attempted;
    let failed = measured.failed + replay_failed;
    println!(
        "# failed_ratio {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "# kbpd counters over the measured phase: {} hits, {} misses, {} layers restored, {} queue rejections",
        after.hits - before.hits,
        after.misses - before.misses,
        after.layers_restored - before.layers_restored,
        after.queue_rejections - before.queue_rejections
    );
    for e in &errors {
        println!("# error: {e}");
    }
    for m in &metrics.0 {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &ungated {
        println!(
            "# {} = {} {} (not in the result: too unsteady to gate)",
            m.name, m.value, m.unit
        );
    }
    let correct = errors.is_empty() && setup.failed == 0 && warmup.failed == 0 && failed == 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    Ok(correct)
}

/// One line per request class: sample count per round, and the pooled
/// median and tail with the number of samples beyond the tail.
fn samples_by_class(samples: &[Sample], rounds: usize) -> Vec<String> {
    Class::ALL
        .iter()
        .map(|&c| {
            let ms = class_ms(samples, c);
            format!(
                "# class {}: {} samples in {rounds} rounds, about {} per round with {} beyond p{}; pooled p50 {:.3} ms, p{} {:.3} ms",
                c.name(),
                ms.len(),
                ms.len() / rounds.max(1),
                beyond(ms.len() / rounds.max(1), c.tail()),
                (c.tail() * 100.0).round(),
                nan_or(median(&ms)),
                (c.tail() * 100.0).round(),
                nan_or(quantile(&ms, c.tail())),
            )
        })
        .collect()
}

/// Total and stolen CPU ticks of the machine, from `/proc/stat`: steal
/// is time the hypervisor ran something else, which no change to this
/// repository can move.
pub fn host_cpu() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Whether a round that may be re-run (`eligible`) is run again, given
/// the share of CPU time stolen while it ran; says so on a `#` line.
fn rerun(what: &str, steal: f64, eligible: bool, retries: &mut usize) -> bool {
    let again = eligible && steal > STEAL_LIMIT && *retries < MAX_RETRIES;
    *retries += usize::from(again);
    println!(
        "# {what}, {:.1}% of CPU time stolen by the host{}",
        100.0 * steal,
        if again { ", run again" } else { "" }
    );
    again
}

/// Share of the machine's CPU time stolen by the host since `before`.
fn steal_since(before: Option<(f64, f64)>) -> f64 {
    match (before, host_cpu()) {
        (Some((total0, steal0)), Some((total1, steal1))) => {
            (steal1 - steal0) / (total1 - total0).max(1.0)
        }
        _ => 0.0,
    }
}

/// Seconds of CPU time the host stole from the machine since `before`
/// (`/proc/stat` counts in `USER_HZ` ticks of 10 ms).
pub fn stolen_s(before: Option<(f64, f64)>) -> f64 {
    match (before, host_cpu()) {
        (Some((_, steal0)), Some((_, steal1))) => (steal1 - steal0) / 100.0,
        _ => 0.0,
    }
}

/// Traffic of one round of the kbpd phase.
struct Round {
    samples: Vec<Sample>,
    elapsed: f64,
    /// Daemon CPU time spent during the round.
    cpu_ms: Option<f64>,
    /// Share of the machine's CPU time the host stole during the round.
    stolen: f64,
}

impl Round {
    /// A latency figure of requests that run for tens of milliseconds or
    /// more, read as on a machine the host steals nothing from. Such a
    /// request spans many host time slices, so a round whose CPU time
    /// the host stole a share `stolen` of stretches it by about
    /// `1 / (1 - stolen)`; short requests are not stretched evenly, and
    /// their figures are left as measured.
    fn unstolen(&self, ms: f64) -> f64 {
        ms * (1.0 - self.stolen)
    }
}

/// The median over rounds of a per-round figure, so that a burst of
/// interference during one round does not move the result.
fn over_rounds(rounds: &[Round], f: impl Fn(&Round) -> Option<f64>) -> f64 {
    let values: Vec<f64> = rounds.iter().filter_map(f).collect();
    nan_or(median(&values))
}

fn end_to_end(
    metrics: &mut Metrics,
    setup_s: &[f64],
    solves: &[Json],
    rounds: &[Round],
    server_hwm_kib: Option<u64>,
) {
    let of = |key: &str| solves.iter().map(|s| field(s, key)).collect::<Vec<_>>();
    let ctx_setup_s = nan_or(median(&of("setup_ns"))) / 1e9;
    metrics.put("setup_s", nan_or(median(setup_s)) + ctx_setup_s, "s");
    // Wall-clock of the solve less the CPU time the host stole from the
    // machine meanwhile: the solve runs on one vCPU, and the idle one
    // accrues almost no steal.
    let solve_s: Vec<f64> = solves
        .iter()
        .map(|s| (field(s, "solve_ns") - field(s, "solve_steal_ns")) / 1e9)
        .collect();
    metrics.put("solve_s", nan_or(median(&solve_s)), "s");
    metrics.put(
        "peak_rss_mib",
        nan_or(median(&of("hwm_kib"))) / 1024.0,
        "MiB",
    );
    metrics.put(
        "server_peak_rss_mib",
        server_hwm_kib.map_or(f64::NAN, |k| k as f64 / 1024.0),
        "MiB",
    );
    // Hits take about 1.8 ms at the median and tens of milliseconds at
    // the tail; misses and checks tens of milliseconds and more.
    let long = |class: Class, tail: bool| match class {
        Class::Miss | Class::Check => true,
        Class::Hit => tail,
        _ => false,
    };
    for class in [Class::Inline, Class::Hit, Class::Miss, Class::Check] {
        for (stat, p) in [("p50", 0.5), ("tail", class.tail())] {
            let figure = |r: &Round| {
                let ms = quantile(&class_ms(&r.samples, class), p)?;
                Some(if long(class, stat == "tail") {
                    r.unstolen(ms)
                } else {
                    ms
                })
            };
            metrics.put(
                format!("{}_{stat}_ms", class.name()),
                over_rounds(rounds, figure),
                "ms",
            );
        }
    }
    metrics.put(
        "define_p50_ms",
        over_rounds(rounds, |r| median(&class_ms(&r.samples, Class::Define))),
        "ms",
    );
    // Requests per second of CPU time the host left the machine: the
    // closed loop keeps both vCPUs busy, so a round whose CPU time the
    // host stole a share of completes that share fewer requests.
    metrics.put(
        "throughput_rps",
        over_rounds(rounds, |r| {
            Some(r.samples.len() as f64 / (r.elapsed * (1.0 - r.stolen)))
        }),
        "1/s",
    );
    metrics.put(
        "server_cpu_ms_per_req",
        over_rounds(rounds, |r| {
            r.cpu_ms.map(|ms| ms / r.samples.len().max(1) as f64)
        }),
        "ms",
    );
}

/// The per-layer metrics of a traced run: `rounds` are the untraced
/// and the traced round, `solves` the untraced solves and the traced
/// one, `counters` the `metrics` op before and after the kbpd traffic.
fn per_layer(
    metrics: &mut Metrics,
    tracer: &Tracer,
    outcome: &replay::Outcome,
    rounds: &[Round],
    (untraced_solves, traced_solve): (&[Json], Option<&Json>),
    (before, after): (Counters, Counters),
) {
    let durations_with_prefix = |prefix: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    };
    let med = |name: &str| nan_or(median(&tracer.durations(name)));

    // kbp-core, kbp-systems and kbp-kripke, from the traced solve child.
    let nan = Json::Null;
    let ts = traced_solve.unwrap_or(&nan);
    let solve_ns = field(ts, "core.solve_ns");
    let step_ns = field(ts, "systems.step_ns");
    let populate_ns = field(ts, "kripke.populate_ns");
    let stabilize_ns = field(ts, "systems.stabilize_ns");
    let induce_self_ns = solve_ns - step_ns - populate_ns - stabilize_ns;
    let entries = field(ts, "entries");
    if induce_self_ns < 0.0 {
        println!(
            "# warning: negative residual core.induce_self_ns = {induce_self_ns} ns: the replayed phases took longer than the solve"
        );
    }
    metrics.put("core.solve_ns", solve_ns, "ns");
    metrics.put("core.induce_self_ns", induce_self_ns, "ns");
    metrics.put(
        "core.induce_self_negative",
        if induce_self_ns < 0.0 { 1.0 } else { 0.0 },
        "count",
    );
    metrics.put("core.protocol_entries", entries, "count");
    metrics.put("core.induce_ns_per_entry", induce_self_ns / entries, "ns");
    metrics.put("core.check_ns", med("core.check"), "ns");
    metrics.put("systems.step_ns", step_ns, "ns");
    for key in [
        "systems.resident_worlds",
        "systems.explicit_worlds",
        "systems.layers_reduced",
        "systems.layers_compressed",
    ] {
        metrics.put(key, field(ts, key), "count");
    }
    metrics.put("systems.stabilize_ns", stabilize_ns, "ns");
    metrics.put("kripke.populate_ns", populate_ns, "ns");
    metrics.put(
        "kripke.populate_worlds",
        field(ts, "kripke.populate_worlds"),
        "count",
    );
    metrics.put("kripke.bisim_ns", field(ts, "kripke.bisim_ns"), "ns");

    // kbp-lang and kbp-service, from the in-process replay.
    metrics.put("lang.compile_ns", med("lang.compile"), "ns");
    metrics.put(
        "lang.source_bytes",
        nan_or(median(&outcome.source_bytes)),
        "B",
    );
    metrics.put(
        "service.parse_ns",
        nan_or(median(&durations_with_prefix("service.parse."))),
        "ns",
    );
    for class in [Class::Hit, Class::Miss, Class::Check] {
        metrics.put(
            format!("service.execute_ns.{}", class.name()),
            med(&format!("service.execute.{}", class.name())),
            "ns",
        );
    }
    metrics.put("service.define_ns", med("service.define"), "ns");
    metrics.put(
        "service.render_ns",
        nan_or(median(&durations_with_prefix("service.render."))),
        "ns",
    );
    metrics.put(
        "service.response_bytes",
        nan_or(median(&outcome.response_bytes)),
        "B",
    );
    for class in [Class::Inline, Class::Hit, Class::Miss, Class::Check] {
        let c = class.name();
        let plane = med(&format!("request.{c}"))
            - med(&format!("service.parse.{c}"))
            - med(&format!("service.execute.{c}"))
            - med(&format!("service.render.{c}"));
        metrics.put(format!("service.plane_ns.{c}"), plane, "ns");
    }
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    metrics.put("service.cache_hits", hits, "count");
    metrics.put("service.cache_misses", misses, "count");
    metrics.put("service.hit_ratio", hits / (hits + misses), "ratio");
    metrics.put(
        "service.layers_restored",
        after.layers_restored - before.layers_restored,
        "count",
    );
    metrics.put(
        "service.queue_rejections",
        after.queue_rejections - before.queue_rejections,
        "count",
    );

    // Tracing overhead: the traced half of the kbpd window minus the
    // untraced half, and the traced solve minus the untraced one.
    let halves = |class: Class| -> f64 {
        nan_or(median(&class_ms(&rounds[1].samples, class)))
            - nan_or(median(&class_ms(&rounds[0].samples, class)))
    };
    for class in [Class::Inline, Class::Hit, Class::Miss, Class::Check] {
        metrics.put(
            format!("trace.overhead.{}_p50_ms", class.name()),
            halves(class),
            "ms",
        );
    }
    let untraced_solve_ns = nan_or(median(
        &untraced_solves
            .iter()
            .map(|s| field(s, "solve_ns"))
            .collect::<Vec<_>>(),
    ));
    metrics.put(
        "trace.overhead.solve_s",
        (field(ts, "solve_ns") - untraced_solve_ns) / 1e9,
        "s",
    );
    metrics.put(
        "trace.spans",
        tracer.spans().len() as f64 + field(ts, "trace.spans"),
        "count",
    );
}
