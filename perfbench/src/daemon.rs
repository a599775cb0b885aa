//! The kbpd phase: a release `kbpd --listen 127.0.0.1:0` with two
//! workers and the artifact cache on, driven by one load generator over
//! two TCP connections in a closed loop (each connection sends its next
//! request only after the reply to the previous one).
//!
//! Every request is generated from the seed. Each connection is one
//! client that owns one definition name; it redefines it with a fresh
//! muddy-children source (a new fingerprint every time) and then solves
//! it cold, so hits, misses and redefinitions of one connection never
//! race with the other connection's.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::rng::{Deck, Rng};

/// Request classes, each reported with its own latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `health` and `metrics`, answered by the connection plane.
    Inline,
    /// A `solve` whose definition was solved earlier in the run.
    Hit,
    /// The first `solve` after a redefinition.
    Miss,
    /// `check` of `sequence_transmission_2` or of the current definition.
    Check,
    /// `define` of a generated muddy-children source.
    Define,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Inline,
        Class::Hit,
        Class::Miss,
        Class::Check,
        Class::Define,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Inline => "inline",
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Check => "check",
            Class::Define => "define",
        }
    }

    /// The tail percentile reported for the class: the highest that
    /// keeps at least ten samples beyond it in one 4.8-second round (a
    /// run with `--seconds 30`) at 80 requests per second (see
    /// README.md).
    pub fn tail(self) -> f64 {
        match self {
            Class::Inline => 0.90,
            Class::Hit => 0.89,
            Class::Miss => 0.73,
            Class::Check => 0.85,
            Class::Define => 0.90,
        }
    }
}

/// Registry scenarios re-solved as hits, at their default horizons.
/// Their warm solves all take about 1.5 ms, so the hit median sits
/// inside one cluster rather than between two.
const REGISTRY_HITS: [&str; 3] = [
    "bit_transmission_obs",
    "muddy_children_3",
    "coordinated_attack",
];

/// Horizons of the `sequence_transmission_2` checks.
const CHECK_HORIZONS: [usize; 4] = [6, 7, 8, 9];

/// Checks per horizon, per five transmission checks: horizon 9, the
/// slowest, twice, so the check tail sits well inside its cluster.
const CHECK_DECK: [(usize, usize); 4] = [(1, 6), (1, 7), (1, 8), (2, 9)];

/// A `.kbp` source of the n-child muddy-children puzzle whose initial
/// states are exactly `masks` (every child sees the others' foreheads
/// and everyone's last answers; each says yes iff it knows it is muddy).
fn muddy_source(n: usize, masks: &[u32]) -> String {
    let all = (1u32 << n) - 1;
    let list = |f: &dyn Fn(usize) -> String| (0..n).map(f).collect::<Vec<_>>().join(", ");
    let mut s = format!(
        "scenario bench_muddy_{n} {{\n  horizon {}\n  recall perfect\n  agents {}\n  vars mud, answers, answered\n",
        n + 1,
        list(&|i| format!("child_{i}"))
    );
    for m in masks {
        s.push_str(&format!("  init [{m}, 0, 0]\n"));
    }
    for i in 0..n {
        s.push_str(&format!("  actions child_{i}: say_no, say_yes\n"));
    }
    for i in 0..n {
        s.push_str(&format!(
            "  obs child_{i} = (mud & {}) | (answers << {n}) | (answered << {})\n",
            all & !(1 << i),
            2 * n
        ));
    }
    for i in 0..n {
        s.push_str(&format!("  prop muddy_{i} = mud & {}\n", 1u32 << i));
    }
    let answers: Vec<String> = (0..n)
        .map(|i| format!("(if act(child_{i}) == say_yes then {} else 0)", 1u32 << i))
        .collect();
    s.push_str(&format!(
        "  transition {{\n    answers = {}\n    answered = 1\n  }}\n",
        answers.join(" | ")
    ));
    for i in 0..n {
        s.push_str(&format!(
            "  program child_{i} {{\n    case K{{child_{i}}} muddy_{i} do say_yes\n    default say_no\n  }}\n"
        ));
    }
    s.push_str("}\n");
    s
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A response with its leading `{"id":N,` removed, so that responses to
/// the same job under different ids compare byte for byte.
fn without_id(response: &str) -> &str {
    response
        .strip_prefix("{\"id\":")
        .and_then(|rest| rest.find(',').map(|i| &rest[i + 1..]))
        .unwrap_or(response)
}

/// What the closed loop does next (a redefinition is a `define`
/// followed by its miss).
#[derive(Debug, Clone, Copy)]
enum Action {
    Health,
    Metrics,
    RegistryHit,
    DefinitionHit,
    Redefine,
    CheckTransmission,
    CheckDefinition,
}

/// The mix, per 40 actions. Each class's median and tail fall inside
/// one latency cluster, at least a tenth of the class's samples from
/// the next cluster's edge: two thirds of the hits are registry
/// re-solves of about 1.5 ms and most of the rest are 8-child
/// definitions; checks of the transmission scenario are two thirds of
/// all checks.
const MIX: [(usize, Action); 7] = [
    (7, Action::Health),
    (7, Action::Metrics),
    (8, Action::RegistryHit),
    (4, Action::DefinitionHit),
    (5, Action::Redefine),
    (6, Action::CheckTransmission),
    (3, Action::CheckDefinition),
];

/// Children per generated definition, per 20 definitions: 8 dominates
/// so that the miss median and tail both fall inside the 8-child
/// cluster rather than between two sizes.
const CHILDREN: [(usize, usize); 4] = [(2, 5), (2, 6), (3, 7), (13, 8)];

/// What a response must satisfy.
#[derive(Debug, Clone)]
enum Expect {
    /// `ok: true`.
    Ok,
    /// `ok: true`, `is_implementation: true`, `mismatches: 0`.
    Implementation,
    /// The same bytes as the recorded miss under this key.
    SameAs(String),
    /// `ok: true`; record the bytes as the miss under this key.
    Record(String),
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Planned {
    class: Class,
    line: String,
    id: u64,
    expect: Expect,
}

/// The generator and answer checker of one connection.
#[derive(Debug)]
pub struct Client {
    rng: Rng,
    conn: usize,
    next_id: u64,
    /// Version of the current definition, if any; bumped per define.
    version: u64,
    /// Source of the current definition (for the in-process replay).
    source: Option<String>,
    /// The miss that must follow a define.
    pending_miss: bool,
    /// Recorded miss bytes (without id) by key.
    references: HashMap<String, String>,
    corrupt: bool,
    actions: Deck<Action>,
    children: Deck<usize>,
    registry: Deck<&'static str>,
    horizons: Deck<usize>,
}

impl Client {
    pub fn new(seed: u64, conn: usize, corrupt: bool) -> Self {
        Client {
            rng: Rng::stream(seed, conn as u64 + 1),
            conn,
            next_id: (conn as u64 + 1) * 1_000_000_000,
            version: 0,
            source: None,
            pending_miss: false,
            references: HashMap::new(),
            corrupt,
            actions: Deck::new(&MIX),
            children: Deck::new(&CHILDREN),
            registry: Deck::new(&REGISTRY_HITS.map(|name| (1, name))),
            horizons: Deck::new(&CHECK_DECK),
        }
    }

    fn name(&self) -> String {
        format!("bench_def_{}", self.conn)
    }

    fn client(&self) -> String {
        format!("bench-{}", self.conn)
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn job(
        &mut self,
        class: Class,
        kind: &str,
        scenario: &str,
        horizon: Option<usize>,
        expect: Expect,
    ) -> Planned {
        let id = self.id();
        let horizon = horizon.map_or(String::new(), |h| format!(",\"horizon\":{h}"));
        Planned {
            class,
            line: format!(
                "{{\"id\":{id},\"kind\":\"{kind}\",\"scenario\":\"{scenario}\"{horizon},\"client\":\"{}\"}}",
                self.client()
            ),
            id,
            expect,
        }
    }

    fn inline(&mut self, op: &str) -> Planned {
        let id = self.id();
        Planned {
            class: Class::Inline,
            line: format!("{{\"kind\":\"{op}\",\"id\":{id}}}"),
            id,
            expect: Expect::Ok,
        }
    }

    fn define(&mut self) -> Planned {
        let n = self.children.draw(&mut self.rng);
        // A random half of the nonzero masks: a fresh fingerprint every
        // time, at a solve cost that does not vary with the subset size.
        let mut masks: Vec<u32> = (1..(1u32 << n)).collect();
        self.rng.shuffle(&mut masks);
        masks.truncate(masks.len() / 2);
        masks.sort_unstable();
        let source = muddy_source(n, &masks);
        let id = self.id();
        self.version += 1;
        self.pending_miss = true;
        let line = format!(
            "{{\"op\":\"define\",\"id\":{id},\"name\":\"{}\",\"client\":\"{}\",\"source\":{}}}",
            self.name(),
            self.client(),
            json_str(&source)
        );
        self.source = Some(source);
        Planned {
            class: Class::Define,
            line,
            id,
            expect: Expect::Ok,
        }
    }

    fn def_key(&self) -> String {
        format!("def:{}:{}", self.conn, self.version)
    }

    /// The warm-up: a cold solve of every registry scenario that later
    /// serves hits (on connection 0 only), every check horizon, this
    /// connection's first definition and its miss, and inline ops.
    pub fn warmup(&mut self) -> Vec<Planned> {
        let mut plan = Vec::new();
        if self.conn == 0 {
            for name in REGISTRY_HITS {
                plan.push(self.job(
                    Class::Miss,
                    "solve",
                    name,
                    None,
                    Expect::Record(format!("reg:{name}")),
                ));
            }
            for h in CHECK_HORIZONS {
                plan.push(self.job(
                    Class::Check,
                    "check",
                    "sequence_transmission_2",
                    Some(h),
                    Expect::Implementation,
                ));
            }
        }
        plan.push(self.define());
        plan.push(self.next());
        plan.push(self.inline("health"));
        plan.push(self.inline("metrics"));
        plan
    }

    /// Requests that bring an in-process service to this connection's
    /// state: warm registry cache entries (connection 0) and the current
    /// definition, solved once.
    pub fn replay_prefix(&self) -> Vec<String> {
        let client = self.client();
        let job = |scenario: &str| {
            format!("{{\"id\":0,\"kind\":\"solve\",\"scenario\":\"{scenario}\",\"client\":\"{client}\"}}")
        };
        let mut lines = Vec::new();
        if self.conn == 0 {
            lines.extend(REGISTRY_HITS.iter().map(|name| job(name)));
        }
        if let Some(source) = &self.source {
            lines.push(format!(
                "{{\"op\":\"define\",\"id\":0,\"name\":\"{}\",\"client\":\"{client}\",\"source\":{}}}",
                self.name(),
                json_str(source)
            ));
            lines.push(job(&self.name()));
        }
        lines
    }

    /// Registry reference bytes recorded by connection 0's warm-up.
    pub fn share_references(&self, other: &mut Client) {
        for (k, v) in &self.references {
            if k.starts_with("reg:") {
                other.references.insert(k.clone(), v.clone());
            }
        }
    }

    /// The next request of the closed loop.
    fn next(&mut self) -> Planned {
        if self.pending_miss {
            self.pending_miss = false;
            let key = self.def_key();
            let name = self.name();
            return self.job(Class::Miss, "solve", &name, None, Expect::Record(key));
        }
        let action = self.actions.draw(&mut self.rng);
        match action {
            Action::Health => self.inline("health"),
            Action::Metrics => self.inline("metrics"),
            Action::RegistryHit => {
                let name = self.registry.draw(&mut self.rng);
                self.job(
                    Class::Hit,
                    "solve",
                    name,
                    None,
                    Expect::SameAs(format!("reg:{name}")),
                )
            }
            Action::DefinitionHit => {
                let key = self.def_key();
                let name = self.name();
                self.job(Class::Hit, "solve", &name, None, Expect::SameAs(key))
            }
            Action::Redefine => self.define(),
            Action::CheckTransmission => {
                let h = self.horizons.draw(&mut self.rng);
                self.job(
                    Class::Check,
                    "check",
                    "sequence_transmission_2",
                    Some(h),
                    Expect::Implementation,
                )
            }
            Action::CheckDefinition => {
                let name = self.name();
                self.job(Class::Check, "check", &name, None, Expect::Implementation)
            }
        }
    }

    /// Checks one response against its plan (and records miss bytes).
    fn verify(&mut self, plan: &Planned, response: &str) -> Result<(), String> {
        let head = format!("{{\"id\":{},\"ok\":true,", plan.id);
        if !response.starts_with(&head) {
            return Err(format!("not ok: {}", &response[..response.len().min(200)]));
        }
        match &plan.expect {
            Expect::Ok => Ok(()),
            Expect::Implementation => {
                if response.contains("\"is_implementation\":true")
                    && response.contains("\"mismatches\":0")
                {
                    Ok(())
                } else {
                    Err(format!(
                        "check failed: {}",
                        &response[..response.len().min(200)]
                    ))
                }
            }
            Expect::Record(key) => {
                let mut body = without_id(response).to_string();
                if self.corrupt {
                    body.push(' ');
                }
                self.references.insert(key.clone(), body);
                Ok(())
            }
            Expect::SameAs(key) => match self.references.get(key) {
                Some(reference) if reference == without_id(response) => Ok(()),
                Some(_) => Err(format!("hit bytes differ from the miss bytes of {key}")),
                None => Err(format!("no recorded miss for {key}")),
            },
        }
    }
}

/// A request line and its timing.
#[derive(Debug, Clone)]
pub struct Sample {
    pub class: Class,
    pub start: Instant,
    pub end: Instant,
    pub id: u64,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A request with its response, kept for the in-process replay.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub class: Class,
    pub id: u64,
    pub line: String,
    pub response: String,
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }

    /// Sends one line and reads one response line.
    pub fn roundtrip(&mut self, line: &str) -> Result<(String, Instant, Instant), String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.buf.clear();
        let start = Instant::now();
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("read: {e}"))?;
        let end = Instant::now();
        if n == 0 {
            return Err("connection closed".to_string());
        }
        Ok((self.buf.trim_end().to_string(), start, end))
    }
}

/// Totals of one connection's traffic.
#[derive(Debug, Default)]
pub struct Traffic {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub log: Vec<Exchange>,
}

impl Traffic {
    fn note(
        &mut self,
        plan: &Planned,
        outcome: Result<(String, Instant, Instant), String>,
        client: &mut Client,
        keep: bool,
    ) {
        self.attempted += 1;
        let checked = outcome.and_then(|(response, start, end)| {
            client.verify(plan, &response)?;
            Ok((response, start, end))
        });
        match checked {
            Ok((response, start, end)) => {
                self.samples.push(Sample {
                    class: plan.class,
                    start,
                    end,
                    id: plan.id,
                });
                if keep {
                    self.log.push(Exchange {
                        class: plan.class,
                        id: plan.id,
                        line: plan.line.clone(),
                        response,
                    });
                }
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("{}: {e}", plan.class.name()));
                }
            }
        }
    }
}

/// Runs a fixed plan on one connection.
pub fn run_plan(conn: &mut Conn, client: &mut Client, plan: Vec<Planned>, keep: bool) -> Traffic {
    let mut traffic = Traffic::default();
    for p in plan {
        let outcome = conn.roundtrip(&p.line);
        traffic.note(&p, outcome, client, keep);
    }
    traffic
}

/// The closed loop of one connection until `deadline`.
pub fn run_until(conn: &mut Conn, client: &mut Client, deadline: Instant, keep: bool) -> Traffic {
    let mut traffic = Traffic::default();
    while Instant::now() < deadline {
        let p = client.next();
        let outcome = conn.roundtrip(&p.line);
        let broken = outcome.is_err();
        traffic.note(&p, outcome, client, keep);
        if broken {
            break;
        }
    }
    // A define is always followed by its miss, even past the deadline,
    // so the next phase starts from a solved definition.
    if client.pending_miss {
        let p = client.next();
        let outcome = conn.roundtrip(&p.line);
        traffic.note(&p, outcome, client, keep);
    }
    traffic
}

/// A running daemon. Closing its stdin is the graceful-shutdown signal.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open so the daemon never writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(kbpd: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(kbpd);
        cmd.arg("--listen").arg("127.0.0.1:0");
        // Library and service defaults: no engine or service knob leaks
        // in from the caller's environment.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("KBP_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("KBP_SERVICE_WORKERS", "2")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", kbpd.display()))?;
        let stdin = child.stdin.take();
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("kbpd stdout not captured".to_string());
        };
        // From here on Drop stops the daemon on every error path.
        let mut daemon = Daemon {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut announce = String::new();
        daemon
            .stdout
            .read_line(&mut announce)
            .map_err(|e| format!("kbpd announce: {e}"))?;
        let addr = announce
            .split("\"addr\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .ok_or_else(|| format!("kbpd did not announce an address: {announce:?}"))?;
        daemon.addr = addr.to_string();
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's user plus system CPU time in ms, from
    /// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks of 10 ms:
    /// `USER_HZ` is 100 on Linux).
    pub fn cpu_ms(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) * 10.0)
    }

    /// Closes stdin and waits for the drain to finish; kills the daemon
    /// if it has not exited after 60 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("kbpd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("kbpd did not drain within 60 s".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.stop();
        }
    }
}
