//! `serve-journaled`: the `cimon-serve` binary as it ships — a child
//! process with `--journal` — driven by a closed loop of one connection
//! per core with no think time. The seeded traffic is 70% `run`
//! requests for keys never asked before, 20% repeats of keys already
//! answered (served from the done-cache) and 10% streamed `sweep`s.
//!
//! The window is served by a fresh server every [`SEGMENT`]: once a
//! server's live results pass its 4 MiB `journal_rotate_bytes`, every
//! append rewrites the whole journal, and after about 9000 requests of
//! this traffic that cliff would dominate the measurement.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cimon_bench::report;
use cimon_core::HashAlgoKind;
use cimon_os::RefillPolicyKind;
use cimon_serve::protocol::{parse_request, parse_response, response_to_line};
use cimon_serve::{
    Client, Journal, MetricsSnapshot, Record, Request, RequestBody, Response, RunSpec, SweepSpec,
};
use cimon_sim::engine::{default_workers, parallel_map};
use cimon_sim::{Artifact, Experiment, ResultRow, SimConfig};

use crate::host::{peak_rss_mb, Rng};
use crate::probe::{processor_for, ratio, Probe};
use crate::stats::{mean, median, summarize};
use crate::{end_to_end, pool_metrics, print_all, Ctx, Metric, Outcome, Setup};

/// The (hash algo, seed) pairs cold keys draw from. Fixed and small, so
/// the server's FHTs are all built during warm-up and a cold request
/// costs a simulation plus a journal append, not FHT generation.
const PAIRS: [(HashAlgoKind, u32); 2] = [(HashAlgoKind::Xor, 0), (HashAlgoKind::Crc32, 0)];
/// IHT sizes cold keys draw from: `1..=SIZES`. With nine programs,
/// four policies and two pairs that is 18 432 keys, twice the cold
/// requests of a 15 s run at the fastest rate measured, so no cold key
/// repeats within a run.
const SIZES: usize = 256;
/// The warm-up requests' IHT size, outside the cold range.
const WARM_IHT: usize = SIZES + 1;
/// The longest stretch of the window one server answers: about 6000
/// requests at the fastest rate measured, under 3 MiB of journal.
const SEGMENT: Duration = Duration::from_secs(7);
/// Requests per class whose phases the traced run replays in process.
const TRACE_SAMPLE: usize = 150;

/// One point of the cold key space.
#[derive(Clone, Copy, Debug)]
struct Key {
    workload: usize,
    iht: usize,
    policy: usize,
    pair: usize,
}

#[derive(Clone, Copy, Debug)]
enum Slot {
    Cold(Key),
    Replay(u64),
    Sweep(Key),
}

const CLASSES: [&str; 3] = ["cold", "replay", "sweep"];

fn class_of(slot: &Slot) -> usize {
    match slot {
        Slot::Cold(_) => 0,
        Slot::Replay(_) => 1,
        Slot::Sweep(_) => 2,
    }
}

fn policy(i: usize) -> RefillPolicyKind {
    RefillPolicyKind::all(0)[i]
}

fn run_spec(names: &[&str], k: Key) -> RunSpec {
    RunSpec {
        workload: names[k.workload].to_string(),
        monitored: true,
        iht_entries: k.iht,
        hash_algo: PAIRS[k.pair].0,
        hash_seed: PAIRS[k.pair].1,
        policy: policy(k.policy),
    }
}

fn sweep_spec(names: &[&str], k: Key) -> SweepSpec {
    SweepSpec {
        workload: names[k.workload].to_string(),
        iht_entries: vec![k.iht, 2 * k.iht],
        hash_algos: vec![PAIRS[k.pair].0],
        hash_seed: PAIRS[k.pair].1,
        policy: policy(k.policy),
        baseline: true,
    }
}

fn request(id: u64, body: RequestBody) -> Request {
    Request {
        id,
        deadline_ms: None,
        resume: None,
        body,
    }
}

/// The in-process experiments a request's rows must equal.
fn experiments(artifacts: &[Arc<Artifact>], slot: &Slot) -> Vec<Experiment> {
    let config = |k: &Key, iht| SimConfig {
        iht_entries: iht,
        hash_algo: PAIRS[k.pair].0,
        hash_seed: PAIRS[k.pair].1,
        policy: policy(k.policy),
        ..SimConfig::default()
    };
    match slot {
        Slot::Cold(k) => vec![Experiment::monitored(
            artifacts[k.workload].clone(),
            config(k, k.iht),
        )],
        Slot::Sweep(k) => vec![
            Experiment::baseline(artifacts[k.workload].clone()),
            Experiment::monitored(artifacts[k.workload].clone(), config(k, k.iht)),
            Experiment::monitored(artifacts[k.workload].clone(), config(k, 2 * k.iht)),
        ],
        Slot::Replay(_) => Vec::new(),
    }
}

fn row_json(row: &ResultRow) -> String {
    report::to_json(std::slice::from_ref(row))
}

/// The seeded traffic: a class per slot, cold and sweep keys drawn
/// without replacement from their shuffled key spaces.
fn traffic(seed: u64, workloads: usize) -> Vec<Slot> {
    let mut rng = Rng::new(seed);
    let mut space = Vec::new();
    for workload in 0..workloads {
        for iht in 1..=SIZES {
            for policy in 0..4 {
                for pair in 0..PAIRS.len() {
                    space.push(Key {
                        workload,
                        iht,
                        policy,
                        pair,
                    });
                }
            }
        }
    }
    let mut cold = space.clone();
    rng.shuffle(&mut cold);
    let mut sweeps = space;
    rng.shuffle(&mut sweeps);
    let (mut cold, mut sweeps) = (cold.into_iter(), sweeps.into_iter());
    let mut slots = Vec::new();
    loop {
        let slot = match rng.below(100) {
            0..=69 => cold.next().map(Slot::Cold),
            70..=89 => Some(Slot::Replay(rng.next())),
            _ => sweeps.next().map(Slot::Sweep),
        };
        match slot {
            Some(s) => slots.push(s),
            None => return slots,
        }
    }
}

/// A `cimon-serve` child process. Dropping it kills and reaps the
/// child; [`Server::drain`] is the orderly ending.
struct Server {
    child: Child,
    addr: SocketAddr,
    journal: PathBuf,
    // Held open so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(bin: &Path, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let journal = dir.join("results.journal");
        let _ = std::fs::remove_file(&journal);
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--journal")
            .arg(&journal)
            .arg("--workers")
            .arg(default_workers().to_string())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no child stdout")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("cimon-serve: listening on ")
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            addr: "127.0.0.1:0".parse().map_err(|_| "addr")?,
            journal,
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!(
                "server did not report its address: `{}`",
                line.trim()
            )),
        }
    }

    fn call(&self, body: RequestBody) -> Result<Response, String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        client.request(&request(0, body)).map_err(|e| e.to_string())
    }

    /// Drain the server and wait for the process to exit.
    fn drain(mut self) -> Result<(), String> {
        match self.call(RequestBody::Drain)? {
            Response::Drained { .. } => {}
            other => return Err(format!("drain answered {other:?}")),
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("server did not exit after drain".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Prepared {
    names: Vec<&'static str>,
    artifacts: Vec<Arc<Artifact>>,
    /// One warmed server per segment of the window.
    servers: Vec<Server>,
    /// Spawn-to-`listening` time of the first server.
    start_s: f64,
}

/// The measured window and the number of servers it is split across.
fn window(ctx: &Ctx) -> (Duration, usize) {
    let window = if ctx.trace {
        ctx.window / 2
    } else {
        ctx.window
    };
    let segments = window.as_secs_f64() / SEGMENT.as_secs_f64();
    (window, (segments.ceil() as usize).max(1))
}

fn setup_once(ctx: &Ctx, rep: &mut usize) -> Result<(Setup, Prepared), String> {
    let bin = ctx.serve_bin.as_deref().ok_or("--serve-bin is required")?;
    *rep += 1;
    let t = Instant::now();
    let mut s = Setup::default();
    // The in-process oracle's artifacts: the same programs and FHTs the
    // server builds for itself.
    let (names, artifacts): (Vec<_>, Vec<_>) = s
        .registry()
        .into_iter()
        .map(|(name, exit, image)| (name, s.artifact(name, image, Some(exit), &PAIRS)))
        .unzip();
    let mut start_s = vec![0.0; window(ctx).1];
    let servers = Setup::span(&mut s.prepare_s, || -> Result<Vec<Server>, String> {
        start_s
            .iter_mut()
            .enumerate()
            .map(|(segment, start)| {
                let dir = ctx.scratch.join(format!("serve-{rep}-{segment}"));
                let server = Setup::span(start, || Server::spawn(bin, &dir))?;
                warm_up(&server, &names)?;
                Ok(server)
            })
            .collect()
    })?;
    s.wall_s = t.elapsed().as_secs_f64();
    Ok((
        s,
        Prepared {
            names,
            artifacts,
            servers,
            start_s: start_s[0],
        },
    ))
}

/// The server assembles its registry and builds every FHT the traffic
/// needs.
fn warm_up(server: &Server, names: &[&str]) -> Result<(), String> {
    let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
    for (workload, name) in names.iter().enumerate() {
        for pair in 0..PAIRS.len() {
            let spec = run_spec(
                &[name],
                Key {
                    workload: 0,
                    iht: WARM_IHT,
                    policy: 0,
                    pair,
                },
            );
            let id = (workload * PAIRS.len() + pair) as u64;
            match client.request(&request(id, RequestBody::Run(spec))) {
                Ok(Response::Row { .. }) => {}
                other => return Err(format!("warm-up answered {other:?}")),
            }
        }
    }
    Ok(())
}

/// One answered request.
struct Answer {
    slot: usize,
    class: usize,
    ms: f64,
    /// Seconds from the window's start to the answer.
    at: f64,
    /// The rows returned, serialised.
    rows: Vec<String>,
}

#[derive(Default)]
struct ConnResult {
    answers: Vec<Answer>,
    attempted: u64,
    failed: u64,
}

/// One closed-loop connection: take the next slot, send, wait, check.
fn connection(
    addr: SocketAddr,
    names: &[&str],
    slots: &[Slot],
    next: &AtomicUsize,
    answered: &Mutex<Vec<(usize, String)>>,
    start: Instant,
    deadline: Instant,
) -> Result<ConnResult, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut out = ConnResult::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= slots.len() || Instant::now() >= deadline {
            return Ok(out);
        }
        let slot = slots[i];
        let (body, expect) = match slot {
            Slot::Cold(k) => (RequestBody::Run(run_spec(names, k)), None),
            Slot::Replay(pick) => {
                let done = answered.lock().expect("answer list lock");
                if done.is_empty() {
                    continue;
                }
                let (slot, json) = done[(pick % done.len() as u64) as usize].clone();
                let Slot::Cold(k) = slots[slot] else {
                    unreachable!("only cold answers are replayed")
                };
                (RequestBody::Run(run_spec(names, k)), Some(json))
            }
            Slot::Sweep(k) => (RequestBody::Sweep(sweep_spec(names, k)), None),
        };
        let req = request(i as u64, body);
        out.attempted += 1;
        let t = Instant::now();
        let rows = match (&slot, &req.body) {
            (Slot::Sweep(_), _) => match client.sweep(&req) {
                Ok(rows) if rows.len() == 3 => Some(rows.iter().map(row_json).collect()),
                _ => None,
            },
            _ => match client.request(&req) {
                Ok(Response::Row { row, replayed, .. }) if replayed == expect.is_some() => {
                    let json = row_json(&row);
                    match &expect {
                        Some(want) if *want != json => None,
                        _ => Some(vec![json]),
                    }
                }
                _ => None,
            },
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let Some(rows) = rows else {
            out.failed += 1;
            continue;
        };
        if let Slot::Cold(_) = slot {
            answered
                .lock()
                .expect("answer list lock")
                .push((i, rows[0].clone()));
        }
        out.answers.push(Answer {
            slot: i,
            class: class_of(&slot),
            ms,
            at: start.elapsed().as_secs_f64(),
            rows,
        });
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.bless {
        return Err("no golden file: the oracle is computed in process".to_string());
    }
    let mut rep = 0;
    let mut first_error = None;
    let (setup_s, setup, prepared) = Setup::repeat(|| match setup_once(ctx, &mut rep) {
        Ok(done) => (done.0, Some(done.1)),
        Err(e) => {
            first_error.get_or_insert(e);
            (Setup::default(), None)
        }
    });
    if let Some(e) = first_error {
        return Err(e);
    }
    let p = prepared.ok_or("set-up failed")?;
    let slots = traffic(ctx.seed, p.names.len());
    let (window, segments) = window(ctx);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut answers = Vec::new();
    for (segment, server) in p.servers.iter().enumerate() {
        // Replays draw only on what this segment's server answered.
        let answered = Mutex::new(Vec::new());
        let deadline = start + window * (segment as u32 + 1) / segments as u32;
        let conns: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..default_workers())
                .map(|_| {
                    scope.spawn(|| {
                        connection(
                            server.addr,
                            &p.names,
                            &slots,
                            &next,
                            &answered,
                            start,
                            deadline,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("connection panicked".to_string()))
                })
                .collect()
        });
        for c in conns {
            let c = c?;
            out.attempted += c.attempted;
            out.failed += c.failed;
            answers.extend(c.answers);
        }
    }
    if next.load(Ordering::Relaxed) >= slots.len() {
        eprintln!("serve-journaled: the traffic ran out before the window ended");
    }
    let mut counters = Vec::new();
    let mut rss: f64 = 0.0;
    let mut journals = Vec::new();
    for server in p.servers {
        match server.call(RequestBody::Metrics)? {
            Response::Metrics { metrics, .. } => counters.push(metrics),
            other => return Err(format!("metrics answered {other:?}")),
        }
        rss = rss.max(peak_rss_mb(server.child.id()).unwrap_or(0.0));
        journals.push(server.journal.clone());
        server.drain()?;
    }

    // Output checks: every fresh row equals the in-process row.
    let fresh: Vec<&Answer> = answers.iter().filter(|a| a.class != 1).collect();
    let checked = parallel_map(&fresh, default_workers(), |_, a| {
        experiments(&p.artifacts, &slots[a.slot])
            .iter()
            .zip(&a.rows)
            .map(|(e, wire)| {
                let t = Instant::now();
                let ok = e.run().is_ok_and(|row| row_json(&row) == *wire);
                (ok, t.elapsed().as_secs_f64())
            })
            .collect::<Vec<_>>()
    });
    let wrong = checked
        .iter()
        .filter(|rows| rows.iter().any(|r| !r.0))
        .count();
    out.failed += wrong as u64;

    // Completed requests per whole second of the window.
    let seconds = window.as_secs() as usize;
    let mut per_second = vec![0.0; seconds];
    for a in &answers {
        if let Some(bucket) = per_second.get_mut(a.at as usize) {
            *bucket += 1.0;
        }
    }
    let latencies: Vec<f64> = answers.iter().map(|a| a.ms).collect();
    let lat = summarize(&latencies, 99.0).ok_or("no request was answered")?;
    let by_class: Vec<Vec<f64>> = (0..CLASSES.len())
        .map(|c| {
            answers
                .iter()
                .filter(|a| a.class == c)
                .map(|a| a.ms)
                .collect()
        })
        .collect();
    print_all(
        "serve-journaled service",
        &[
            Metric::with_n("serve.rps", median(&per_second), "req/s", per_second.len()),
            Metric::with_n("serve.p50_ms", lat.p50, "ms", lat.n),
            Metric::with_n(
                &format!("serve.p{}_ms", lat.tail_pct),
                lat.tail,
                "ms",
                lat.n,
            ),
            Metric::count("serve.requests.cold", by_class[0].len() as f64),
            Metric::count("serve.requests.replay", by_class[1].len() as f64),
            Metric::count("serve.requests.sweep", by_class[2].len() as f64),
        ],
    );
    out.end_to_end = end_to_end(setup_s, &per_second, &latencies, rss);

    let mut probe = Probe::default();
    let first = Experiment::baseline(p.artifacts[0].clone());
    probe.run(false, || processor_for(&first));
    if !ctx.trace {
        println!("trace.overhead_frac = {} frac (n=1)", probe.overhead_frac());
        return Ok(out);
    }

    let busy_s: f64 = checked.iter().flatten().map(|r| r.1).sum();
    let mut layers = class_latencies(&by_class);
    let phases = phases(ctx, &p.names, &slots, &answers, &checked, &fresh)?;
    layers.extend(unattributed(&by_class, &phases));
    layers.extend(phases);
    layers.extend(server_side(&counters, &journals, p.start_s)?);
    print_all("serve layer", &layers);

    for a in fresh.iter().take(40) {
        for e in experiments(&p.artifacts, &slots[a.slot]) {
            probe.run(e.monitored, || processor_for(&e));
        }
    }
    out.layers = setup.metrics();
    out.layers.extend(probe.metrics());
    out.layers.extend(pool_metrics(
        busy_s,
        default_workers(),
        window.as_secs_f64(),
    ));
    Ok(out)
}

fn class_latencies(by_class: &[Vec<f64>]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, lat) in CLASSES.iter().zip(by_class) {
        if let Some(s) = summarize(lat, 99.0) {
            out.push(Metric::with_n(
                &format!("serve.lat_ms.{name}.p50"),
                s.p50,
                "ms",
                s.n,
            ));
            out.push(Metric::with_n(
                &format!("serve.lat_ms.{name}.p{}", s.tail_pct),
                s.tail,
                "ms",
                s.n,
            ));
        }
    }
    out
}

/// The same traffic replayed in process through the public calls each
/// phase of a request makes, on a sample per class.
fn phases(
    ctx: &Ctx,
    names: &[&str],
    slots: &[Slot],
    answers: &[Answer],
    checked: &[Vec<(bool, f64)>],
    fresh: &[&Answer],
) -> Result<Vec<Metric>, String> {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let path = ctx.scratch.join("phases.journal");
    let _ = std::fs::remove_file(&path);
    let (mut journal, _) = Journal::open(&path).map_err(|e| e.to_string())?;
    let (mut parse, mut key, mut append, mut sync, mut encode, mut decode) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut taken = [0usize; 3];
    for a in answers {
        if taken[a.class] >= TRACE_SAMPLE {
            continue;
        }
        taken[a.class] += 1;
        let body = match slots[a.slot] {
            Slot::Sweep(k) => RequestBody::Sweep(sweep_spec(names, k)),
            Slot::Cold(k) => RequestBody::Run(run_spec(names, k)),
            Slot::Replay(_) => continue,
        };
        let line = request(a.slot as u64, body).to_line();
        let mut req = None;
        parse.push(time(&mut || req = parse_request(&line).ok()));
        let req = req.ok_or("request line did not parse")?;
        let mut k = 0;
        key.push(time(&mut || k = req.key()));
        for json in &a.rows {
            let row = report::rows_from_json(json)?.pop().ok_or("empty row")?;
            let record = Record {
                key: k,
                tag: "row".to_string(),
                extra: String::new(),
                body: json.clone(),
            };
            append.push(time(&mut || {
                let _ = record.to_line();
                let _ = journal.append(&record, 0);
            }));
            let resp = Response::Row {
                id: a.slot as u64,
                row,
                replayed: false,
            };
            let mut wire = String::new();
            encode.push(time(&mut || wire = response_to_line(&resp)));
            decode.push(time(&mut || {
                let _ = parse_response(&wire);
            }));
        }
        sync.push(time(&mut || {
            let _ = journal.sync();
        }));
    }
    let _ = std::fs::remove_file(&path);
    // Simulation time per request of each fresh class, from the
    // in-process oracle runs.
    let simulate = |class: usize| -> Vec<f64> {
        checked
            .iter()
            .zip(fresh)
            .filter(|(_, a)| a.class == class)
            .map(|(rows, _)| rows.iter().map(|r| r.1 * 1e3).sum())
            .collect()
    };
    // Means, so the phases subtract from a class's mean latency.
    let m = |name: &str, v: &[f64], unit| Metric::with_n(name, mean(v), unit, v.len());
    Ok(vec![
        m("serve.parse_us", &parse, "us"),
        m("serve.key_us", &key, "us"),
        m("serve.simulate_ms", &simulate(0), "ms"),
        m("serve.simulate_ms.sweep", &simulate(2), "ms"),
        m("serve.journal_append_us", &append, "us"),
        m("serve.journal_sync_us", &sync, "us"),
        m("serve.encode_us", &encode, "us"),
        m("serve.decode_us", &decode, "us"),
    ])
}

/// Class mean latency minus the mean in-process phases a request of
/// that class passes through: admission wait plus socket time. The
/// phases ran in this process after the window, so the remainder is an
/// estimate and can come out slightly negative.
fn unattributed(by_class: &[Vec<f64>], phases: &[Metric]) -> Vec<Metric> {
    let v = |name: &str| {
        phases
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let wire_ms = (v("serve.parse_us") + v("serve.key_us")) / 1e3;
    let row_ms = (v("serve.journal_append_us") + v("serve.encode_us") + v("serve.decode_us")) / 1e3;
    let parts = [
        wire_ms + v("serve.simulate_ms") + row_ms,
        wire_ms + (v("serve.encode_us") + v("serve.decode_us")) / 1e3,
        wire_ms + v("serve.simulate_ms.sweep") + 3.0 * row_ms,
    ];
    CLASSES
        .iter()
        .zip(by_class)
        .zip(parts)
        .map(|((name, lat), parts)| {
            Metric::with_n(
                &format!("serve.unattributed_ms.{name}"),
                mean(lat) - parts,
                "ms",
                lat.len(),
            )
        })
        .collect()
}

/// The servers' own counters (summed over the segments), their
/// journals, and the restart cost of the last one.
fn server_side(
    counters: &[MetricsSnapshot],
    journals: &[PathBuf],
    start_s: f64,
) -> Result<Vec<Metric>, String> {
    let sum = |f: fn(&MetricsSnapshot) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    let bytes: u64 = journals
        .iter()
        .map(|j| std::fs::metadata(j).map_or(0, |m| m.len()))
        .sum();
    let last = journals.last().ok_or("no server journal")?;
    let t = Instant::now();
    Journal::open(last).map_err(|e| e.to_string())?;
    let open_s = t.elapsed().as_secs_f64();
    Ok(vec![
        Metric::count("serve.admitted", sum(|c| c.admitted)),
        Metric::count("serve.replayed", sum(|c| c.replayed)),
        Metric::count("serve.rejected_overload", sum(|c| c.rejected_overload)),
        Metric::count("serve.failed", sum(|c| c.failed)),
        Metric::count("serve.retried", sum(|c| c.retried)),
        Metric::count("serve.rows_streamed", sum(|c| c.rows_streamed)),
        Metric::count("serve.journal_bytes", bytes as f64),
        Metric::new(
            "serve.replay_frac",
            ratio(sum(|c| c.replayed), sum(|c| c.completed)),
            "frac",
        ),
        Metric::new("serve.start_s", start_s, "s"),
        Metric::new("serve.journal_open_s", open_s, "s"),
    ])
}
