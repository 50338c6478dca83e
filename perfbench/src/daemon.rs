//! `daemon-mixed`: an in-process vs-fleetd (scheduler with two workers of
//! one fleet thread each, fresh store) served over its Unix socket to two
//! closed-loop clients. Each client alternates a fresh quick sweep with a
//! resubmission of a sweep it finished earlier, which the store serves.

use crate::jobs::{self, DAEMON_CHIPS, WORKERS};
use crate::report::{pct, Digest, Outcome};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::{repeated_setup, Ctx};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vs_fleet::{compact_streaming, load_checkpoint, save_checkpoint, ChipJournal};
use vs_fleetd::protocol::{decode_response, encode_response, read_frame, write_frame};
use vs_fleetd::server::serve_unix;
use vs_fleetd::{
    config_for, Client, FleetStore, JobOutcome, Response, Scheduler, SchedulerConfig, SweepSpec,
};

/// Closed-loop clients.
const CLIENTS: u64 = 2;

/// Cycles (fresh + repeat) every client completes however short the run:
/// the warm-up cycle plus these make the digest.
const DIGEST_CYCLES: u64 = 4;

/// Finished fresh sweeps whose store files the traced run replays.
const STORE_REPLAY_SWEEPS: usize = 16;

/// Passes over the recorded response stream when timing the codec.
const CODEC_PASSES: usize = 20;

/// A daemon serving on a socket in its own directory.
struct Daemon {
    socket: PathBuf,
    store_dir: PathBuf,
    scheduler: Arc<Scheduler>,
    server: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Boots a daemon on a fresh store under `dir`: store open, boot
    /// recovery, scheduler start, socket bind.
    fn boot(dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let store_dir = dir.join("store");
        let store = FleetStore::open(&store_dir).map_err(|e| format!("store open: {e}"))?;
        store
            .boot_recover()
            .map_err(|e| format!("boot recovery: {e}"))?;
        let config = SchedulerConfig {
            workers: WORKERS,
            job_workers: 1,
            ..SchedulerConfig::default()
        };
        let scheduler = Arc::new(Scheduler::start(config, store));
        let socket = dir.join("fd.sock");
        let server = {
            let (socket, scheduler) = (socket.clone(), Arc::clone(&scheduler));
            std::thread::spawn(move || serve_unix(&socket, scheduler))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            if Instant::now() > deadline || server.is_finished() {
                return Err("daemon never bound its socket".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Daemon {
            socket,
            store_dir,
            scheduler,
            server,
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// Asks the daemon to shut down and waits for the server and every
    /// scheduler worker to end.
    fn stop(self) -> Result<PathBuf, String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let served = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        asked?;
        served.map_err(|e| format!("serve: {e}"))?;
        match Arc::try_unwrap(self.scheduler) {
            Ok(scheduler) => scheduler.join(),
            Err(_) => return Err("scheduler still shared after the server ended".into()),
        }
        Ok(self.store_dir)
    }
}

/// One client: its connection and everything it observed.
struct ClientState {
    id: u64,
    conn: Client,
    /// Next fresh-sweep index.
    k: u64,
    /// Fresh sweeps that finished, with their `mean_vdd_reduction` bits.
    finished: Vec<(SweepSpec, u64)>,
    fresh_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    fresh_chips: u64,
    repeat_chips: u64,
    repeat_resumed: u64,
    busy: u64,
    errors: Vec<Option<String>>,
    responses: Vec<Response>,
    dead: bool,
}

/// Wall-clock landmarks of one job, seen from the client.
struct Timed {
    start: Instant,
    submitted: Instant,
    first_chip: Option<Instant>,
    end: Instant,
    outcome: JobOutcome,
    streamed: u64,
}

impl ClientState {
    fn new(id: u64, conn: Client) -> ClientState {
        ClientState {
            id,
            conn,
            k: 0,
            finished: Vec::new(),
            fresh_ms: Vec::new(),
            repeat_ms: Vec::new(),
            fresh_chips: 0,
            repeat_chips: 0,
            repeat_resumed: 0,
            busy: 0,
            errors: Vec::new(),
            responses: Vec::new(),
            dead: false,
        }
    }

    /// Submits `spec` and watches it to its terminal frame. `Ok(None)` is
    /// a `Busy` shed.
    fn job(&mut self, spec: &SweepSpec, record: bool) -> Result<Option<Timed>, String> {
        let start = Instant::now();
        let sub = match self.conn.submit(spec.clone()) {
            Ok(Ok(sub)) => sub,
            Ok(Err(busy)) => {
                self.busy += 1;
                if let Response::Busy { retry_after_ms, .. } = busy {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(200)));
                }
                return Ok(None);
            }
            Err(e) => return Err(format!("submit: {e}")),
        };
        let submitted = Instant::now();
        if record {
            self.responses.push(Response::Submitted {
                job: sub.job,
                deduped: sub.deduped,
            });
        }
        let mut first_chip = None;
        let mut streamed = 0;
        let responses = &mut self.responses;
        let outcome = self
            .conn
            .watch(sub.job, |resp| {
                if let Response::Chip { .. } = resp {
                    first_chip.get_or_insert_with(Instant::now);
                    streamed += 1;
                }
                if record {
                    responses.push(resp.clone());
                }
            })
            .map_err(|e| format!("watch: {e}"))?;
        Ok(Some(Timed {
            start,
            submitted,
            first_chip,
            end: Instant::now(),
            outcome,
            streamed,
        }))
    }

    /// One traced or untraced job; returns its timing if it got a
    /// terminal frame, logging every failure.
    fn timed_job(
        &mut self,
        spec: &SweepSpec,
        tracer: Option<&mut Tracer>,
        op: u64,
    ) -> Option<Timed> {
        let record = tracer.is_some();
        let ran = match tracer {
            None => self.job(spec, false),
            Some(t) => t.span("fleetd.job", op, |t| {
                let ran = self.job(spec, record);
                if let Ok(Some(timed)) = &ran {
                    t.record("fleetd.submit", op, timed.start, timed.submitted);
                    match timed.first_chip {
                        Some(first) => {
                            t.record("fleetd.wait_first_chip", op, timed.submitted, first);
                            t.record("fleetd.stream_chips", op, first, timed.end);
                        }
                        None => t.record("fleetd.wait_done", op, timed.submitted, timed.end),
                    }
                }
                ran
            }),
        };
        match ran {
            Ok(Some(timed)) => Some(timed),
            Ok(None) => {
                self.errors
                    .push(Some("busy: the daemon shed the submission".into()));
                None
            }
            Err(e) => {
                self.errors.push(Some(e));
                self.dead = true;
                None
            }
        }
    }

    /// One closed-loop cycle: a fresh sweep, then a resubmission of a
    /// finished one.
    fn cycle(&mut self, seed: u64, mut tracer: Option<&mut Tracer>) {
        let k = self.k;
        self.k += 1;
        let op = (self.id << 32) | (2 * k);
        let spec = jobs::daemon_fresh(seed, self.id, k);
        if let Some(timed) = self.timed_job(&spec, tracer.as_deref_mut(), op) {
            let error = match timed.outcome {
                JobOutcome::Done {
                    chips,
                    resumed,
                    mean_vdd_reduction,
                    violations,
                } if chips == DAEMON_CHIPS
                    && resumed == 0
                    && violations == 0
                    && timed.streamed == chips =>
                {
                    self.finished.push((spec, mean_vdd_reduction.to_bits()));
                    self.fresh_chips += chips;
                    self.fresh_ms.push(ms(timed.end - timed.start));
                    None
                }
                other => Some(format!("fresh sweep {k} of client {}: {other:?}", self.id)),
            };
            self.errors.push(error);
        }
        if self.dead || self.finished.is_empty() {
            return;
        }
        let pick = jobs::daemon_repeat_pick(seed, self.id, k, self.finished.len());
        let (spec, bits) = self.finished[pick].clone();
        if let Some(timed) = self.timed_job(&spec, tracer, op + 1) {
            let error = match timed.outcome {
                JobOutcome::Done {
                    chips,
                    resumed,
                    mean_vdd_reduction,
                    ..
                } => {
                    self.repeat_chips += chips;
                    self.repeat_resumed += resumed;
                    self.repeat_ms.push(ms(timed.end - timed.start));
                    if chips != DAEMON_CHIPS
                        || resumed != chips
                        || mean_vdd_reduction.to_bits() != bits
                    {
                        Some(format!(
                            "repeat of client {} sweep {pick}: chips {chips}, resumed {resumed}, \
                             reduction bits {:x} vs {bits:x}",
                            self.id,
                            mean_vdd_reduction.to_bits()
                        ))
                    } else {
                        None
                    }
                }
                other => Some(format!(
                    "repeat of client {} sweep {pick}: {other:?}",
                    self.id
                )),
            };
            self.errors.push(error);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs every client in its own thread until `until` (and at least until
/// its fresh index reaches `min_k`); returns the phase's wall time.
fn phase(
    clients: &mut [ClientState],
    seed: u64,
    until: Instant,
    min_k: u64,
    tracers: Option<&mut [Tracer]>,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
            Some(ts) => ts.iter_mut().map(Some).collect(),
            None => clients.iter().map(|_| None).collect(),
        };
        for (c, mut t) in clients.iter_mut().zip(tracers.drain(..)) {
            scope.spawn(move || {
                while !c.dead && (c.k < min_k || Instant::now() < until) {
                    c.cycle(seed, t.as_deref_mut());
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Boots a daemon and connects the clients.
fn boot_with_clients(dir: &Path) -> Result<(Daemon, Vec<ClientState>), String> {
    let daemon = Daemon::boot(dir)?;
    let clients = (0..CLIENTS)
        .map(|id| daemon.connect().map(|conn| ClientState::new(id, conn)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, clients))
}

/// The set-up: store boot, scheduler and server start, client connects,
/// and one warm-up cycle per client (its fresh sweep seeds the repeat
/// pool), with a digest of the warm-up sweeps' results.
fn setup(ctx: &Ctx) -> (Result<(Daemon, Vec<ClientState>), String>, String) {
    let booted = boot_with_clients(&ctx.run_dir).map(|(daemon, mut clients)| {
        phase(&mut clients, ctx.seed, Instant::now(), 1, None);
        (daemon, clients)
    });
    let mut digest = Digest::default();
    match &booted {
        Ok((_, clients)) => {
            for (spec, bits) in clients.iter().flat_map(|c| &c.finished) {
                digest.word(spec.seed);
                digest.word(*bits);
            }
        }
        Err(e) => digest.bytes(e.as_bytes()),
    }
    (booted, digest.hex())
}

/// One set-up repetition on its own: seconds since process start and the
/// warm-up digest; the daemon is stopped after the clock is read.
pub fn setup_only(ctx: &Ctx) -> (f64, String) {
    let (booted, digest) = setup(ctx);
    let secs = ctx.epoch.elapsed().as_secs_f64();
    if let Ok((daemon, clients)) = booted {
        drop(clients);
        let _ = daemon.stop();
    }
    (secs, digest)
}

/// Runs the `daemon-mixed` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.seed;

    let (setup_s, booted) = repeated_setup(ctx, &mut out, || setup(ctx));
    let (daemon, mut clients) = match booted {
        Ok(b) => b,
        Err(e) => {
            out.op(Some(format!("daemon set-up: {e}")));
            return out;
        }
    };
    // Warm-up jobs count as operations, but not as timed ones.
    for c in clients.iter_mut() {
        c.fresh_ms.clear();
        c.repeat_ms.clear();
        c.fresh_chips = 0;
    }

    let until = Instant::now() + ctx.untraced_budget();
    let wall = phase(&mut clients, seed, until, 1 + DIGEST_CYCLES, None);
    let fresh: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.fresh_ms.iter().copied())
        .collect();
    let repeat: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.repeat_ms.iter().copied())
        .collect();
    let fresh_chips: u64 = clients.iter().map(|c| c.fresh_chips).sum();
    let (fresh_d, repeat_d) = (Dist::of(&fresh), Dist::of(&repeat));
    let chips_per_s = fresh_chips as f64 / wall;

    let mut traced = None;
    if ctx.trace {
        let mut tracers: Vec<Tracer> = clients.iter().map(|_| Tracer::new(ctx.epoch)).collect();
        let marks: Vec<(usize, usize)> = clients
            .iter()
            .map(|c| (c.fresh_ms.len(), c.repeat_ms.len()))
            .collect();
        let until = Instant::now() + ctx.traced_budget();
        let min_k = clients.iter().map(|c| c.k + 1).max().unwrap_or(0);
        phase(&mut clients, seed, until, min_k, Some(&mut tracers));
        let mut tracer = Tracer::new(ctx.epoch);
        for t in tracers {
            tracer.absorb(t);
        }
        let traced_fresh: Vec<f64> = clients
            .iter()
            .zip(&marks)
            .flat_map(|(c, m)| c.fresh_ms[m.0..].iter().copied())
            .collect();
        let traced_repeat: Vec<f64> = clients
            .iter()
            .zip(&marks)
            .flat_map(|(c, m)| c.repeat_ms[m.1..].iter().copied())
            .collect();
        traced = Some((tracer, median(&traced_fresh), median(&traced_repeat)));
    }

    // Digest and fidelity over the warm-up and digest cycles' fresh sweeps.
    let mut digest = Digest::default();
    let mut reductions = Vec::new();
    for c in &clients {
        for (spec, bits) in c.finished.iter().take(1 + DIGEST_CYCLES as usize) {
            digest.word(spec.seed);
            digest.word(*bits);
            reductions.push(f64::from_bits(*bits));
        }
    }
    let cut = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    out.line(format!(
        "digest {} over {} fresh sweeps (cycles 0..={DIGEST_CYCLES} of each client)",
        digest.hex(),
        reductions.len()
    ));
    out.line(format!(
        "fidelity: mean Vdd cut {} over {}-chip, {} ms quick sweeps (paper ~8.0% at full scale, error {:+.1} pp); \
         energy savings are not reported by the daemon",
        pct(cut),
        DAEMON_CHIPS,
        jobs::DAEMON_RUN_MS,
        100.0 * (cut - 0.08)
    ));
    let repeat_chips: u64 = clients.iter().map(|c| c.repeat_chips).sum();
    let repeat_resumed: u64 = clients.iter().map(|c| c.repeat_resumed).sum();
    let busy: u64 = clients.iter().map(|c| c.busy).sum();
    let responses: Vec<Response> = clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.responses))
        .collect();
    let finished: Vec<SweepSpec> = clients
        .iter()
        .flat_map(|c| c.finished.iter().map(|(s, _)| s.clone()))
        .take(STORE_REPLAY_SWEEPS)
        .collect();
    for c in &mut clients {
        for e in std::mem::take(&mut c.errors) {
            out.op(e);
        }
    }
    out.check(
        clients.iter().all(|c| c.k > DIGEST_CYCLES),
        "a client stopped before the digest cycles",
    );
    drop(clients);
    let store_dir = match daemon.stop() {
        Ok(dir) => dir,
        Err(e) => {
            out.check(false, format!("daemon shutdown: {e}"));
            return out;
        }
    };

    out.line(format!("chips_per_s {chips_per_s:.3} 1/s (fresh chips)"));
    out.line(format!("job latency (fresh): {}", fresh_d.describe("ms")));
    out.line(format!(
        "repeat_job latency (store-served): {}",
        repeat_d.describe("ms")
    ));
    out.line(format!("busy sheds {busy}"));
    if !ctx.trace {
        out.line(format!("setup_s {setup_s:.4} s"));
        out.e2e("setup_s", setup_s, "s");
        out.e2e("ops_per_s", chips_per_s, "1/s");
        out.e2e("op_p50_ms", fresh_d.p50, "ms");
        out.e2e("op_tail_ms", fresh_d.tail.value, "ms");
        return out;
    }

    let (mut tracer, traced_fresh_p50, traced_repeat_p50) = traced.expect("traced pass ran");
    out.layer("fleetd.repeat_job_p50_ms", repeat_d.p50, "ms");
    out.layer("fleetd.repeat_job_tail_ms", repeat_d.tail.value, "ms");
    out.layer(
        "fleetd.store_hit_ratio",
        repeat_resumed as f64 / repeat_chips.max(1) as f64,
        "ratio",
    );
    out.layer("fleetd.busy_shed", busy as f64, "count");
    let p50_ms = |t: &Tracer, name: &str| median(&t.durations_ns(name)) / 1e6;
    out.layer(
        "fleetd.submit_rtt_ms",
        p50_ms(&tracer, "fleetd.submit"),
        "ms",
    );
    out.layer(
        "fleetd.first_chip_ms",
        p50_ms(&tracer, "fleetd.wait_first_chip"),
        "ms",
    );

    // Attribution of the untraced fresh and repeat p50 to the client-side
    // phase spans.
    // Fresh jobs have even op ids, repeats odd ones.
    let share = |phases: &[&str], parity: u64, base: f64| -> (f64, Vec<(String, f64)>) {
        let total: Vec<f64> = tracer
            .per_job_self_ns(phases)
            .into_iter()
            .filter(|(op, _)| op % 2 == parity)
            .map(|(_, ns)| ns)
            .collect();
        let parts = phases
            .iter()
            .map(|p| {
                let d: Vec<f64> = tracer
                    .spans()
                    .iter()
                    .filter(|s| s.name == *p && s.job % 2 == parity)
                    .map(|s| s.duration_ns() as f64)
                    .collect();
                ((*p).to_owned(), median(&d) / 1e6)
            })
            .collect();
        (median(&total) / 1e6 / base, parts)
    };
    let (fresh_share, fresh_parts) = share(
        &[
            "fleetd.submit",
            "fleetd.wait_first_chip",
            "fleetd.stream_chips",
        ],
        0,
        fresh_d.p50,
    );
    let (repeat_share, repeat_parts) =
        share(&["fleetd.submit", "fleetd.wait_done"], 1, repeat_d.p50);
    out.layer("trace.attributed_share", fresh_share, "ratio");
    out.layer("trace.repeat_attributed_share", repeat_share, "ratio");
    out.layer(
        "trace.unattributed_ms",
        fresh_d.p50 * (1.0 - fresh_share),
        "ms",
    );
    out.layer(
        "trace.overhead_ratio",
        traced_fresh_p50 / fresh_d.p50,
        "ratio",
    );
    out.line(format!(
        "attribution of untraced job_p50_ms {:.3} ms:",
        fresh_d.p50
    ));
    for (name, v) in fresh_parts {
        out.line(format!(
            "  {name:<24} {v:>9.3} ms  {}",
            pct(v / fresh_d.p50)
        ));
    }
    out.line(format!("  unattributed {}", pct(1.0 - fresh_share)));
    out.line(format!(
        "attribution of untraced repeat_job_p50_ms {:.3} ms:",
        repeat_d.p50
    ));
    for (name, v) in repeat_parts {
        out.line(format!(
            "  {name:<24} {v:>9.3} ms  {}",
            pct(v / repeat_d.p50)
        ));
    }
    out.line(format!("  unattributed {}", pct(1.0 - repeat_share)));
    out.line(format!(
        "  trace.overhead_ratio {:.4} (fresh), {:.4} (repeat)",
        traced_fresh_p50 / fresh_d.p50,
        traced_repeat_p50 / repeat_d.p50
    ));

    store_layers(ctx, &store_dir, &finished, &mut tracer, &mut out);
    codec_layers(&responses, &mut tracer, &mut out);
    let append_us = p50_ms(&tracer, "fleet.journal_append") * 1e3;
    let save_ms = p50_ms(&tracer, "fleet.checkpoint_save");
    let store_ms = DAEMON_CHIPS as f64 * append_us / 1e3 + save_ms;
    out.line(format!(
        "store writes of a fresh job ({DAEMON_CHIPS} journal appends + 1 checkpoint save, replayed): {store_ms:.3} ms = {} of job_p50_ms",
        pct(store_ms / fresh_d.p50)
    ));
    out.layer("trace.spans", tracer.spans().len() as f64, "count");
    crate::write_spans(ctx, &tracer);
    out
}

/// Times the store layers on the files the run left behind: boot
/// recovery of the whole store, then for a sample of finished sweeps a
/// checkpoint load, and a journal append, checkpoint save and compaction
/// of the loaded chips into scratch files.
fn store_layers(
    ctx: &Ctx,
    store_dir: &Path,
    finished: &[SweepSpec],
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let booted = t.span("fleetd.store_boot", 0, |_| {
        FleetStore::open(store_dir)
            .map_err(|e| e.to_string())
            .and_then(|store| {
                store.boot_recover().map_err(|e| e.to_string())?;
                Ok(store)
            })
    });
    let store = match booted {
        Ok(store) => store,
        Err(e) => {
            out.check(false, format!("store reboot: {e}"));
            return;
        }
    };
    let scratch = ctx.run_dir.join("store-replay");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        out.check(false, format!("scratch dir: {e}"));
        return;
    }
    for (i, spec) in finished.iter().enumerate() {
        let config = config_for(spec);
        let fp = config.fingerprint();
        let replayed = (|| -> Result<(), String> {
            let summaries = t
                .span("fleet.checkpoint_load", i as u64, |_| {
                    load_checkpoint(&store.checkpoint_path(&config), fp)
                })
                .map_err(|e| format!("load: {e}"))?;
            if summaries.len() as u64 != DAEMON_CHIPS {
                return Err(format!("{} chips stored", summaries.len()));
            }
            let journal = scratch.join(format!("{i}.journal"));
            let ckpt = scratch.join(format!("{i}.ckpt"));
            let mut j = ChipJournal::create(&journal, fp).map_err(|e| format!("journal: {e}"))?;
            for s in &summaries {
                t.span("fleet.journal_append", i as u64, |_| j.append(s))
                    .map_err(|e| format!("append: {e}"))?;
            }
            drop(j);
            t.span("fleet.checkpoint_save", i as u64, |_| {
                save_checkpoint(&ckpt, fp, &summaries)
            })
            .map_err(|e| format!("save: {e}"))?;
            t.span("fleet.compact", i as u64, |_| {
                compact_streaming(&ckpt, &journal)
            })
            .map_err(|e| format!("compact: {e}"))?;
            Ok(())
        })();
        if let Err(e) = replayed {
            out.check(false, format!("store replay of sweep {i}: {e}"));
        }
    }
    let p50 = |name: &str| median(&t.durations_ns(name)) / 1e6;
    out.layer("fleetd.store_boot_ms", p50("fleetd.store_boot"), "ms");
    out.layer(
        "fleet.checkpoint_load_ms",
        p50("fleet.checkpoint_load"),
        "ms",
    );
    out.layer(
        "fleet.journal_append_us",
        p50("fleet.journal_append") * 1e3,
        "us",
    );
    out.layer(
        "fleet.checkpoint_save_ms",
        p50("fleet.checkpoint_save"),
        "ms",
    );
    out.layer("fleet.compact_ms", p50("fleet.compact"), "ms");
}

/// Times `encode_response` + `write_frame` and `read_frame` +
/// `decode_response` over the recorded response stream.
fn codec_layers(responses: &[Response], t: &mut Tracer, out: &mut Outcome) {
    let mut wire = Vec::new();
    let mut decoded = Vec::new();
    for pass in 0..CODEC_PASSES {
        wire.clear();
        t.span("fleetd.frame_encode", pass as u64, |_| {
            for r in responses {
                write_frame(&mut wire, &encode_response(r)).expect("writing to a Vec cannot fail");
            }
        });
        decoded.clear();
        let read = t.span("fleetd.frame_decode", pass as u64, |_| {
            let mut cur = Cursor::new(&wire);
            while let Some(text) = read_frame(&mut cur)? {
                decoded.push(decode_response(&text)?);
            }
            Ok::<(), vs_fleetd::ProtocolError>(())
        });
        if let Err(e) = read {
            out.check(false, format!("frame decode: {e}"));
            return;
        }
    }
    out.check(
        decoded == responses,
        "the frame codec did not round-trip the response stream",
    );
    let ns: f64 = ["fleetd.frame_encode", "fleetd.frame_decode"]
        .iter()
        .map(|n| t.durations_ns(n).iter().sum::<f64>())
        .sum();
    let frames = responses.len() * CODEC_PASSES;
    out.layer("fleetd.frames", responses.len() as f64, "count");
    out.layer(
        "fleetd.frame_codec_us",
        ns / frames.max(1) as f64 / 1e3,
        "us",
    );
}
