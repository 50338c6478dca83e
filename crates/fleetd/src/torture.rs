//! The daemon-tier torture layer: a fault-injecting transport wrapper
//! and a self-contained harness that runs one seeded torture case
//! end-to-end — real daemon, real socket, faults on the wire and under
//! the store, a retrying client on top — and reports everything an
//! oracle needs to decide whether the daemon tier held up.
//!
//! Three injection surfaces, all drawn from one [`FaultPlan`]'s
//! `daemon:` atoms:
//!
//! * **Transport** — [`FaultyTransport`] wraps the client's socket and
//!   consumes a shared [`TransportFaultBudget`]: torn frames (half the
//!   bytes, then `BrokenPipe`), disconnects (`ConnectionReset` on read),
//!   and slow-loris stalls (a bounded sleep before the read proceeds).
//!   The budget is shared across reconnects and consumed greedily, so
//!   *where* each fault lands is a pure function of the protocol
//!   exchange — reruns are byte-identical.
//! * **Store** — the `enospc` / `short-write` / `fsync` atoms install a
//!   [`vs_guard::fsfault`] plan on the case's own filesystem handle,
//!   scoped to its store directory, so checkpoint saves, journal
//!   appends, and postmortem bundles fail on a counted schedule.
//! * **Admission** — the `overload` atom floods the scheduler with
//!   filler sweeps before the main submission, forcing queue-full sheds
//!   and `Busy` retries.
//!
//! The harness's correctness contract (what `repro --chaos-daemon`
//! checks case by case): the retrying client's final result is
//! byte-identical to a fault-free baseline, no duplicate sweep is ever
//! admitted, and every injected fault is visible in the scraped metrics.

use crate::client::{submit_and_watch, Client, JobOutcome, RetryPolicy, RetryReport};
use crate::protocol::{Response, SweepSpec};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::server::serve_unix;
use crate::store::FleetStore;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use vs_faults::{DaemonFaultKind, FaultPlan};
use vs_fleet::ControllerVariant;
use vs_guard::fsfault;
use vs_guard::vfs::{StdFs, VfsHandle};

/// How many injected transport faults of each kind were consumed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportFaultCounters {
    /// Writes torn mid-frame.
    pub torn_frames: u64,
    /// Reads answered with a connection reset.
    pub disconnects: u64,
    /// Reads delayed by the slow-loris stall.
    pub stalls: u64,
}

#[derive(Debug)]
struct BudgetState {
    torn_frames: u32,
    disconnects: u32,
    stalls: u32,
    consumed: TransportFaultCounters,
}

/// A counted schedule of transport faults, shared across every
/// connection a retrying client opens — clone it into each
/// [`FaultyTransport`] so a budget of one disconnect means one
/// disconnect for the whole exchange, not one per socket.
#[derive(Debug, Clone)]
pub struct TransportFaultBudget {
    state: Arc<Mutex<BudgetState>>,
}

impl TransportFaultBudget {
    /// A budget with explicit counts.
    pub fn new(torn_frames: u32, disconnects: u32, stalls: u32) -> TransportFaultBudget {
        TransportFaultBudget {
            state: Arc::new(Mutex::new(BudgetState {
                torn_frames,
                disconnects,
                stalls,
                consumed: TransportFaultCounters::default(),
            })),
        }
    }

    /// The transport-surface counts of a plan's `daemon:` atoms
    /// (`torn`, `disconnect`, `stall`); store and overload atoms are
    /// someone else's budget.
    pub fn from_plan(plan: &FaultPlan) -> TransportFaultBudget {
        let count = |kind| plan.daemon_fault_count(kind);
        TransportFaultBudget::new(
            count(DaemonFaultKind::TornFrame),
            count(DaemonFaultKind::Disconnect),
            count(DaemonFaultKind::StalledRead),
        )
    }

    /// Faults consumed so far.
    pub fn consumed(&self) -> TransportFaultCounters {
        self.state.lock().unwrap().consumed
    }

    /// Nothing left to inject.
    pub fn is_spent(&self) -> bool {
        let s = self.state.lock().unwrap();
        s.torn_frames == 0 && s.disconnects == 0 && s.stalls == 0
    }
}

/// How long one injected slow-loris stall holds a read.
const STALL: Duration = Duration::from_millis(75);

/// A byte stream that consumes a [`TransportFaultBudget`] greedily:
/// while torn-frame budget remains, every write tears; then while
/// disconnect budget remains, every read resets; stalls delay reads
/// without failing them. Wrap a `UnixStream` (or anything
/// `Read + Write`) and hand it to [`Client::from_stream`].
#[derive(Debug)]
pub struct FaultyTransport<S> {
    inner: S,
    budget: TransportFaultBudget,
}

impl<S> FaultyTransport<S> {
    /// Wraps `inner`, drawing faults from `budget`.
    pub fn new(inner: S, budget: TransportFaultBudget) -> FaultyTransport<S> {
        FaultyTransport { inner, budget }
    }
}

impl<S: Write> Write for FaultyTransport<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.budget.state.lock().unwrap();
        if state.torn_frames > 0 {
            state.torn_frames -= 1;
            state.consumed.torn_frames += 1;
            drop(state);
            // Half the bytes reach the wire, then the connection dies:
            // the server sees a torn frame, the client sees the error.
            let half = buf.len() / 2;
            if half > 0 {
                let _ = self.inner.write(&buf[..half]);
                let _ = self.inner.flush();
            }
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected fault: torn frame",
            ));
        }
        drop(state);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Read> Read for FaultyTransport<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut state = self.budget.state.lock().unwrap();
        if state.disconnects > 0 {
            state.disconnects -= 1;
            state.consumed.disconnects += 1;
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected fault: connection reset",
            ));
        }
        if state.stalls > 0 {
            state.stalls -= 1;
            state.consumed.stalls += 1;
            drop(state);
            thread::sleep(STALL);
            return self.inner.read(buf);
        }
        drop(state);
        self.inner.read(buf)
    }
}

/// One torture case's inputs.
#[derive(Debug, Clone)]
pub struct TortureCase<'a> {
    /// The fault schedule; only its `daemon:` atoms matter.
    pub plan: &'a FaultPlan,
    /// Sweep seed of the main job (fillers derive theirs from it).
    pub seed: u64,
    /// Chips in the main job.
    pub chips: u64,
    /// Fleet worker threads inside each job — the knob the minimizer
    /// determinism check varies (1 vs 4) without changing results.
    pub job_workers: usize,
    /// Plant the recovery bug: the client forgets its idempotency key
    /// and job id on every transport retry, so a lost `submitted`
    /// response turns into a duplicate sweep.
    pub break_dedup: bool,
    /// Scratch directory; wiped and recreated per run.
    pub dir: &'a Path,
}

/// Everything the oracle needs from one finished case.
#[derive(Debug, Clone)]
pub struct TortureOutcome {
    /// The main job's terminal outcome.
    pub outcome: JobOutcome,
    /// What the retry loop did to get there.
    pub report: RetryReport,
    /// The final job's per-chip telemetry lines, sorted — the
    /// byte-identical payload compared against a fault-free baseline.
    pub done_lines: Vec<String>,
    /// Main-job admissions beyond what the retry report legitimizes —
    /// nonzero means the idempotency machinery failed.
    pub duplicate_sweeps: u64,
    /// Overload fillers that were admitted.
    pub admitted_fillers: u64,
    /// Overload fillers shed by admission control.
    pub shed_fillers: u64,
    /// Transport faults actually consumed.
    pub transport: TransportFaultCounters,
    /// The daemon's Prometheus snapshot, scraped after everything
    /// settled.
    pub metrics: String,
}

/// Runs one seeded torture case end-to-end. The store's fault plan
/// lives on a filesystem handle the case builds for itself, so cases
/// may run concurrently.
///
/// Returns `Err` only for infrastructure failures (socket, store
/// creation) or a retry loop that exhausted its generous budget — a
/// *typed* degradation, never a panic or a hang.
pub fn run_torture_case(case: &TortureCase) -> Result<TortureOutcome, String> {
    let _ = std::fs::remove_dir_all(case.dir);
    let store_dir = case.dir.join("store");
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("create store dir: {e}"))?;

    // Store faults: scoped to this case's store directory, counted, on
    // a handle only this case's store (and so its jobs) writes through.
    let vfs: VfsHandle = Arc::new(StdFs::new());
    vfs.faults().install(
        &store_dir,
        fsfault::FsFaultPlan {
            enospc: case.plan.daemon_fault_count(DaemonFaultKind::Enospc),
            short_writes: case.plan.daemon_fault_count(DaemonFaultKind::ShortWrite),
            fsync_failures: case.plan.daemon_fault_count(DaemonFaultKind::FsyncFail),
        },
    );

    let store = FleetStore::open_on(&vfs, &store_dir).map_err(|e| format!("open store: {e}"))?;
    let sched = Arc::new(Scheduler::start(
        SchedulerConfig {
            workers: 1,
            queue_cap: 1,
            job_workers: case.job_workers.max(1),
            deadline: None,
        },
        store,
    ));

    let socket = case.dir.join("fleetd.sock");
    let server = {
        let sched = Arc::clone(&sched);
        let socket = socket.clone();
        thread::spawn(move || serve_unix(&socket, sched))
    };
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    if !socket.exists() {
        return Err("daemon socket never appeared".into());
    }

    // Overload: flood admission control before the main submission.
    // Fillers are real sweeps with distinct seeds; with one worker and
    // one queue slot, the excess is shed and the main client has to
    // earn its admission through Busy retries.
    let overload = case.plan.daemon_fault_count(DaemonFaultKind::Overload);
    let mut admitted_fillers = Vec::new();
    let mut shed_fillers = 0u64;
    for i in 0..u64::from(overload) {
        let filler = SweepSpec {
            seed: case.seed.wrapping_add(1_000 + i),
            chips: 4,
            variant: ControllerVariant::Hardware,
            quick: true,
            run_ms: 0,
            sentinel: false,
            inject: String::new(),
            key: format!("filler-{i}"),
            deadline_ms: 0,
        };
        match sched.submit(filler).map_err(|e| format!("filler: {e}"))? {
            Ok(sub) => admitted_fillers.push(sub.job),
            Err(_) => shed_fillers += 1,
        }
    }

    let budget = TransportFaultBudget::from_plan(case.plan);
    let spec = SweepSpec {
        seed: case.seed,
        chips: case.chips,
        variant: ControllerVariant::Hardware,
        quick: true,
        run_ms: 0,
        sentinel: false,
        inject: String::new(),
        key: format!("torture-{:016x}", case.plan.digest()),
        deadline_ms: 0,
    };
    let policy = RetryPolicy {
        max_retries: 24,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(200),
        jitter_seed: case.seed,
        deadline: Some(Duration::from_secs(120)),
        break_idempotency: case.break_dedup,
    };

    // Per-job event log: chip telemetry lines keyed by job id, plus a
    // within-stream duplicate check (the exactly-once contract).
    let events: Mutex<BTreeMap<u64, Vec<(u64, String)>>> = Mutex::new(BTreeMap::new());
    let mut stream_duplicates = 0u64;
    let mut seen_chips: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let connect = {
        let socket = socket.clone();
        let budget = budget.clone();
        move || {
            UnixStream::connect(&socket)
                .map(|s| Client::from_stream(FaultyTransport::new(s, budget.clone())))
        }
    };
    let result = submit_and_watch(connect, spec, &policy, |resp| {
        if let Response::Chip {
            job, chip, event, ..
        } = resp
        {
            if !seen_chips.entry(*job).or_default().insert(*chip) {
                stream_duplicates += 1;
            }
            events
                .lock()
                .unwrap()
                .entry(*job)
                .or_default()
                .push((*chip, event.clone()));
        }
    });

    // Let the fillers finish (cancelled, not awaited to completion) so
    // the metrics snapshot settles before scraping.
    for id in &admitted_fillers {
        sched.cancel(*id);
    }
    for id in &admitted_fillers {
        let mut cursor = 0;
        for _ in 0..600 {
            let Some(chunk) = sched.watch(*id, cursor, Duration::from_millis(100)) else {
                break;
            };
            cursor += chunk.events.len();
            if chunk.terminal {
                break;
            }
        }
    }
    let metrics = sched.metrics();

    sched.shutdown();
    let _ = server.join();
    if let Ok(sched) = Arc::try_unwrap(sched) {
        sched.join();
    }

    let report = result.map_err(|e| format!("retry loop gave up: {e}"))?;

    // Duplicate-sweep oracle: every admission beyond the fillers and the
    // first main submission must be explained by a server-side job
    // failure — a failed job releases its idempotency key, so exactly one
    // fresh sweep per failure is legitimate recovery (whether the client
    // observed the failure through `watch` or lost the response to a
    // transport fault and resubmitted blind). Anything beyond that is a
    // sweep the key should have absorbed. Typed submit-time rejections
    // (shed, parked) never increment `jobs_submitted`, so they need no
    // term here.
    let snap =
        vs_obs::PromSnapshot::parse(&metrics).map_err(|e| format!("metrics snapshot: {e}"))?;
    let submitted = snap.value("voltspec_fleetd_jobs_submitted").unwrap_or(0.0) as u64;
    let failed = snap.value("voltspec_fleetd_jobs_failed").unwrap_or(0.0) as u64;
    let expected = admitted_fillers.len() as u64 + 1 + failed;
    let duplicate_sweeps = submitted.saturating_sub(expected) + stream_duplicates;

    let done_lines = {
        let events = events.lock().unwrap();
        let mut lines: Vec<String> = events
            .get(&report.job)
            .map(|chips| chips.iter().map(|(_, event)| event.clone()).collect())
            .unwrap_or_default();
        lines.sort();
        lines
    };

    Ok(TortureOutcome {
        outcome: report.outcome.clone(),
        report,
        done_lines,
        duplicate_sweeps,
        admitted_fillers: admitted_fillers.len() as u64,
        shed_fillers,
        transport: budget.consumed(),
        metrics,
    })
}

/// The `--chaos-daemon` / minimizer oracle: does this fault schedule
/// make the daemon tier misbehave? Runs the schedule and a fault-free
/// baseline in sibling scratch directories and compares: a divergent
/// terminal outcome, divergent per-chip results, any duplicate sweep,
/// or a harness-level failure all count as misbehavior.
pub fn torture_diverges(
    plan: &FaultPlan,
    seed: u64,
    chips: u64,
    job_workers: usize,
    break_dedup: bool,
    scratch: &Path,
) -> bool {
    let clean_plan = FaultPlan::new();
    let fault_dir = scratch.join("fault");
    let clean_dir = scratch.join("clean");
    let faulty = run_torture_case(&TortureCase {
        plan,
        seed,
        chips,
        job_workers,
        break_dedup,
        dir: &fault_dir,
    });
    let clean = run_torture_case(&TortureCase {
        plan: &clean_plan,
        seed,
        chips,
        job_workers,
        break_dedup: false,
        dir: &clean_dir,
    });
    match (faulty, clean) {
        (Ok(faulty), Ok(clean)) => {
            faulty.duplicate_sweeps > 0
                || faulty.outcome != clean.outcome
                || faulty.done_lines != clean.done_lines
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback stream: reads drain what was queued by the test,
    /// writes land in a buffer.
    #[derive(Debug, Default)]
    struct Loopback {
        incoming: io::Cursor<Vec<u8>>,
        outgoing: Vec<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.incoming.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.outgoing.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn budget_is_consumed_greedily_and_shared_across_wrappers() {
        let budget = TransportFaultBudget::new(1, 1, 1);
        let mut first = FaultyTransport::new(
            Loopback {
                incoming: io::Cursor::new(b"hello".to_vec()),
                outgoing: Vec::new(),
            },
            budget.clone(),
        );
        // Torn write: half the bytes land, then BrokenPipe.
        let err = first.write(b"12345678").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(first.inner.outgoing, b"1234");
        // Disconnect consumed on the first read.
        let err = first.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // A second wrapper (a reconnect) shares the same budget: the
        // stall is consumed, then everything passes through clean.
        let mut second = FaultyTransport::new(
            Loopback {
                incoming: io::Cursor::new(b"world".to_vec()),
                outgoing: Vec::new(),
            },
            budget.clone(),
        );
        let mut buf = [0u8; 5];
        second.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");
        assert_eq!(second.write(b"ok").unwrap(), 2);
        assert!(budget.is_spent());
        assert_eq!(
            budget.consumed(),
            TransportFaultCounters {
                torn_frames: 1,
                disconnects: 1,
                stalls: 1,
            }
        );
    }

    #[test]
    fn budget_extraction_ignores_non_transport_atoms() {
        let plan = vs_faults::FaultPlan::new()
            .daemon_fault(DaemonFaultKind::TornFrame, 2)
            .daemon_fault(DaemonFaultKind::Enospc, 3)
            .daemon_fault(DaemonFaultKind::Overload, 4);
        let budget = TransportFaultBudget::from_plan(&plan);
        let state = budget.state.lock().unwrap();
        assert_eq!(state.torn_frames, 2);
        assert_eq!(state.disconnects, 0);
        assert_eq!(state.stalls, 0);
    }
}
