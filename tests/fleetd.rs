//! End-to-end fleet-daemon sessions over both transports.
//!
//! Each test drives a real [`Scheduler`] with real sweep jobs:
//!
//! * a full client/server session over the **Unix socket** transport —
//!   submit, stream incremental telemetry, query stats, cancel, typed
//!   `Busy` beyond the admission cap, graceful shutdown;
//! * the same session shape over the **JSONL-over-stdio** fallback,
//!   driven with in-memory buffers through the identical handler;
//! * crash recovery: a store left the way a SIGKILL'd daemon leaves it
//!   (journal records, no checkpoint) recovers every completed chip on
//!   restart, and the resumed sweep matches an uninterrupted run
//!   bit-for-bit. (CI additionally smokes the real binary with a real
//!   `kill -9`.)

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use vs_fleet::{simulate_chip, ChipJournal, ControllerVariant};
use vs_fleetd::server::{serve_jsonl, serve_unix};
use vs_fleetd::{
    config_for, Client, FleetStore, JobOutcome, Response, Scheduler, SchedulerConfig, SweepSpec,
};
use vs_types::ChipId;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("voltspec-fleetd-e2e").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(seed: u64, chips: u64) -> SweepSpec {
    SweepSpec {
        seed,
        chips,
        variant: ControllerVariant::Hardware,
        quick: true,
        run_ms: 0,
        sentinel: false,
        inject: String::new(),
        key: String::new(),
        deadline_ms: 0,
    }
}

fn tight_sched() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        queue_cap: 1,
        job_workers: 2,
        deadline: Some(Duration::from_secs(120)),
    }
}

#[test]
fn socket_session_full_lifecycle() {
    let dir = scratch("socket");
    let socket = dir.join("fleetd.sock");
    let store = FleetStore::open(&dir.join("store")).unwrap();
    let scheduler = Arc::new(Scheduler::start(tight_sched(), store));
    let serve = {
        let scheduler = Arc::clone(&scheduler);
        let socket = socket.clone();
        thread::spawn(move || serve_unix(&socket, scheduler))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        thread::sleep(Duration::from_millis(20));
    }

    let mut client = Client::connect(&socket).unwrap();
    // One worker, one queue slot: the first job runs, the second queues,
    // and everything past that must be a typed Busy.
    let running = client.submit(spec(1, 6)).unwrap().expect("admitted").job;
    let queued = client.submit(spec(2, 6)).unwrap().expect("queued").job;
    match client.submit(spec(3, 6)).unwrap() {
        Err(Response::Busy { queued: q, cap, .. }) => {
            assert_eq!(cap, 1);
            assert_eq!(q, 1);
        }
        other => panic!("expected Busy past the cap, got {other:?}"),
    }

    // Cancel the queued job while the first still runs; it must end
    // Cancelled without ever simulating a chip.
    client.cancel(queued).unwrap();

    // Stream the running job on a second connection: incremental chip
    // frames carrying telemetry JSONL, then the terminal Done.
    let mut watcher = Client::connect(&socket).unwrap();
    let mut chip_events = Vec::new();
    let outcome = watcher
        .watch(running, |resp| {
            if let Response::Chip {
                completed,
                total,
                event,
                ..
            } = resp
            {
                assert!(*completed >= 1 && *completed <= *total);
                assert!(
                    event.starts_with("{\"event\":\"job_finished\""),
                    "chip frame carries the telemetry event, got {event:?}"
                );
                chip_events.push(event.clone());
            }
        })
        .unwrap();
    assert_eq!(chip_events.len(), 6, "every chip streamed incrementally");
    match outcome {
        JobOutcome::Done {
            chips,
            resumed,
            violations,
            ..
        } => {
            assert_eq!(chips, 6);
            assert_eq!(resumed, 0);
            assert_eq!(violations, 0);
        }
        other => panic!("expected Done, got {other:?}"),
    }
    match watcher.watch(queued, |_| {}).unwrap() {
        JobOutcome::Cancelled { chips } => assert_eq!(chips, 0),
        other => panic!("expected Cancelled, got {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.workers, 1);
    assert_eq!(stats.queue_cap, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.stored_chips, 6);
    // Both jobs reached terminal events before this snapshot, so the
    // running/queued gauges must already read zero — counters settle
    // strictly before the terminal push.
    assert_eq!(stats.running, 0);
    assert_eq!(stats.queued, 0);

    client.shutdown().unwrap();
    serve.join().unwrap().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stdio_session_full_lifecycle() {
    let dir = scratch("stdio");
    let store = FleetStore::open(&dir.join("store")).unwrap();
    let scheduler = Scheduler::start(SchedulerConfig::default(), store);

    // The whole session, scripted: the first admitted job has id 1.
    let submit = vs_fleetd::protocol::encode_request(&vs_fleetd::Request::Submit(spec(7, 3)));
    let watch = vs_fleetd::protocol::encode_request(&vs_fleetd::Request::Watch { job: 1 });
    let stats = vs_fleetd::protocol::encode_request(&vs_fleetd::Request::Stats);
    let shutdown = vs_fleetd::protocol::encode_request(&vs_fleetd::Request::Shutdown);
    let script = format!("{submit}\n{watch}\nnot json at all\n{stats}\n{shutdown}\n");

    let mut input = script.as_bytes();
    let mut output = Vec::new();
    serve_jsonl(&scheduler, &mut input, &mut output).unwrap();
    scheduler.join();

    let output = String::from_utf8(output).unwrap();
    let responses: Vec<Response> = output
        .lines()
        .map(|l| vs_fleetd::protocol::decode_response(l).unwrap())
        .collect();
    assert!(matches!(responses[0], Response::Submitted { job: 1, .. }));
    let chips = responses
        .iter()
        .filter(|r| matches!(r, Response::Chip { .. }))
        .count();
    assert_eq!(chips, 3, "watch streamed every chip as a JSONL line");
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Done { chips: 3, .. })));
    // The garbage line got a typed error, not a dead daemon.
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Error { .. })));
    match responses
        .iter()
        .find(|r| matches!(r, Response::Stats(_)))
        .unwrap()
    {
        Response::Stats(s) => {
            assert_eq!(s.completed, 1);
            assert_eq!(s.stored_chips, 3);
            // The stats request was scripted after the job's terminal
            // line, so the running gauge has already settled.
            assert_eq!(s.running, 0);
        }
        _ => unreachable!(),
    }
    assert!(matches!(responses.last(), Some(Response::Bye)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_recovers_the_journal_and_matches_an_uninterrupted_run() {
    let sweep = spec(55, 8);
    let config = config_for(&sweep);

    // A store exactly as a SIGKILL'd daemon leaves it: the write-ahead
    // journal holds the chips that finished, no checkpoint was ever
    // compacted. (The runner fsyncs each journal record before moving
    // on, so this is the real post-kill disk state.)
    let crashed_dir = scratch("crashed");
    let crashed = FleetStore::open(&crashed_dir.join("store")).unwrap();
    let mut journal =
        ChipJournal::create(&crashed.journal_path(&config), config.fingerprint()).unwrap();
    for i in 0..3 {
        journal.append(&simulate_chip(&config, ChipId(i))).unwrap();
    }
    drop(journal);

    // Daemon restart: recovery folds the journal into a checkpoint
    // streaming, losing nothing.
    let reports = crashed.recover().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].merged, 3, "all journaled chips recovered");
    assert_eq!(reports[0].skipped, 0);
    assert_eq!(crashed.stored_chips(), 3);

    // Resubmitting the same sweep resumes: 3 restored, 5 simulated.
    let scheduler = Scheduler::start(SchedulerConfig::default(), crashed.clone());
    let resumed_outcome = run_to_end(&scheduler, sweep.clone());
    scheduler.join();
    let JobOutcome::Done {
        chips,
        resumed,
        mean_vdd_reduction: resumed_mean,
        ..
    } = resumed_outcome
    else {
        panic!("expected Done, got {resumed_outcome:?}");
    };
    assert_eq!(chips, 8);
    assert_eq!(resumed, 3);

    // And the result is bit-identical to a never-interrupted run.
    let fresh_dir = scratch("fresh");
    let fresh = FleetStore::open(&fresh_dir.join("store")).unwrap();
    let scheduler = Scheduler::start(SchedulerConfig::default(), fresh.clone());
    let fresh_outcome = run_to_end(&scheduler, sweep);
    scheduler.join();
    let JobOutcome::Done {
        chips: fresh_chips,
        mean_vdd_reduction: fresh_mean,
        ..
    } = fresh_outcome
    else {
        panic!("expected Done, got {fresh_outcome:?}");
    };
    assert_eq!(fresh_chips, 8);
    assert_eq!(
        resumed_mean.to_bits(),
        fresh_mean.to_bits(),
        "recovered run must match the uninterrupted run exactly"
    );
    assert_eq!(
        fs::read(crashed.checkpoint_path(&config)).unwrap(),
        fs::read(fresh.checkpoint_path(&config)).unwrap(),
        "the stores converge byte-for-byte"
    );
    let _ = fs::remove_dir_all(&crashed_dir);
    let _ = fs::remove_dir_all(&fresh_dir);
}

/// Submits a sweep and follows its event stream to the terminal event,
/// without a transport — the scheduler is the system under test here.
fn run_to_end(scheduler: &Scheduler, sweep: SweepSpec) -> JobOutcome {
    let job = scheduler.submit(sweep).unwrap().expect("admitted").job;
    let mut cursor = 0;
    loop {
        let chunk = scheduler
            .watch(job, cursor, Duration::from_millis(200))
            .expect("job known");
        for event in &chunk.events {
            cursor += 1;
            match event {
                Response::Done {
                    chips,
                    resumed,
                    mean_vdd_reduction,
                    violations,
                    ..
                } => {
                    return JobOutcome::Done {
                        chips: *chips,
                        resumed: *resumed,
                        mean_vdd_reduction: *mean_vdd_reduction,
                        violations: *violations,
                    }
                }
                Response::Cancelled { chips, .. } => {
                    return JobOutcome::Cancelled { chips: *chips }
                }
                Response::Failed { error, .. } => {
                    return JobOutcome::Failed {
                        error: error.clone(),
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon-tier torture: seeded fault schedules against a live daemon.
// ---------------------------------------------------------------------------

use vs_faults::{minimize, FaultPlan, FaultSpec};
use vs_fleetd::torture::{run_torture_case, torture_diverges, TortureCase};

/// The acceptance gate of the torture layer: a seeded schedule mixing
/// every injection surface — torn frames, a dropped connection, a
/// stalled read, store ENOSPC, and an overload flood past admission
/// control — must leave a retrying client with results byte-identical
/// to a fault-free run, zero duplicate sweeps, and every fault visible
/// in the scraped metrics snapshot.
#[test]
fn seeded_torture_schedule_is_survived_byte_identically() {
    let plan = FaultSpec::parse(
        "daemon:torn:2,daemon:disconnect:1,daemon:stall:1,daemon:enospc:2,daemon:overload:3",
    )
    .unwrap()
    .materialize(1);
    let clean_plan = FaultPlan::new();
    let fault_dir = scratch("torture-fault");
    let clean_dir = scratch("torture-clean");
    let fault = run_torture_case(&TortureCase {
        plan: &plan,
        seed: 99,
        chips: 4,
        job_workers: 2,
        break_dedup: false,
        dir: &fault_dir,
    })
    .unwrap();
    let clean = run_torture_case(&TortureCase {
        plan: &clean_plan,
        seed: 99,
        chips: 4,
        job_workers: 2,
        break_dedup: false,
        dir: &clean_dir,
    })
    .unwrap();

    // Identical results despite the schedule...
    assert!(
        matches!(fault.outcome, JobOutcome::Done { .. }),
        "tortured run must complete, got {:?}",
        fault.outcome
    );
    assert_eq!(fault.outcome, clean.outcome, "terminal outcomes diverged");
    assert_eq!(
        fault.done_lines, clean.done_lines,
        "per-chip results diverged under faults"
    );
    assert_eq!(fault.done_lines.len(), 4, "every chip exactly once");
    // ...with no duplicate admissions (the idempotency key held)...
    assert_eq!(fault.duplicate_sweeps, 0);
    // ...every scheduled wire fault actually fired...
    assert_eq!(fault.transport.torn_frames, 2);
    assert_eq!(fault.transport.disconnects, 1);
    assert_eq!(fault.transport.stalls, 1);
    assert!(fault.report.transport_retries >= 1, "faults forced retries");
    // ...the overload flood was shed by admission control...
    assert!(fault.shed_fillers >= 1, "overload past the cap must shed");
    // ...and every injection surface shows up in the Prometheus snapshot.
    let snap = vs_obs::PromSnapshot::parse(&fault.metrics).unwrap();
    assert!(
        snap.value("voltspec_guard_fs_enospc_injected")
            .unwrap_or(0.0)
            >= 1.0,
        "injected ENOSPC must be visible in metrics:\n{}",
        fault.metrics
    );
    assert!(
        snap.value("voltspec_fleetd_shed_queue_full").unwrap_or(0.0) >= 1.0,
        "queue-full sheds must be visible in metrics:\n{}",
        fault.metrics
    );
    let _ = fs::remove_dir_all(&fault_dir);
    let _ = fs::remove_dir_all(&clean_dir);
}

/// The planted recovery bug (a client that forgets its idempotency key
/// across transport retries) must be caught by the divergence oracle and
/// delta-debugged to the same minimal reproducer whatever the worker
/// count: one dropped connection, which loses the `submitted` response
/// after the daemon admitted the job — exactly the window idempotency
/// keys exist for.
#[test]
fn planted_idempotency_bug_shrinks_to_the_same_reproducer_for_any_worker_count() {
    let plan = FaultSpec::parse("daemon:torn:1,daemon:disconnect:2,daemon:stall:1")
        .unwrap()
        .materialize(1);
    let mut reproducers = Vec::new();
    for job_workers in [1usize, 4] {
        let dir = scratch(&format!("torture-ddmin-{job_workers}"));
        assert!(
            torture_diverges(&plan, 7, 3, job_workers, true, &dir),
            "the planted bug must make the full schedule diverge ({job_workers} workers)"
        );
        let minimal = minimize(&plan, |cand| {
            torture_diverges(cand, 7, 3, job_workers, true, &dir)
        });
        reproducers.push(minimal.to_spec_string());
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(
        reproducers[0], reproducers[1],
        "the reproducer must not depend on the worker count"
    );
    assert_eq!(reproducers[0], "daemon:disconnect:1");
}
