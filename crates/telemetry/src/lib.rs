//! Structured telemetry for the voltage-speculation stack.
//!
//! Observability for a determinism-obsessed simulator has one hard rule:
//! **watching the run must not change the run, and what is watched must be
//! reproducible.** This crate provides three layers built around that
//! rule:
//!
//! * **Events** — [`TelemetryEvent`] is a small `Copy` enum covering the
//!   interesting transitions of the speculation loop (ECC corrections and
//!   detections, weak-line monitor windows, controller voltage steps,
//!   emergency rollbacks, calibration outcomes) and the fleet job
//!   lifecycle. Simulation code emits into a [`Recorder`] — a category
//!   [`EventFilter`] plus a pre-allocated [`EventRing`] — so the hot path
//!   never allocates and a disabled recorder costs a single branch.
//!   Drained events go to pluggable [`EventSink`]s: [`NullSink`],
//!   [`CaptureSink`] (tests assert exact sequences), or [`JsonlSink`]
//!   (hand-rolled serialization, no external dependencies).
//! * **Metrics** — [`MetricsRegistry`] holds named counters, gauges, and
//!   fixed-bucket histograms, snapshotable at any sim tick;
//!   [`EventMetrics`] derives the standard set (error-rate distribution,
//!   step sizes, time-between-emergencies) straight from an event stream.
//! * **Profiling** — [`Stopwatch`], [`LatencyHistogram`],
//!   [`WorkerProfile`], and [`FleetProfile`] measure wall-clock time for
//!   the fleet runner (per-worker busy/steal/idle, per-chip job latency).
//!
//! # Determinism contract
//!
//! Events are timestamped in **simulation ticks only** ([`SimTime`] from
//! `vs-types`); recorders are per-chip and merged in chip-id order, so a
//! fleet trace is byte-identical for any `--workers` count. Wall-clock
//! numbers live exclusively in the profiling types ([`FleetProfile`] and
//! friends) and must never be mixed into determinism-checked output.
//!
//! [`SimTime`]: vs_types::SimTime

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod metrics;
mod profile;
mod progress;
mod recorder;
mod ring;
mod sink;

pub use event::{EventCategory, EventFilter, SpanLevel, StepDirection, TelemetryEvent};
pub use metrics::{CounterId, EventMetrics, FixedHistogram, GaugeId, HistogramId, MetricsRegistry};
pub use profile::{format_ns, scale_ns, FleetProfile, LatencyHistogram, Stopwatch, WorkerProfile};
pub use progress::{HumanProgress, JsonlProgress, ProgressReport, ProgressSink, SilentProgress};
pub use recorder::{Recorder, DEFAULT_CAPACITY};
pub use ring::EventRing;
pub use sink::{to_jsonl, CaptureSink, EventSink, JsonlSink, NullSink};
