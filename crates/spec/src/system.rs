//! The assembled speculation system (§III, Figure 5).

use crate::calibrate::{calibrate_all, CalibrationOutcome, CalibrationPlan};
use crate::controller::{ControlAction, ControllerConfig, DomainController};
use crate::monitor::EccMonitor;
use std::fmt;
use vs_faults::{FaultAction, FaultInjector, FaultPlan, RecoveryPolicy};
use vs_platform::{Chip, ChipConfig, CrashReason};
use vs_telemetry::{EventCategory, Recorder, StepDirection, TelemetryEvent};
use vs_types::{CoreId, DomainId, Millivolts, SimTime, Watts};
use vs_workload::{Suite, Workload};

/// One sample of the system's time traces (voltage / error-rate figures).
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// When the sample was taken.
    pub at: SimTime,
    /// Regulator set point per domain.
    pub set_point_mv: Vec<i32>,
    /// Effective voltage per domain, in millivolts.
    pub v_eff_mv: Vec<f64>,
    /// Last control-period error-rate reading per domain.
    pub error_rate: Vec<f64>,
    /// Total chip power.
    pub power_w: f64,
}

/// What one [`SpeculationSystem::step`] observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Simulation time at the start of the tick.
    pub at: SimTime,
    /// Total chip power during the tick.
    pub power: Watts,
    /// Emergency interrupts fired during the tick.
    pub emergencies: u64,
    /// Cores that crashed during the tick.
    pub crashes: u64,
}

/// Statistics of one speculation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Wall-clock (simulated) duration of the run.
    pub duration: SimTime,
    /// Mean regulator set point per domain over the run, in millivolts.
    pub mean_vdd_mv: Vec<f64>,
    /// Mean chip power over the run.
    pub mean_power_w: f64,
    /// Total socket energy.
    pub energy_j: f64,
    /// Energy of the speculated core rails only.
    pub core_rail_energy_j: f64,
    /// Correctable errors observed (monitor + workload).
    pub correctable: u64,
    /// Emergency interrupts fired.
    pub emergencies: u64,
    /// Cores that crashed (must stay empty in a healthy run).
    pub crashed_cores: Vec<usize>,
    /// DUEs consumed by the firmware rollback path during the run.
    pub dues_consumed: u64,
    /// Crashes recovered by rolling the domain back during the run.
    pub crash_rollbacks: u64,
    /// Simulated latency charged for rollbacks (firmware handling plus
    /// core restarts); accounted here rather than by stalling the clock.
    pub recovery_time: SimTime,
    /// Domains quarantined (parked at nominal, speculation disabled) by
    /// the end of the run.
    pub quarantined_domains: Vec<usize>,
    /// Periodic trace samples.
    pub trace: Vec<TracePoint>,
}

impl RunStats {
    /// Mean set point across domains, in millivolts.
    pub fn average_domain_vdd(&self) -> f64 {
        self.mean_vdd_mv.iter().sum::<f64>() / self.mean_vdd_mv.len() as f64
    }

    /// True if the run completed without crashes or data corruption.
    pub fn is_safe(&self) -> bool {
        self.crashed_cores.is_empty()
    }

    /// True if the run leaned on the recovery path at all: DUEs consumed,
    /// crashes rolled back, or domains quarantined. A degraded run can
    /// still be safe — that is the point of graceful degradation.
    pub fn is_degraded(&self) -> bool {
        self.dues_consumed > 0 || self.crash_rollbacks > 0 || !self.quarantined_domains.is_empty()
    }

    /// The `q`-quantile of a per-domain trace series, using the shared
    /// [`vs_types::stats::percentile`] definition (`None` when the trace
    /// is empty or the domain index is out of range).
    fn trace_percentile(&self, q: f64, f: impl Fn(&TracePoint) -> Option<f64>) -> Option<f64> {
        let series: Vec<f64> = self.trace.iter().filter_map(f).collect();
        vs_types::stats::percentile(&series, q)
    }

    /// The `q`-quantile of one domain's traced set points, in millivolts
    /// (`None` when the trace is empty or the domain index is out of
    /// range).
    pub fn voltage_percentile(&self, domain: usize, q: f64) -> Option<f64> {
        self.trace_percentile(q, |p| p.set_point_mv.get(domain).map(|v| f64::from(*v)))
    }

    /// The `q`-quantile of one domain's traced error-rate readings.
    pub fn error_rate_percentile(&self, domain: usize, q: f64) -> Option<f64> {
        self.trace_percentile(q, |p| p.error_rate.get(domain).copied())
    }
}

/// A resumable closed-loop run: the accumulation state of
/// [`SpeculationSystem::run`] reified so the run can be advanced in
/// bounded slices, paused between them, and finished at any point.
///
/// This is the engine API long experiments build on: a fleet sweep
/// advances each chip's run a slice at a time (checkpointing between
/// slices), and a monitoring UI can sample [`SpecRun::progress`] without
/// waiting for the whole run. Slicing is semantically free: any
/// partitioning of the run into `advance` calls produces bit-identical
/// statistics.
///
/// ```no_run
/// use vs_platform::ChipConfig;
/// use vs_spec::{ControllerConfig, SpecRun, SpeculationSystem};
/// use vs_types::SimTime;
///
/// let mut sys = SpeculationSystem::new(ChipConfig::low_voltage(1), ControllerConfig::default());
/// sys.calibrate_fast();
/// let mut run = SpecRun::new(&sys, SimTime::from_secs(30));
/// while !run.is_done() {
///     run.advance(&mut sys, 1000); // one-second slices (1 ms tick)
///     let (done, total) = run.progress();
///     eprintln!("{done}/{total} ticks");
/// }
/// let stats = run.finish(&sys);
/// assert!(stats.is_safe());
/// ```
#[derive(Debug, Clone)]
pub struct SpecRun {
    duration: SimTime,
    ticks_total: u64,
    ticks_done: u64,
    vdd_sums: Vec<f64>,
    power_sum: f64,
    emergencies: u64,
    trace: Vec<TracePoint>,
    last_trace: Option<SimTime>,
    energy_before: f64,
    rail_energy_before: f64,
    ce_before: u64,
    dues_before: u64,
    rollbacks_before: u64,
    recovery_before: SimTime,
}

impl SpecRun {
    /// Starts a resumable run of `duration` on a calibrated system.
    ///
    /// # Panics
    ///
    /// Panics if the system has not been calibrated.
    pub fn new(sys: &SpeculationSystem, duration: SimTime) -> SpecRun {
        assert!(
            !sys.controllers.is_empty(),
            "calibrate the system before running it"
        );
        let tick = sys.chip.config().tick;
        SpecRun {
            duration,
            ticks_total: (duration.as_micros() / tick.as_micros()).max(1),
            ticks_done: 0,
            vdd_sums: vec![0.0; sys.controllers.len()],
            power_sum: 0.0,
            emergencies: 0,
            trace: Vec::new(),
            last_trace: None,
            energy_before: sys.chip.energy().total().0,
            rail_energy_before: sys.chip.core_rail_energy().total().0,
            ce_before: sys.chip.log().correctable_count(),
            dues_before: sys.dues_consumed,
            rollbacks_before: sys.crash_rollbacks,
            recovery_before: sys.recovery_time,
        }
    }

    /// Advances the run by up to `max_ticks` ticks (clamped to the ticks
    /// remaining); returns the number executed. A zero return means the
    /// run is complete.
    pub fn advance(&mut self, sys: &mut SpeculationSystem, max_ticks: u64) -> u64 {
        let n_domains = self.vdd_sums.len();
        let budget = max_ticks.min(self.ticks_total - self.ticks_done);
        for _ in 0..budget {
            let report = sys.step();
            self.power_sum += report.power.0;
            for (d, sum) in self.vdd_sums.iter_mut().enumerate() {
                *sum += f64::from(sys.chip.domain_set_point(DomainId(d)).0);
            }
            self.emergencies += report.emergencies;
            let now = sys.chip.now();
            let due = self
                .last_trace
                .is_none_or(|prev| now.saturating_sub(prev) >= sys.trace_spacing);
            if due {
                self.last_trace = Some(now);
                self.trace.push(TracePoint {
                    at: now,
                    set_point_mv: (0..n_domains)
                        .map(|d| sys.chip.domain_set_point(DomainId(d)).0)
                        .collect(),
                    v_eff_mv: (0..n_domains)
                        .map(|d| sys.chip.domain_v_eff_mv(DomainId(d)))
                        .collect(),
                    error_rate: sys.controllers.iter().map(|c| c.last_reading()).collect(),
                    power_w: report.power.0,
                });
            }
        }
        self.ticks_done += budget;
        budget
    }

    /// [`advance`](SpecRun::advance) under cooperative cancellation: the
    /// token is checked *before* the slice executes, so a cancelled run
    /// stops within one slice of the cancel without tearing a slice
    /// mid-tick. Returns `None` once cancelled (the session stays valid —
    /// [`finish`](SpecRun::finish) still produces partial-run statistics),
    /// `Some(ticks executed)` otherwise.
    ///
    /// Cancellation only decides *whether* ticks run, never what they
    /// compute: a run that completes under a never-cancelled token is
    /// bit-identical to one driven by plain `advance`.
    pub fn advance_guarded(
        &mut self,
        sys: &mut SpeculationSystem,
        max_ticks: u64,
        cancel: &vs_guard::CancelToken,
    ) -> Option<u64> {
        if cancel.is_cancelled() {
            return None;
        }
        Some(self.advance(sys, max_ticks))
    }

    /// True once every tick of the requested duration has executed.
    pub fn is_done(&self) -> bool {
        self.ticks_done == self.ticks_total
    }

    /// `(ticks_done, ticks_total)`.
    pub fn progress(&self) -> (u64, u64) {
        (self.ticks_done, self.ticks_total)
    }

    /// Closes the run and produces its statistics. May be called before
    /// the run is complete; means are then over the ticks actually
    /// executed and `duration` reflects the simulated time covered.
    pub fn finish(self, sys: &SpeculationSystem) -> RunStats {
        let ticks = self.ticks_done.max(1);
        let duration = if self.is_done() {
            self.duration
        } else {
            SimTime::from_micros(self.ticks_done * sys.chip.config().tick.as_micros())
        };
        let crashed_cores = (0..sys.chip.config().num_cores)
            .filter(|i| sys.chip.crash_info(CoreId(*i)).is_some())
            .collect();
        RunStats {
            duration,
            mean_vdd_mv: self.vdd_sums.iter().map(|s| s / ticks as f64).collect(),
            mean_power_w: self.power_sum / ticks as f64,
            energy_j: sys.chip.energy().total().0 - self.energy_before,
            core_rail_energy_j: sys.chip.core_rail_energy().total().0 - self.rail_energy_before,
            correctable: sys.chip.log().correctable_count() - self.ce_before,
            emergencies: self.emergencies,
            crashed_cores,
            dues_consumed: sys.dues_consumed - self.dues_before,
            crash_rollbacks: sys.crash_rollbacks - self.rollbacks_before,
            recovery_time: sys.recovery_time.saturating_sub(self.recovery_before),
            quarantined_domains: sys.quarantined_domains(),
            trace: self.trace,
        }
    }
}

/// The complete ECC-guided voltage-speculation system: a chip plus one
/// active monitor and controller per voltage domain.
pub struct SpeculationSystem {
    chip: Chip,
    controllers: Vec<DomainController>,
    config: ControllerConfig,
    calibration: Vec<CalibrationOutcome>,
    trace_spacing: SimTime,
    /// Ticks executed under control (drives control-period scheduling for
    /// the step-wise API).
    ticks_run: u64,
    /// Telemetry collector; disabled (single-branch no-op) by default.
    recorder: Recorder,
    /// Scheduled faults to replay against this run (empty by default).
    faults: FaultInjector,
    /// Rollback tunables; only consulted when `resilient`.
    recovery: RecoveryPolicy,
    /// When set, DUEs and crashes are survived via firmware rollback.
    /// Off by default: an un-resilient system treats crashes as fatal,
    /// exactly as before the fault subsystem existed.
    resilient: bool,
    /// Per-domain last set point observed safe at a control period.
    last_safe_mv: Vec<i32>,
    /// Per-domain rollback counts (DUE + crash), for quarantine.
    rollbacks: Vec<u32>,
    /// Per-domain quarantine flags; a quarantined domain is parked at
    /// nominal and its controller is skipped.
    quarantined: Vec<bool>,
    dues_consumed: u64,
    crash_rollbacks: u64,
    recovery_time: SimTime,
}

impl fmt::Debug for SpeculationSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpeculationSystem")
            .field("chip", &self.chip)
            .field("controllers", &self.controllers.len())
            .field("calibrated", &!self.calibration.is_empty())
            .finish()
    }
}

impl SpeculationSystem {
    /// Builds the system around a fresh chip. Call one of the calibration
    /// methods before [`SpeculationSystem::run`].
    ///
    /// For fallible construction (and recorder / fault-plan wiring in one
    /// expression) use [`SpeculationSystem::builder`].
    ///
    /// # Panics
    ///
    /// Panics if either config is invalid; [`SystemBuilder::build`]
    /// returns the [`vs_types::ConfigError`] instead.
    ///
    /// [`SystemBuilder::build`]: crate::SystemBuilder::build
    pub fn new(chip_config: ChipConfig, config: ControllerConfig) -> SpeculationSystem {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        SpeculationSystem {
            chip: Chip::new(chip_config),
            controllers: Vec::new(),
            config,
            calibration: Vec::new(),
            trace_spacing: SimTime::from_millis(100),
            ticks_run: 0,
            recorder: Recorder::disabled(),
            faults: FaultInjector::default(),
            recovery: RecoveryPolicy::default(),
            resilient: false,
            last_safe_mv: Vec::new(),
            rollbacks: Vec::new(),
            quarantined: Vec::new(),
            dues_consumed: 0,
            crash_rollbacks: 0,
            recovery_time: SimTime::ZERO,
        }
    }

    /// Installs a telemetry recorder. Events are timestamped in simulated
    /// time only, so recording never perturbs the run: statistics are
    /// bit-identical with any recorder installed.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The telemetry recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable recorder access.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Removes and returns all recorded telemetry events, oldest first.
    pub fn take_events(&mut self) -> Vec<TelemetryEvent> {
        self.recorder.take_events()
    }

    /// Installs a fault plan to replay against this run and enables the
    /// recovery path. Worker-panic entries in the plan are ignored here —
    /// they belong to the fleet layer.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = FaultInjector::new(plan);
        self.resilient = true;
    }

    /// Sets the rollback tunables and enables the recovery path (also for
    /// *organic* crashes, not just injected ones). Without this or
    /// [`SpeculationSystem::set_fault_plan`], crashes remain fatal exactly
    /// as in a plain system.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
        self.resilient = true;
    }

    /// True when the DUE/crash recovery path is enabled.
    pub fn is_resilient(&self) -> bool {
        self.resilient
    }

    /// DUEs consumed by the firmware rollback path so far.
    pub fn dues_consumed(&self) -> u64 {
        self.dues_consumed
    }

    /// Crashes recovered by rolling the domain back so far.
    pub fn crash_rollbacks(&self) -> u64 {
        self.crash_rollbacks
    }

    /// Total simulated recovery latency charged so far.
    pub fn recovery_time(&self) -> SimTime {
        self.recovery_time
    }

    /// The last set point observed safe at a control period for `domain`
    /// (nominal until a window completes below the error ceiling).
    pub fn last_safe_mv(&self, domain: DomainId) -> Millivolts {
        Millivolts(self.last_safe_mv[domain.0])
    }

    /// True if `domain` has been quarantined this run.
    pub fn is_quarantined(&self, domain: DomainId) -> bool {
        self.quarantined.get(domain.0).copied().unwrap_or(false)
    }

    /// Indices of quarantined domains, ascending.
    pub fn quarantined_domains(&self) -> Vec<usize> {
        (0..self.quarantined.len())
            .filter(|d| self.quarantined[*d])
            .collect()
    }

    /// The chip under control.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Mutable chip access (workload assignment, inspection).
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }

    /// The per-domain controllers (empty before calibration).
    pub fn controllers(&self) -> &[DomainController] {
        &self.controllers
    }

    /// Mutable controller access (used by recalibration to retarget
    /// monitors).
    pub fn controllers_mut(&mut self) -> &mut [DomainController] {
        &mut self.controllers
    }

    /// Replaces one calibration record (used by recalibration).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the outcome's domain does not
    /// match the slot.
    pub fn set_calibration_entry(&mut self, index: usize, outcome: CalibrationOutcome) {
        assert!(
            index < self.calibration.len(),
            "calibration slot out of range"
        );
        assert_eq!(
            outcome.domain.0, index,
            "outcome domain must match its slot"
        );
        self.calibration[index] = outcome;
    }

    /// The calibration outcomes (empty before calibration).
    pub fn calibration(&self) -> &[CalibrationOutcome] {
        &self.calibration
    }

    /// Sets the spacing of trace samples (default 100 ms).
    pub fn set_trace_spacing(&mut self, spacing: SimTime) {
        self.trace_spacing = spacing;
    }

    /// Calibrates with an explicit plan, then activates one monitor per
    /// domain.
    pub fn calibrate_with(&mut self, plan: &CalibrationPlan) -> &[CalibrationOutcome] {
        // Release any previously designated lines, and drop failure-LUT
        // entries cached for the pre-calibration operating points.
        for ctrl in &mut self.controllers {
            ctrl.monitor_mut().deactivate(&mut self.chip);
        }
        self.controllers.clear();
        self.chip.invalidate_failure_luts();
        self.calibration = calibrate_all(&mut self.chip, plan);
        let n_domains = self.calibration.len();
        // Until a control window completes safely, the only voltage known
        // safe is nominal.
        self.last_safe_mv = vec![self.chip.mode().nominal_vdd().0; n_domains];
        self.rollbacks = vec![0; n_domains];
        self.quarantined = vec![false; n_domains];
        for outcome in &self.calibration {
            let mut monitor = EccMonitor::new(outcome.core, outcome.kind, outcome.line);
            monitor.activate(&mut self.chip);
            self.controllers
                .push(DomainController::new(outcome.domain, monitor, self.config));
        }
        if self.recorder.wants(EventCategory::Calibration) {
            let at = self.chip.now();
            for outcome in &self.calibration {
                self.recorder.emit(TelemetryEvent::Calibrated {
                    at,
                    domain: outcome.domain,
                    core: outcome.core,
                    kind: outcome.kind,
                    set: outcome.line.set as u32,
                    way: outcome.line.way as u32,
                    onset_mv: outcome.onset_vdd.0,
                });
            }
        }
        &self.calibration
    }

    /// Calibrates via the faithful voltage-stepped cache sweep.
    pub fn calibrate(&mut self) -> &[CalibrationOutcome] {
        self.calibrate_with(&CalibrationPlan::default())
    }

    /// Calibrates via the cell-bank oracle (fast path for
    /// experiments; finds the same lines).
    pub fn calibrate_fast(&mut self) -> &[CalibrationOutcome] {
        self.calibrate_with(&CalibrationPlan::fast())
    }

    /// Assigns one benchmark suite to every core, running back to back
    /// with `per_benchmark` per entry (§IV-C runs a full suite instance on
    /// each core).
    pub fn assign_suite(&mut self, suite: Suite, per_benchmark: SimTime) {
        for i in 0..self.chip.config().num_cores {
            self.chip
                .set_workload(CoreId(i), Box::new(suite.back_to_back(per_benchmark)));
        }
    }

    /// Assigns a workload to one core.
    pub fn assign_workload(&mut self, core: CoreId, workload: Box<dyn Workload + Send + Sync>) {
        self.chip.set_workload(core, workload);
    }

    /// Advances the system by exactly one tick under closed-loop control:
    /// chip physics, per-domain monitor probes (with the emergency path),
    /// and — on control-period boundaries — the ±5 mV control law.
    ///
    /// This is the primitive [`SpeculationSystem::run`] is built on;
    /// multi-socket compositions (see [`crate::blade`]) interleave sockets
    /// by calling it directly.
    ///
    /// # Panics
    ///
    /// Panics if the system has not been calibrated.
    pub fn step(&mut self) -> StepReport {
        assert!(
            !self.controllers.is_empty(),
            "calibrate the system before running it"
        );
        let tick = self.chip.config().tick;
        let period_ticks = (self.config.control_period.as_micros() / tick.as_micros()).max(1);
        let report = self.chip.tick();
        self.ticks_run += 1;
        let mut emergencies = 0;
        // Hot-path telemetry gating: each `wants` check is one branch; with
        // the default disabled recorder no event payload is ever gathered.
        let rec_ecc = self.recorder.wants(EventCategory::Ecc);
        let rec_mon = self.recorder.wants(EventCategory::Monitor);
        let rec_ctl = self.recorder.wants(EventCategory::Controller);
        let now = self.chip.now();
        // Replay any injected faults due this tick before the controllers
        // observe the chip, so stuck monitors and droops shape this tick's
        // control decisions.
        if self.resilient && !self.faults.is_idle() {
            self.apply_pending_faults(now);
        }
        for (d, ctrl) in self.controllers.iter_mut().enumerate() {
            let domain = DomainId(d);
            if self.resilient && self.quarantined[d] {
                // Quarantined domains sit at nominal with speculation off.
                continue;
            }
            let ecc_before = if rec_ecc {
                let m = ctrl.monitor();
                (m.lifetime_counts().1, m.lifetime_uncorrectable())
            } else {
                (0, 0)
            };
            let pending_before = if rec_ctl {
                self.chip.domain_regulator_mut(domain).pending().0
            } else {
                0
            };
            let fired = ctrl.on_tick(&mut self.chip);
            if fired {
                emergencies += 1;
            }
            // ECC events first: the corrections are the *cause* of any
            // emergency this tick, so they precede it in the stream.
            if rec_ecc {
                let m = ctrl.monitor();
                let (errors, uncorrectable) = (m.lifetime_counts().1, m.lifetime_uncorrectable());
                if errors > ecc_before.0 {
                    self.recorder.emit(TelemetryEvent::EccCorrection {
                        at: now,
                        domain,
                        core: m.core(),
                        count: errors - ecc_before.0,
                    });
                }
                if uncorrectable > ecc_before.1 {
                    self.recorder.emit(TelemetryEvent::EccDetection {
                        at: now,
                        domain,
                        core: m.core(),
                        count: uncorrectable - ecc_before.1,
                    });
                }
            }
            if fired && rec_ctl {
                let pending = self.chip.domain_regulator_mut(domain).pending().0;
                self.recorder.emit(TelemetryEvent::EmergencyRollback {
                    at: now,
                    domain,
                    rate: ctrl.last_reading(),
                    steps: ctrl.config().emergency_steps,
                    delta_mv: pending - pending_before,
                    set_point_mv: pending,
                });
            }
            if self.ticks_run.is_multiple_of(period_ticks) {
                let window = if rec_mon {
                    let m = ctrl.monitor();
                    (m.access_count(), m.error_count())
                } else {
                    (0, 0)
                };
                let pending_before = if rec_ctl {
                    self.chip.domain_regulator_mut(domain).pending().0
                } else {
                    0
                };
                let observed_mv = if self.resilient {
                    self.chip.domain_set_point(domain).0
                } else {
                    0
                };
                let action = ctrl.on_control_period(&mut self.chip);
                if self.resilient
                    && matches!(
                        action,
                        ControlAction::SteppedDown { .. } | ControlAction::Held { .. }
                    )
                {
                    // The window just measured this set point below the
                    // ceiling: it is the new last-known-safe voltage.
                    self.last_safe_mv[d] = observed_mv;
                }
                if rec_mon && !matches!(action, ControlAction::InsufficientData) {
                    self.recorder.emit(TelemetryEvent::MonitorWindow {
                        at: now,
                        domain,
                        accesses: window.0,
                        errors: window.1,
                        rate: ctrl.last_reading(),
                    });
                }
                if rec_ctl {
                    let pending = self.chip.domain_regulator_mut(domain).pending().0;
                    match action {
                        ControlAction::SteppedDown { rate } => {
                            self.recorder.emit(TelemetryEvent::VoltageStep {
                                at: now,
                                domain,
                                direction: StepDirection::Down,
                                rate,
                                delta_mv: pending - pending_before,
                                set_point_mv: pending,
                            });
                        }
                        ControlAction::SteppedUp { rate } => {
                            self.recorder.emit(TelemetryEvent::VoltageStep {
                                at: now,
                                domain,
                                direction: StepDirection::Up,
                                rate,
                                delta_mv: pending - pending_before,
                                set_point_mv: pending,
                            });
                        }
                        ControlAction::Emergency { rate } => {
                            self.recorder.emit(TelemetryEvent::EmergencyRollback {
                                at: now,
                                domain,
                                rate,
                                steps: ctrl.config().emergency_steps,
                                delta_mv: pending - pending_before,
                                set_point_mv: pending,
                            });
                        }
                        ControlAction::Held { .. } | ControlAction::InsufficientData => {}
                    }
                }
            }
        }
        if self.resilient {
            self.sweep_crashes(now);
        }
        StepReport {
            at: report.at,
            power: report.power,
            emergencies,
            crashes: report.crashes.len() as u64,
        }
    }

    /// Polls the fault injector and applies every action due this tick.
    fn apply_pending_faults(&mut self, now: SimTime) {
        let v_eff: Vec<f64> = (0..self.controllers.len())
            .map(|d| self.chip.domain_v_eff_mv(DomainId(d)))
            .collect();
        let rec_fault = self.recorder.wants(EventCategory::Fault);
        for action in self.faults.poll(now, &v_eff) {
            match action {
                FaultAction::Due { domain } => {
                    if domain.0 >= self.controllers.len() || self.quarantined[domain.0] {
                        continue;
                    }
                    self.dues_consumed += 1;
                    let (safe_mv, rollback_mv) = self.rollback(domain);
                    if rec_fault {
                        self.recorder.emit(TelemetryEvent::DueConsumed {
                            at: now,
                            domain,
                            rollback_mv,
                            safe_mv,
                        });
                    }
                    self.maybe_quarantine(domain, now, rec_fault);
                }
                FaultAction::CoreCrash { core } => {
                    if core.0 < self.chip.config().num_cores && self.chip.crash_info(core).is_none()
                    {
                        self.chip.force_crash(core, CrashReason::Injected);
                    }
                }
                FaultAction::DroopStart { domain, depth } => {
                    if domain.0 < self.controllers.len() {
                        let pending = self.chip.domain_regulator_mut(domain).pending();
                        self.chip.request_domain_voltage(domain, pending - depth);
                    }
                }
                FaultAction::DroopEnd { domain, depth } => {
                    if domain.0 < self.controllers.len() {
                        let pending = self.chip.domain_regulator_mut(domain).pending();
                        self.chip.request_domain_voltage(domain, pending + depth);
                    }
                }
                FaultAction::StuckStart { domain, rate } => {
                    if let Some(ctrl) = self.controllers.get_mut(domain.0) {
                        ctrl.set_stuck_rate(Some(rate));
                    }
                }
                FaultAction::StuckEnd { domain } => {
                    if let Some(ctrl) = self.controllers.get_mut(domain.0) {
                        ctrl.set_stuck_rate(None);
                    }
                }
            }
        }
    }

    /// Recovers every crashed core whose domain is not quarantined:
    /// firmware rolls the domain back to the last safe voltage (plus the
    /// policy margin) and restarts the core. Cores in quarantined domains
    /// stay down.
    fn sweep_crashes(&mut self, now: SimTime) {
        let rec_fault = self.recorder.wants(EventCategory::Fault);
        for i in 0..self.chip.config().num_cores {
            let core = CoreId(i);
            if self.chip.crash_info(core).is_none() {
                continue;
            }
            let domain = self.chip.config().domain_of(core);
            if domain.0 >= self.quarantined.len() || self.quarantined[domain.0] {
                continue;
            }
            self.crash_rollbacks += 1;
            let (safe_mv, rollback_mv) = self.rollback(domain);
            self.chip.recover_core(core);
            if rec_fault {
                self.recorder.emit(TelemetryEvent::CrashRollback {
                    at: now,
                    domain,
                    core,
                    rollback_mv,
                    safe_mv,
                });
            }
            self.maybe_quarantine(domain, now, rec_fault);
        }
    }

    /// One firmware rollback: raise the domain to the last-known-safe set
    /// point plus the safety margin, charge the latency, and count it
    /// toward quarantine. Returns `(last_safe, target)` in millivolts.
    fn rollback(&mut self, domain: DomainId) -> (i32, i32) {
        let safe = Millivolts(self.last_safe_mv[domain.0]);
        // `planted-violation` is a test-only feature that flips the sign of
        // the safety margin, so the firmware "recovers" *below* the
        // last-known-safe point. It exists purely to prove the sentinel
        // catches an unsafe recovery path; never enable it in real builds.
        #[cfg(feature = "planted-violation")]
        let target = safe - self.recovery.safety_margin;
        #[cfg(not(feature = "planted-violation"))]
        let target = safe + self.recovery.safety_margin;
        self.chip.request_domain_voltage(domain, target);
        self.rollbacks[domain.0] += 1;
        self.recovery_time += self.recovery.rollback_latency;
        (safe.0, target.0)
    }

    /// Quarantines `domain` once its rollback count exceeds the policy
    /// limit: parked at nominal, controller skipped for the rest of the
    /// run.
    fn maybe_quarantine(&mut self, domain: DomainId, now: SimTime, rec_fault: bool) {
        if self.quarantined[domain.0]
            || self.rollbacks[domain.0] <= self.recovery.max_rollbacks_per_domain
        {
            return;
        }
        self.quarantined[domain.0] = true;
        let nominal = self.chip.mode().nominal_vdd();
        self.chip.request_domain_voltage(domain, nominal);
        if rec_fault {
            self.recorder.emit(TelemetryEvent::Quarantine {
                at: now,
                domain,
                rollbacks: self.rollbacks[domain.0],
            });
        }
    }

    /// Runs the system for `duration`, applying the control law, and
    /// returns run statistics.
    ///
    /// Equivalent to starting a [`SpecRun`] and advancing it to completion
    /// in one slice; long experiments that need to pause, stream progress,
    /// or checkpoint should drive a [`SpecRun`] directly.
    ///
    /// # Panics
    ///
    /// Panics if the system has not been calibrated.
    pub fn run(&mut self, duration: SimTime) -> RunStats {
        let mut session = SpecRun::new(self, duration);
        session.advance(self, u64::MAX);
        session.finish(self)
    }

    /// Runs the chip at fixed nominal voltage with NO speculation for
    /// `duration` (the baseline the power figures normalize against).
    pub fn run_baseline(&mut self, duration: SimTime) -> RunStats {
        let tick = self.chip.config().tick;
        let ticks = (duration.as_micros() / tick.as_micros()).max(1);
        let nominal = self.chip.mode().nominal_vdd();
        for d in 0..self.chip.config().num_domains() {
            self.chip.request_domain_voltage(DomainId(d), nominal);
        }
        let mut power_sum = 0.0;
        let energy_before = self.chip.energy().total();
        let rail_before = self.chip.core_rail_energy().total();
        let ce_before = self.chip.log().correctable_count();
        for _ in 0..ticks {
            power_sum += self.chip.tick().power.0;
        }
        let n_domains = self.chip.config().num_domains();
        RunStats {
            duration,
            mean_vdd_mv: vec![f64::from(nominal.0); n_domains],
            mean_power_w: power_sum / ticks as f64,
            energy_j: (self.chip.energy().total() - energy_before).0,
            core_rail_energy_j: (self.chip.core_rail_energy().total() - rail_before).0,
            correctable: self.chip.log().correctable_count() - ce_before,
            emergencies: 0,
            crashed_cores: (0..self.chip.config().num_cores)
                .filter(|i| self.chip.crash_info(CoreId(*i)).is_some())
                .collect(),
            dues_consumed: 0,
            crash_rollbacks: 0,
            recovery_time: SimTime::ZERO,
            quarantined_domains: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Mean power over a window at the current instant (diagnostic).
    pub fn instantaneous_power(&self) -> Watts {
        Watts(
            (0..self.chip.config().num_cores)
                .map(|i| self.chip.core_power_w(CoreId(i)))
                .sum(),
        )
    }

    /// The achieved voltage reduction per domain relative to nominal, as a
    /// fraction (e.g. 0.08 for the paper's headline 8 %).
    pub fn voltage_reduction(stats: &RunStats, nominal: Millivolts) -> Vec<f64> {
        stats
            .mean_vdd_mv
            .iter()
            .map(|v| 1.0 - v / f64::from(nominal.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_workload::StressTest;

    fn small_system(seed: u64) -> SpeculationSystem {
        let chip_config = ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        };
        SpeculationSystem::new(chip_config, ControllerConfig::default())
    }

    #[test]
    #[should_panic(expected = "calibrate the system")]
    fn run_requires_calibration() {
        small_system(3).run(SimTime::from_millis(10));
    }

    #[test]
    fn calibration_builds_one_controller_per_domain() {
        let mut sys = small_system(3);
        let outcomes = sys.calibrate_fast().to_vec();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(sys.controllers().len(), 1);
        assert!(sys.controllers()[0].monitor().is_active());
    }

    #[test]
    fn idle_run_reduces_voltage_and_stays_safe() {
        let mut sys = small_system(3);
        sys.calibrate_fast();
        let stats = sys.run(SimTime::from_secs(30));
        assert!(stats.is_safe(), "crashed cores: {:?}", stats.crashed_cores);
        let avg = stats.average_domain_vdd();
        assert!(
            avg < 780.0,
            "controller should speculate below nominal, got {avg}"
        );
        assert!(stats.correctable > 0, "the monitor generates the feedback");
        assert!(!stats.trace.is_empty());
        assert!(stats.energy_j > 0.0);
    }

    #[test]
    fn loaded_run_settles_above_weak_line_vc() {
        let mut sys = small_system(3);
        sys.calibrate_fast();
        let onset = f64::from(sys.calibration()[0].onset_vdd.0);
        sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
        let stats = sys.run(SimTime::from_secs(30));
        assert!(stats.is_safe());
        let avg = stats.average_domain_vdd();
        // Steady state sits a little above the weak cell's Vc (the error
        // band), never below the logic floor.
        assert!(
            avg > onset - 20.0 && avg < onset + 60.0,
            "settled at {avg} vs onset {onset}"
        );
    }

    #[test]
    fn baseline_burns_more_power_than_speculation() {
        let mut sys = small_system(3);
        sys.calibrate_fast();
        sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
        sys.assign_workload(CoreId(1), Box::new(StressTest::default()));
        let spec = sys.run(SimTime::from_secs(20));

        let mut base_sys = small_system(3);
        base_sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
        base_sys.assign_workload(CoreId(1), Box::new(StressTest::default()));
        let base = base_sys.run_baseline(SimTime::from_secs(20));

        assert!(
            spec.core_rail_energy_j < base.core_rail_energy_j,
            "speculation must save energy: {} vs {}",
            spec.core_rail_energy_j,
            base.core_rail_energy_j
        );
    }

    #[test]
    fn trace_spacing_respected() {
        let mut sys = small_system(3);
        sys.calibrate_fast();
        sys.set_trace_spacing(SimTime::from_millis(500));
        let stats = sys.run(SimTime::from_secs(5));
        assert!(stats.trace.len() <= 11, "got {} samples", stats.trace.len());
        assert!(stats.trace.len() >= 9);
    }

    #[test]
    fn sliced_spec_run_matches_one_shot() {
        let run_whole = || {
            let mut sys = small_system(3);
            sys.calibrate_fast();
            sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
            sys.run(SimTime::from_secs(10))
        };
        let run_sliced = |slice: u64| {
            let mut sys = small_system(3);
            sys.calibrate_fast();
            sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
            let mut session = SpecRun::new(&sys, SimTime::from_secs(10));
            while session.advance(&mut sys, slice) > 0 {}
            assert!(session.is_done());
            session.finish(&sys)
        };
        let whole = run_whole();
        for slice in [1, 7, 1000] {
            let sliced = run_sliced(slice);
            assert_eq!(whole, sliced, "slice size {slice} changed the run");
        }
    }

    #[test]
    fn guarded_advance_matches_plain_until_cancelled() {
        let token = vs_guard::CancelToken::new();
        // Uncancelled: bit-identical to the plain driver.
        let mut sys = small_system(3);
        sys.calibrate_fast();
        sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
        let mut session = SpecRun::new(&sys, SimTime::from_secs(10));
        while session.advance_guarded(&mut sys, 1000, &token).unwrap() > 0 {}
        let guarded = session.finish(&sys);

        let mut sys = small_system(3);
        sys.calibrate_fast();
        sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
        assert_eq!(sys.run(SimTime::from_secs(10)), guarded);

        // Cancelled mid-run: advance refuses, the session still finishes
        // with partial stats.
        let mut sys = small_system(3);
        sys.calibrate_fast();
        let mut session = SpecRun::new(&sys, SimTime::from_secs(10));
        assert!(session.advance_guarded(&mut sys, 500, &token).is_some());
        token.cancel();
        assert_eq!(session.advance_guarded(&mut sys, 500, &token), None);
        let (done, _) = session.progress();
        assert_eq!(done, 500, "no ticks run after the cancel");
        let stats = session.finish(&sys);
        assert_eq!(stats.duration, SimTime::from_millis(500));
    }

    #[test]
    fn early_finish_reports_partial_duration() {
        let mut sys = small_system(3);
        sys.calibrate_fast();
        let mut session = SpecRun::new(&sys, SimTime::from_secs(10));
        session.advance(&mut sys, 500);
        let (done, total) = session.progress();
        assert_eq!(done, 500);
        assert_eq!(total, 10_000);
        assert!(!session.is_done());
        let stats = session.finish(&sys);
        assert_eq!(stats.duration, SimTime::from_millis(500));
        assert_eq!(stats.trace.len(), 5);
    }

    #[test]
    fn voltage_reduction_helper() {
        let stats = RunStats {
            duration: SimTime::from_secs(1),
            mean_vdd_mv: vec![736.0, 800.0],
            mean_power_w: 0.0,
            energy_j: 0.0,
            core_rail_energy_j: 0.0,
            correctable: 0,
            emergencies: 0,
            crashed_cores: vec![],
            dues_consumed: 0,
            crash_rollbacks: 0,
            recovery_time: SimTime::ZERO,
            quarantined_domains: vec![],
            trace: vec![],
        };
        let red = SpeculationSystem::voltage_reduction(&stats, Millivolts(800));
        assert!((red[0] - 0.08).abs() < 1e-12);
        assert_eq!(red[1], 0.0);
    }
}
