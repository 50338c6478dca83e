//! The chip: cores, domains, and the discrete-time simulation engine.

use crate::config::ChipConfig;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vs_cache::hierarchy::CoreCaches;
use vs_cache::{CacheGeometry, Injector};
use vs_ecc::{CorrectableError, EccEventLog, SecDed, UncorrectableError};
use vs_pdn::{DomainSupply, LoadCurrent, Pdn, VoltageRegulator};
use vs_power::{EnergyMeter, FanSpeed, PowerModel, ThermalParams, ThermalState};
use vs_sram::{CellBank, ChipVariation, FailureLut};
use vs_types::rng::CounterRng;
use vs_types::{
    CacheKind, Celsius, CoreId, DomainId, FlipMask, LineAddress, Millivolts, SetWay, SimTime,
    VddMode, Watts,
};
use vs_workload::{Demand, Workload};

/// Shared cell banks, keyed by `(core, structure)`.
///
/// Banks are pure functions of the chip seed and mode, so chips modelling
/// the *same silicon* (characterization scratch chip, hardware-feedback
/// run, baseline run) can share one set via [`Chip::export_banks`] /
/// [`Chip::preload_banks`] instead of each paying the ranking scan.
pub type BankMap = HashMap<(CoreId, CacheKind), Arc<CellBank>>;

/// Why a core stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashReason {
    /// Effective voltage fell below the core's logic floor.
    LogicFloor,
    /// An uncorrectable (multi-bit) ECC error was consumed.
    UncorrectableError,
    /// Forced by an external fault injector (see [`Chip::force_crash`]).
    Injected,
}

/// Details of a core crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashInfo {
    /// When the crash happened.
    pub at: SimTime,
    /// Why.
    pub reason: CrashReason,
    /// Effective voltage at the moment of the crash, in millivolts.
    pub v_eff_mv: f64,
}

/// What one [`Chip::tick`] observed.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// Simulation time at the *start* of the tick.
    pub at: SimTime,
    /// Effective voltage per domain during the tick, in millivolts.
    pub domain_v_eff_mv: Vec<f64>,
    /// Correctable errors raised this tick.
    pub correctable: u64,
    /// Cores that crashed this tick.
    pub crashes: Vec<(CoreId, CrashInfo)>,
    /// Total chip power this tick.
    pub power: Watts,
}

/// Aggregate observations from one bounded slice of ticks (see
/// [`Chip::run_slice`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceReport {
    /// Simulation time when the slice started.
    pub from: SimTime,
    /// Simulation time when the slice ended.
    pub to: SimTime,
    /// Ticks executed.
    pub ticks: u64,
    /// Mean chip power over the slice.
    pub mean_power_w: f64,
    /// Energy consumed during the slice.
    pub energy_j: f64,
    /// Correctable errors raised during the slice.
    pub correctable: u64,
    /// Core crashes observed during the slice.
    pub crashes: u64,
}

/// Counters from one ECC-monitor probe burst (see [`Chip::monitor_probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeOutcome {
    /// Reads issued.
    pub accesses: u64,
    /// Reads that raised a correctable error.
    pub correctable: u64,
    /// Reads that raised an uncorrectable error.
    pub uncorrectable: u64,
}

impl ProbeOutcome {
    /// The observed correctable-error rate (errors per access); zero when
    /// no accesses were made.
    pub fn error_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.correctable as f64 / self.accesses as f64
        }
    }
}

/// Per-core simulation state.
struct CoreState {
    caches: CoreCaches,
    workload: Option<Box<dyn Workload + Send + Sync>>,
    workload_started: SimTime,
    rng: CounterRng,
    crash: Option<CrashInfo>,
    last_activity: f64,
    /// Lines currently owned by an ECC monitor (excluded from workload
    /// traffic).
    monitor_lines: Vec<(CacheKind, SetWay)>,
}

impl fmt::Debug for CoreState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoreState")
            .field(
                "workload",
                &self.workload.as_ref().map(|w| w.name().to_owned()),
            )
            .field("crash", &self.crash)
            .finish()
    }
}

/// The simulated chip multiprocessor.
pub struct Chip {
    config: ChipConfig,
    variation: ChipVariation,
    power: PowerModel,
    domains: Vec<DomainSupply>,
    domain_v_eff_mv: Vec<f64>,
    cores: Vec<CoreState>,
    /// Structure-of-arrays cell banks (the batched failure kernel's view
    /// of the weak lines), shared across chips of the same die.
    banks: BankMap,
    /// Per-voltage-step failure LUTs derived from the banks.
    luts: HashMap<(CoreId, CacheKind), FailureLut>,
    log: EccEventLog,
    now: SimTime,
    energy: EnergyMeter,
    core_rail_energy: EnergyMeter,
    last_core_power_w: Vec<f64>,
    /// Accumulated operational aging applied to every cell access (hours).
    age_hours: f64,
    /// Dynamic enclosure thermal state; `None` keeps the configured static
    /// temperature (the default, for exact reproducibility of the
    /// temperature-independent experiments).
    thermal: Option<ThermalState>,
}

impl fmt::Debug for Chip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chip")
            .field("mode", &self.config.mode)
            .field("cores", &self.cores.len())
            .field("now", &self.now)
            .field("correctable", &self.log.correctable_count())
            .finish()
    }
}

impl Chip {
    /// Builds a chip from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; use [`ChipConfig::validate`] first
    /// to handle bad configurations as data.
    pub fn new(config: ChipConfig) -> Chip {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let variation = ChipVariation::new(config.seed, config.sram.clone());
        let (lo, hi) = config.regulator_range();
        let nominal = config.mode.nominal_vdd();
        let domains = (0..config.num_domains())
            .map(|_| {
                DomainSupply::new(VoltageRegulator::new(nominal, lo, hi), Pdn::new(config.pdn))
            })
            .collect::<Vec<_>>();
        let cores = (0..config.num_cores)
            .map(|i| CoreState {
                caches: CoreCaches::new(),
                workload: None,
                workload_started: SimTime::ZERO,
                rng: CounterRng::from_key(config.seed, &[0xACC, i as u64]),
                crash: None,
                last_activity: 0.0,
                monitor_lines: Vec::new(),
            })
            .collect();
        let n_domains = config.num_domains();
        let nominal_mv = f64::from(nominal.0);
        Chip {
            last_core_power_w: vec![0.0; config.num_cores],
            cores,
            domains,
            domain_v_eff_mv: vec![nominal_mv; n_domains],
            banks: BankMap::new(),
            luts: HashMap::new(),
            log: EccEventLog::new(),
            now: SimTime::ZERO,
            energy: EnergyMeter::new(),
            core_rail_energy: EnergyMeter::new(),
            power: PowerModel::new(config.power),
            variation,
            config,
            age_hours: 0.0,
            thermal: None,
        }
    }

    /// Enables the dynamic enclosure thermal model: silicon temperature
    /// follows dissipated power and fan speed instead of staying at the
    /// configured constant.
    pub fn enable_thermal(&mut self, params: ThermalParams) {
        let idle = self.power.uncore_power(self.config.mode);
        self.thermal = Some(ThermalState::new(params, idle));
    }

    /// Sets the enclosure fan speed (no-op unless the thermal model is
    /// enabled).
    pub fn set_fan(&mut self, fan: FanSpeed) {
        if let Some(t) = &mut self.thermal {
            t.set_fan(fan);
        }
    }

    /// The silicon temperature the arrays currently see.
    pub fn temperature(&self) -> vs_types::Celsius {
        self.thermal
            .as_ref()
            .map_or(self.config.temperature, |t| t.temperature())
    }

    /// Overrides the static silicon temperature (used when an *external*
    /// thermal model — e.g. a shared blade enclosure — drives it). Has no
    /// effect while the chip's own thermal model is enabled.
    pub fn set_static_temperature(&mut self, temperature: vs_types::Celsius) {
        self.config.temperature = temperature;
    }

    /// Sets the accumulated silicon age. Aging raises cell critical
    /// voltages with per-line random weights (see
    /// [`ChipVariation::aging_shift_mv`]), so both monitor probes and
    /// workload traffic observe it.
    pub fn set_age_hours(&mut self, hours: f64) {
        assert!(hours >= 0.0, "age cannot be negative");
        self.age_hours = hours;
        // Aging moves the query voltage, not the bank, so cached LUT
        // entries stay *correct* — but the working set of operating
        // points shifts, so drop the old ones to keep the tables small.
        self.invalidate_failure_luts();
    }

    /// Drops every cached failure-LUT entry and bumps the LUT epochs.
    ///
    /// Entries are pure functions of the immutable cell banks and the
    /// quantized `(voltage, temperature)` query point, so this is a
    /// boundedness hook, not a correctness requirement: recalibration and
    /// aging transitions call it so stale operating points do not pin
    /// memory.
    pub fn invalidate_failure_luts(&mut self) {
        for lut in self.luts.values_mut() {
            lut.invalidate();
        }
    }

    /// The accumulated silicon age, in hours.
    pub fn age_hours(&self) -> f64 {
        self.age_hours
    }

    /// The aging-induced critical-voltage shift of one line at the current
    /// age, in millivolts. Shifting every cell of a line up by `s` is
    /// equivalent to reading it at `v_eff − s`, which is how the analytic
    /// paths apply it.
    pub fn line_aging_shift_mv(&self, core: CoreId, kind: CacheKind, location: SetWay) -> f64 {
        self.variation
            .aging_shift_mv(core, kind, location, self.age_hours)
    }

    // ----- topology and state accessors -------------------------------

    /// The configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The operating mode.
    pub fn mode(&self) -> VddMode {
        self.config.mode
    }

    /// The variation map (the "silicon").
    pub fn variation(&self) -> &ChipVariation {
        &self.variation
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The chip-wide ECC event log.
    pub fn log(&self) -> &EccEventLog {
        &self.log
    }

    /// Total socket energy so far.
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Energy of the speculated core rails only (excludes uncore).
    pub fn core_rail_energy(&self) -> &EnergyMeter {
        &self.core_rail_energy
    }

    /// Power drawn by one core during the last tick, in watts.
    pub fn core_power_w(&self, core: CoreId) -> f64 {
        self.last_core_power_w[core.0]
    }

    /// The logic floor of a core at the current mode.
    pub fn logic_floor(&self, core: CoreId) -> Millivolts {
        self.variation.logic_floor(core, self.config.mode)
    }

    /// Whether a core has crashed, and how.
    pub fn crash_info(&self, core: CoreId) -> Option<CrashInfo> {
        self.cores[core.0].crash
    }

    /// True if any core has crashed.
    pub fn any_crashed(&self) -> bool {
        self.cores.iter().any(|c| c.crash.is_some())
    }

    /// Crashes a core from the outside (fault injection). The crash is
    /// stamped with the current time and the domain's last effective
    /// voltage; if the core is already down, the original crash record is
    /// kept. Returns the crash record in effect afterwards.
    pub fn force_crash(&mut self, core: CoreId, reason: CrashReason) -> CrashInfo {
        let v_eff = self.domain_v_eff_mv[self.config.domain_of(core).0];
        self.crash_core(core, reason, v_eff);
        self.cores[core.0].crash.expect("crash was just recorded")
    }

    /// Clears a core's crash state: the firmware recovery path has rolled
    /// the domain back and restarted the core. The core's workload resumes
    /// from where its demand curve left off (the crash looks like a stall,
    /// not a restart, to the workload model).
    pub fn recover_core(&mut self, core: CoreId) {
        self.cores[core.0].crash = None;
    }

    // ----- voltage control --------------------------------------------

    /// The regulator of a domain (the voltage controller's handle).
    pub fn domain_regulator_mut(&mut self, domain: DomainId) -> &mut VoltageRegulator {
        self.domains[domain.0].regulator_mut()
    }

    /// The regulator's current output for a domain.
    pub fn domain_set_point(&self, domain: DomainId) -> Millivolts {
        self.domains[domain.0].regulator().output()
    }

    /// Requests a new set point for a domain (applied next tick).
    pub fn request_domain_voltage(&mut self, domain: DomainId, target: Millivolts) {
        self.domains[domain.0].regulator_mut().request(target);
    }

    /// Effective voltage a domain saw during the last tick, in millivolts.
    pub fn domain_v_eff_mv(&self, domain: DomainId) -> f64 {
        self.domain_v_eff_mv[domain.0]
    }

    // ----- workloads ----------------------------------------------------

    /// Assigns a workload to a core, starting it at the current time.
    pub fn set_workload(&mut self, core: CoreId, workload: Box<dyn Workload + Send + Sync>) {
        let state = &mut self.cores[core.0];
        state.workload = Some(workload);
        state.workload_started = self.now;
    }

    /// Removes a core's workload (the core idles in firmware).
    pub fn clear_workload(&mut self, core: CoreId) {
        self.cores[core.0].workload = None;
    }

    /// The name of a core's workload, if any.
    pub fn workload_name(&self, core: CoreId) -> Option<String> {
        self.cores[core.0]
            .workload
            .as_ref()
            .map(|w| w.name().to_owned())
    }

    fn demand_of(&self, core: usize) -> Demand {
        let state = &self.cores[core];
        if state.crash.is_some() {
            return Demand::idle();
        }
        match &state.workload {
            Some(w) => w.demand(self.now.saturating_sub(state.workload_started)),
            None => Demand::idle(),
        }
    }

    // ----- cell banks ----------------------------------------------------

    /// The SoA cell bank of one structure (built lazily, cached, shared
    /// across same-die chips via [`Chip::preload_banks`]).
    pub fn cell_bank(&mut self, core: CoreId, kind: CacheKind) -> Arc<CellBank> {
        let key = (core, kind);
        if !self.banks.contains_key(&key) {
            let geometry = CacheGeometry::for_kind(kind);
            let bank = CellBank::build(
                &self.variation,
                core,
                kind,
                self.config.mode,
                geometry.sets,
                geometry.ways,
                geometry.words_per_line(),
                self.config.weak_lines_tracked,
            );
            self.banks.insert(key, Arc::new(bank));
        }
        Arc::clone(&self.banks[&key])
    }

    /// Snapshot of this chip's cell banks, for sharing with other chips
    /// modelling the same die (cheap: the banks themselves are behind
    /// `Arc`s).
    pub fn export_banks(&self) -> BankMap {
        self.banks.clone()
    }

    /// Adopts pre-built cell banks from another chip of the same die.
    ///
    /// Banks built for a different operating mode are ignored (their cell
    /// voltages would be wrong for this chip); matching ones replace any
    /// lazily-built local copies.
    pub fn preload_banks(&mut self, banks: &BankMap) {
        for (key, bank) in banks {
            if bank.mode() == self.config.mode {
                self.banks.insert(*key, Arc::clone(bank));
            }
        }
    }

    // ----- ECC monitor support ------------------------------------------

    /// Designates a line for exclusive ECC-monitor use: it is de-configured
    /// from normal allocation and preloaded with the monitor's test
    /// pattern (§III-C).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not an L2 structure, or if `location` is not
    /// one of the lines tracked by the structure's [`CellBank`] (see
    /// [`Chip::cell_bank`]): the monitor samples its line from the bank,
    /// so only a tracked line can be monitored.
    pub fn designate_monitor_line(&mut self, core: CoreId, kind: CacheKind, location: SetWay) {
        assert!(kind.is_l2(), "monitors target L2 lines, got {kind}");
        assert!(
            self.cell_bank(core, kind).find(location).is_some(),
            "{kind} line {location} of {core} is not tracked by its cell bank"
        );
        let state = &mut self.cores[core.0];
        let cache = match kind {
            CacheKind::L2Data => &mut state.caches.l2d,
            CacheKind::L2Instruction => &mut state.caches.l2i,
            _ => unreachable!(),
        };
        cache.disable_line(location);
        let words = cache.geometry().words_per_line();
        cache.store_at(location, u64::MAX, &monitor_pattern(words));
        if !state.monitor_lines.contains(&(kind, location)) {
            state.monitor_lines.push((kind, location));
        }
    }

    /// Releases a previously designated monitor line back to normal use.
    pub fn release_monitor_line(&mut self, core: CoreId, kind: CacheKind, location: SetWay) {
        let state = &mut self.cores[core.0];
        let cache = match kind {
            CacheKind::L2Data => &mut state.caches.l2d,
            CacheKind::L2Instruction => &mut state.caches.l2i,
            _ => return,
        };
        cache.enable_line(location);
        state.monitor_lines.retain(|e| *e != (kind, location));
    }

    /// Performs one monitor probe burst against a designated line:
    /// `accesses` write-then-read cycles at the domain's current effective
    /// voltage.
    ///
    /// The first few reads go through the real encoded data path (pattern
    /// storage, LUT-sampled fault injection, Hsiao decode); the remainder
    /// are sampled from the identical analytic distribution. Correctable
    /// and uncorrectable counts land both in the returned [`ProbeOutcome`]
    /// and in the chip log.
    ///
    /// # Panics
    ///
    /// Panics if the line was not designated via
    /// [`Chip::designate_monitor_line`].
    pub fn monitor_probe(
        &mut self,
        core: CoreId,
        kind: CacheKind,
        location: SetWay,
        accesses: u64,
    ) -> ProbeOutcome {
        let temperature = self.temperature();
        let v_eff = self.domain_v_eff_mv[self.config.domain_of(core).0];
        {
            let state = &self.cores[core.0];
            assert!(
                state.monitor_lines.contains(&(kind, location)),
                "line {location} of {kind} is not designated for monitoring"
            );
            if state.crash.is_some() {
                return ProbeOutcome::default();
            }
        }
        if accesses == 0 {
            return ProbeOutcome::default();
        }

        let bank = self.cell_bank(core, kind);
        let li = bank
            .find(location)
            .expect("designation guarantees the line is bank-resident");
        let aging = if self.age_hours > 0.0 {
            self.line_aging_shift_mv(core, kind, location)
        } else {
            0.0
        };
        // Shifting every cell up by the aging delta is equivalent to
        // querying at `v_eff − aging` (see `line_aging_shift_mv`).
        let v_query = v_eff - aging;
        let lut = self.luts.entry((core, kind)).or_default();

        // Envelope fast path: when even the whole burst cannot produce a
        // statistically visible event (evaluated at the conservative
        // quantized corner), skip sampling entirely. The probe still
        // counts its accesses, so telemetry matches the slow path.
        if lut.negligible(&bank, li, v_query, temperature, accesses as f64) {
            return ProbeOutcome {
                accesses,
                correctable: 0,
                uncorrectable: 0,
            };
        }

        let mut outcome = ProbeOutcome::default();
        let n_real = accesses.min(self.config.monitor_real_reads);

        // Real data-path reads, flips drawn by the banked LUT sampler.
        let state = &mut self.cores[core.0];
        let cache = match kind {
            CacheKind::L2Data => &mut state.caches.l2d,
            CacheKind::L2Instruction => &mut state.caches.l2i,
            _ => unreachable!("designation enforces L2"),
        };
        let mut injector = BankLineInjector {
            bank: &bank,
            lut: &mut *lut,
            line: li,
            v_query_mv: v_query,
            temperature,
            rng: &mut state.rng,
        };
        for _ in 0..n_real {
            let read = cache
                .read_at(location, &mut injector)
                .expect("designated line is always resident");
            outcome.accesses += 1;
            outcome.correctable += read.correctable_count() as u64;
            if read.has_uncorrectable() {
                outcome.uncorrectable += 1;
            }
            for event in &read.events {
                let line = LineAddress::new(core, kind, location);
                match event.outcome {
                    vs_ecc::DecodeOutcome::Corrected { bit, syndrome, .. } => {
                        self.log.record_correctable(CorrectableError {
                            at: self.now,
                            line,
                            word: event.word,
                            bit,
                            syndrome,
                        });
                    }
                    vs_ecc::DecodeOutcome::Uncorrectable { syndrome } => {
                        self.log.record_uncorrectable(UncorrectableError {
                            at: self.now,
                            line,
                            word: event.word,
                            syndrome,
                        });
                    }
                    vs_ecc::DecodeOutcome::Clean { .. } => {}
                }
            }
        }

        // Analytic remainder, sampled from the LUT's line triple.
        let n_analytic = accesses - n_real;
        if n_analytic > 0 {
            let (_, p_ce, p_ue) = lut.line_probabilities(&bank, li, v_query, temperature);
            let ce = state.rng.binomial(n_analytic, p_ce);
            let ue = state.rng.binomial(n_analytic, p_ue);
            outcome.accesses += n_analytic;
            outcome.correctable += ce;
            outcome.uncorrectable += ue;
            if ce > 0 {
                let (word, bit) = bank_weakest_word(&bank, li);
                // Record a representative subsample (one log entry per
                // probe burst at most) to keep the log bounded; counters
                // carry the full totals.
                self.log.record_correctable(CorrectableError {
                    at: self.now,
                    line: LineAddress::new(core, kind, location),
                    word,
                    bit,
                    syndrome: single_bit_syndrome(bit),
                });
            }
        }

        if outcome.uncorrectable > 0 {
            self.crash_core(core, CrashReason::UncorrectableError, v_eff);
        }
        outcome
    }

    /// Direct access to a core's cache hierarchy (used by calibration
    /// sweeps, which walk the caches exactly as the firmware prototype
    /// does).
    pub fn core_caches_mut(&mut self, core: CoreId) -> &mut CoreCaches {
        &mut self.cores[core.0].caches
    }

    /// Builds a fault injector for calibration-time cache walks at a given
    /// override voltage. Returns the pieces the caller needs because the
    /// injector borrows both the variation map and the core's RNG.
    pub fn injector_parts(
        &mut self,
        core: CoreId,
    ) -> (&ChipVariation, &mut CoreCaches, &mut CounterRng) {
        let state = &mut self.cores[core.0];
        (&self.variation, &mut state.caches, &mut state.rng)
    }

    // ----- the tick -----------------------------------------------------

    /// Advances the simulation by one tick.
    pub fn tick(&mut self) -> TickReport {
        let tick = self.config.tick;
        let tick_ms = tick.as_secs_f64() * 1.0e3;
        let mode = self.config.mode;
        let at = self.now;

        // 1. Regulator set points take effect.
        for d in &mut self.domains {
            d.tick();
        }

        // 2. Demands, currents, and effective voltages.
        let demands: Vec<Demand> = (0..self.cores.len()).map(|i| self.demand_of(i)).collect();
        let mut loads: Vec<LoadCurrent> = vec![LoadCurrent::default(); self.domains.len()];
        let mut core_powers = vec![0.0f64; self.cores.len()];
        for (i, demand) in demands.iter().enumerate() {
            let domain = self.config.domain_of(CoreId(i));
            let v_set = self.domains[domain.0].regulator().output();
            let p = self.power.core_power(v_set, mode, demand.activity);
            core_powers[i] = p.0;
            let i_dc = p.0 / v_set.as_volts();
            // Oscillating and transient components, converted via the
            // dynamic-power sensitivity dP/dactivity.
            let p_per_activity = self.power.core_dynamic(v_set, mode, 1.0).0
                - self.power.core_dynamic(v_set, mode, 0.0).0;
            let detected_step = (demand.activity - self.cores[i].last_activity).abs();
            let step_activity = demand.activity_transient_step.max(if detected_step > 0.3 {
                detected_step
            } else {
                0.0
            });
            let load = LoadCurrent {
                i_dc_amps: i_dc,
                i_ac_amps: p_per_activity * demand.activity_osc_amplitude / v_set.as_volts(),
                f_osc_hz: demand.osc_freq_hz,
                transient_step_amps: p_per_activity * step_activity / v_set.as_volts(),
            };
            loads[domain.0] = loads[domain.0].combine(load);
            self.cores[i].last_activity = demand.activity;
        }
        for (d, load) in loads.iter().enumerate() {
            self.domain_v_eff_mv[d] = self.domains[d].effective_voltage_mv(load);
        }

        // 3. Crash checks and workload-induced ECC events.
        let mut crashes = Vec::new();
        let mut correctable = 0u64;
        for (i, demand) in demands.iter().enumerate().take(self.cores.len()) {
            if self.cores[i].crash.is_some() {
                continue;
            }
            let core = CoreId(i);
            let v_eff = self.domain_v_eff_mv[self.config.domain_of(core).0];
            if v_eff < f64::from(self.logic_floor(core).0) {
                let info = self.crash_core(core, CrashReason::LogicFloor, v_eff);
                crashes.push((core, info));
                continue;
            }
            let (ce, ue) = self.sample_workload_errors(core, demand, v_eff, tick_ms);
            correctable += ce;
            if ue {
                let info = self.crash_core(core, CrashReason::UncorrectableError, v_eff);
                crashes.push((core, info));
            }
        }

        // 4. Energy accounting and thermal relaxation.
        let core_rail_power = Watts(core_powers.iter().sum());
        let total = core_rail_power + self.power.uncore_power(mode);
        self.energy.add(total, tick);
        self.core_rail_energy.add(core_rail_power, tick);
        self.last_core_power_w = core_powers;
        if let Some(t) = &mut self.thermal {
            t.advance(total, tick);
        }

        self.now += tick;
        TickReport {
            at,
            domain_v_eff_mv: self.domain_v_eff_mv.clone(),
            correctable,
            crashes,
            power: total,
        }
    }

    /// Runs `n` ticks, returning the number of crashes observed.
    pub fn run_ticks(&mut self, n: u64) -> u64 {
        let mut crashes = 0;
        for _ in 0..n {
            crashes += self.tick().crashes.len() as u64;
        }
        crashes
    }

    /// Runs a bounded slice of `n` ticks and returns aggregate observations
    /// for the slice.
    ///
    /// This is the engine's steppable bulk-run primitive: long experiments
    /// (fleet sweeps, checkpointed runs) advance a chip in slices, persist
    /// progress between slices, and resume without replaying completed
    /// work. Slicing is semantically free — `run_slice(a)` then
    /// `run_slice(b)` leaves the chip bit-identical to `run_slice(a + b)`.
    pub fn run_slice(&mut self, n: u64) -> SliceReport {
        let start = self.now;
        let energy_before = self.energy().total();
        let ce_before = self.log().correctable_count();
        let mut power_sum = 0.0;
        let mut crashes = 0;
        for _ in 0..n {
            let report = self.tick();
            power_sum += report.power.0;
            crashes += report.crashes.len() as u64;
        }
        SliceReport {
            from: start,
            to: self.now,
            ticks: n,
            mean_power_w: if n > 0 { power_sum / n as f64 } else { 0.0 },
            energy_j: (self.energy().total() - energy_before).0,
            correctable: self.log().correctable_count() - ce_before,
            crashes,
        }
    }

    fn crash_core(&mut self, core: CoreId, reason: CrashReason, v_eff_mv: f64) -> CrashInfo {
        let info = CrashInfo {
            at: self.now,
            reason,
            v_eff_mv,
        };
        self.cores[core.0].crash.get_or_insert(info);
        info
    }

    /// Samples the ECC events a workload's own traffic produces during one
    /// tick. Returns `(correctable_count, any_uncorrectable)`.
    fn sample_workload_errors(
        &mut self,
        core: CoreId,
        demand: &Demand,
        v_eff: f64,
        tick_ms: f64,
    ) -> (u64, bool) {
        let mode = self.config.mode;
        let temperature = self.temperature();
        let reuse = self.config.uniform_reuse_fraction;
        let rf_rate = self.config.rf_weak_access_per_ms;
        let phase = self.now.as_millis() / 2000;

        let mut kinds: Vec<(CacheKind, f64, f64)> = vec![
            (
                CacheKind::L2Data,
                demand.l2_accesses_per_ms * (1.0 - demand.instruction_fraction),
                demand.footprint_fraction,
            ),
            (
                CacheKind::L2Instruction,
                demand.l2_accesses_per_ms * demand.instruction_fraction,
                demand.footprint_fraction,
            ),
        ];
        // Register files only matter at the nominal (timing-limited)
        // point; their "footprint" is the whole array.
        if mode == VddMode::Nominal && demand.activity > 0.0 {
            kinds.push((CacheKind::RegisterFileInt, 0.0, 1.0));
            kinds.push((CacheKind::RegisterFileFp, 0.0, 1.0));
        }

        let mut total_ce = 0u64;
        let mut any_ue = false;
        for (kind, rate_per_ms, footprint) in kinds {
            let bank = self.cell_bank(core, kind);
            let total_lines = bank.total_lines();
            for li in 0..bank.lines().len() {
                let line = bank.lines()[li];
                let location = line.location;
                if self.cores[core.0].monitor_lines.contains(&(kind, location)) {
                    continue; // monitor-owned: holds no workload data
                }
                // Expected accesses this line receives this tick.
                let expected = if kind.is_l2() {
                    rate_per_ms * tick_ms * reuse / total_lines as f64
                } else {
                    demand.activity * rf_rate * tick_ms
                };
                if expected <= 0.0 {
                    continue;
                }
                // Is the line in the current working-set phase?
                let mut phase_rng = CounterRng::from_key(
                    self.config.seed,
                    &[
                        0xF007,
                        core.0 as u64,
                        kind.stream_id(),
                        location.set as u64,
                        location.way as u64,
                        phase,
                    ],
                );
                if !phase_rng.bernoulli(footprint) {
                    continue;
                }
                let aging = if self.age_hours > 0.0 {
                    self.line_aging_shift_mv(core, kind, location)
                } else {
                    0.0
                };
                let v_query = v_eff - aging;
                let lut = self.luts.entry((core, kind)).or_default();
                // Envelope fast path: when the tick's whole expected
                // traffic cannot produce a statistically visible event
                // (conservative quantized corner), skip the per-line
                // draws entirely. The bank is sorted weakest-first, so
                // once a line is far below the rail nothing beneath it
                // errs either (generous slack for noise-factor
                // variation before breaking).
                if lut.negligible(&bank, li, v_query, temperature, expected + 1.0) {
                    if line.weakest_vc_mv < v_eff - 60.0 {
                        break;
                    }
                    continue;
                }
                let (_, p_ce, p_ue) = lut.line_probabilities(&bank, li, v_query, temperature);
                if p_ce <= 0.0 && p_ue <= 0.0 {
                    if line.weakest_vc_mv < v_eff - 60.0 {
                        break;
                    }
                    continue;
                }
                // Number of accesses: integer part plus Bernoulli remainder.
                let state = &mut self.cores[core.0];
                let n = expected.floor() as u64 + u64::from(state.rng.bernoulli(expected.fract()));
                if n == 0 {
                    continue;
                }
                let ce = state.rng.binomial(n, p_ce);
                let ue = state.rng.binomial(n, p_ue);
                if ce > 0 {
                    total_ce += ce;
                    let (word, bit) = bank_weakest_word(&bank, li);
                    let line_addr = LineAddress::new(core, kind, location);
                    let event = CorrectableError {
                        at: self.now,
                        line: line_addr,
                        word,
                        bit,
                        syndrome: single_bit_syndrome(bit),
                    };
                    // Record each error (counts in Figures 3/4 come from
                    // these logs).
                    for _ in 0..ce {
                        self.log.record_correctable(event);
                    }
                }
                if ue > 0 {
                    any_ue = true;
                    let (word, _) = bank_weakest_word(&bank, li);
                    self.log.record_uncorrectable(UncorrectableError {
                        at: self.now,
                        line: LineAddress::new(core, kind, location),
                        word,
                        syndrome: 0b11,
                    });
                }
            }
        }
        (total_ce, any_ue)
    }

    /// Resets time, logs, crashes, caches, and regulators to power-on
    /// state, keeping the (expensive) cell banks and failure LUTs. Used
    /// between characterization runs on the same silicon.
    pub fn reset(&mut self) {
        let nominal = self.config.mode.nominal_vdd();
        for d in &mut self.domains {
            d.regulator_mut().request(nominal);
            d.settle();
        }
        let nominal_mv = f64::from(nominal.0);
        for v in &mut self.domain_v_eff_mv {
            *v = nominal_mv;
        }
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.caches = CoreCaches::new();
            core.workload = None;
            core.crash = None;
            core.last_activity = 0.0;
            core.monitor_lines.clear();
            core.rng = CounterRng::from_key(self.config.seed, &[0xACC, i as u64]);
        }
        self.log.clear();
        self.now = SimTime::ZERO;
        self.energy = EnergyMeter::new();
        self.core_rail_energy = EnergyMeter::new();
    }
}

/// The deterministic test pattern the monitor writes before each read
/// burst: alternating-stress patterns exercising both cell polarities.
pub(crate) fn monitor_pattern(words: usize) -> Vec<u64> {
    (0..words)
        .map(|w| {
            if w % 2 == 0 {
                0x5555_5555_5555_5555
            } else {
                0xAAAA_AAAA_AAAA_AAAA
            }
        })
        .collect()
}

/// Injector that samples a tracked line's flips from the banked
/// per-voltage-step LUT: one uniform draw per word against a cached
/// subset CDF, instead of re-deriving the word's cells and walking
/// per-cell Bernoulli trials on every read.
struct BankLineInjector<'a> {
    bank: &'a CellBank,
    lut: &'a mut FailureLut,
    line: usize,
    /// Aging-adjusted query voltage, in millivolts.
    v_query_mv: f64,
    temperature: Celsius,
    rng: &'a mut CounterRng,
}

impl Injector for BankLineInjector<'_> {
    fn flip_mask(&mut self, _kind: CacheKind, _location: SetWay, word: u32) -> FlipMask {
        self.lut.sample_word(
            self.bank,
            self.line,
            word,
            self.v_query_mv,
            self.temperature,
            self.rng,
        )
    }
}

/// Index and weakest-cell bit of the word holding a tracked line's
/// weakest cell; on a tie the *last* maximal word wins.
fn bank_weakest_word(bank: &CellBank, line: usize) -> (u32, u32) {
    let mut best = (0u32, 0u32);
    let mut best_vc = f64::NEG_INFINITY;
    for w in 0..bank.words_per_line() as u32 {
        let vc = bank.word_vcs(line, w)[0];
        if vc >= best_vc {
            best_vc = vc;
            best = (w, bank.word_bits(line, w)[0]);
        }
    }
    best
}

/// The Hsiao (72,64) syndrome a single flip of `bit` produces.
fn single_bit_syndrome(bit: u32) -> u32 {
    let code = SecDed::hsiao_72_64();
    match code.decode(code.inject(code.encode(0), &[bit])) {
        vs_ecc::DecodeOutcome::Corrected { syndrome, .. } => syndrome,
        _ => unreachable!("single flips are always correctable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_workload::{Idle, StressTest};

    /// A small config so unit tests stay fast: two cores on one domain.
    fn small_config(seed: u64) -> ChipConfig {
        ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        }
    }

    #[test]
    fn construction_and_defaults() {
        let chip = Chip::new(small_config(5));
        assert_eq!(chip.mode(), VddMode::LowVoltage);
        assert_eq!(chip.domain_set_point(DomainId(0)), Millivolts(800));
        assert_eq!(chip.now(), SimTime::ZERO);
        assert!(!chip.any_crashed());
    }

    #[test]
    fn idle_tick_is_safe_and_accounts_energy() {
        let mut chip = Chip::new(small_config(5));
        let report = chip.tick();
        assert!(report.crashes.is_empty());
        assert_eq!(report.correctable, 0);
        assert!(report.power.0 > 0.0, "idle still burns leakage + uncore");
        assert_eq!(chip.now(), SimTime::from_millis(1));
        assert!(chip.energy().total().0 > 0.0);
    }

    #[test]
    fn voltage_request_applies_next_tick() {
        let mut chip = Chip::new(small_config(5));
        chip.request_domain_voltage(DomainId(0), Millivolts(740));
        assert_eq!(chip.domain_set_point(DomainId(0)), Millivolts(800));
        chip.tick();
        assert_eq!(chip.domain_set_point(DomainId(0)), Millivolts(740));
    }

    #[test]
    fn effective_voltage_reflects_load() {
        let mut chip = Chip::new(small_config(5));
        chip.tick();
        let idle_v = chip.domain_v_eff_mv(DomainId(0));
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        chip.set_workload(CoreId(1), Box::new(StressTest::default()));
        chip.tick();
        let busy_v = chip.domain_v_eff_mv(DomainId(0));
        assert!(
            busy_v < idle_v,
            "load must depress the rail ({busy_v} vs {idle_v})"
        );
        assert!(idle_v <= 800.0);
    }

    #[test]
    fn low_voltage_below_floor_crashes() {
        let mut chip = Chip::new(small_config(5));
        let floor = chip.logic_floor(CoreId(0));
        chip.request_domain_voltage(DomainId(0), floor - Millivolts(20));
        let mut crashes = Vec::new();
        for _ in 0..2 {
            crashes.extend(chip.tick().crashes);
        }
        assert!(
            crashes
                .iter()
                .any(|(c, i)| *c == CoreId(0) && i.reason == CrashReason::LogicFloor),
            "expected a logic-floor crash, got {crashes:?}"
        );
        assert!(chip.crash_info(CoreId(0)).is_some());
        // Crashed cores stop producing demand; ticks continue fine.
        chip.tick();
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut chip = Chip::new(small_config(5));
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        chip.request_domain_voltage(DomainId(0), Millivolts(540));
        chip.run_ticks(5);
        chip.reset();
        assert_eq!(chip.now(), SimTime::ZERO);
        assert_eq!(chip.domain_set_point(DomainId(0)), Millivolts(800));
        assert!(!chip.any_crashed());
        assert_eq!(chip.log().correctable_count(), 0);
        assert!(chip.workload_name(CoreId(0)).is_none());
    }

    #[test]
    fn force_crash_and_recover_round_trip() {
        let mut chip = Chip::new(small_config(5));
        chip.tick();
        let info = chip.force_crash(CoreId(1), CrashReason::Injected);
        assert_eq!(info.reason, CrashReason::Injected);
        assert!(chip.any_crashed());
        // A second crash keeps the original record.
        let again = chip.force_crash(CoreId(1), CrashReason::LogicFloor);
        assert_eq!(again.reason, CrashReason::Injected);
        chip.recover_core(CoreId(1));
        assert!(!chip.any_crashed());
        assert!(chip.crash_info(CoreId(1)).is_none());
    }

    #[test]
    fn weak_tables_cached() {
        let mut chip = Chip::new(small_config(5));
        let first = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        let second = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        assert!(Arc::ptr_eq(&first, &second), "the bank is built once");
        assert_eq!(first.lines().len(), 8);
    }

    #[test]
    fn weakest_word_holds_the_extreme_cell() {
        let mut chip = Chip::new(small_config(5));
        let bank = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        for li in 0..bank.lines().len() {
            let (word, bit) = bank_weakest_word(&bank, li);
            assert_eq!(bank.word_vcs(li, word)[0], bank.lines()[li].weakest_vc_mv);
            assert_eq!(bank.word_bits(li, word)[0], bit);
        }
    }

    #[test]
    #[should_panic(expected = "L2D line set 0 way 0 of core0 is not tracked by its cell bank")]
    fn designating_an_untracked_line_panics() {
        let mut chip = Chip::new(small_config(5));
        let untracked = SetWay::new(0, 0);
        assert_eq!(
            chip.cell_bank(CoreId(0), CacheKind::L2Data).find(untracked),
            None,
            "pick a line outside this seed's bank"
        );
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, untracked);
    }

    #[test]
    fn preloaded_banks_are_shared_not_rebuilt() {
        let mut donor = Chip::new(small_config(5));
        donor.cell_bank(CoreId(0), CacheKind::L2Data);
        donor.cell_bank(CoreId(0), CacheKind::L2Instruction);
        let banks = donor.export_banks();

        let mut chip = Chip::new(small_config(5));
        chip.preload_banks(&banks);
        let adopted = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        assert!(Arc::ptr_eq(
            &adopted,
            &banks[&(CoreId(0), CacheKind::L2Data)]
        ));
        // And the adopted bank is the one the donor ranked.
        assert_eq!(
            chip.cell_bank(CoreId(0), CacheKind::L2Data),
            donor.cell_bank(CoreId(0), CacheKind::L2Data)
        );
    }

    #[test]
    fn bank_backed_table_matches_scalar_build() {
        // The chip's weak-line table is its cell bank: rank every L2D line
        // by its weakest cell through the scalar per-word path and check
        // the bank holds the same top lines in the same order.
        let mut chip = Chip::new(small_config(5));
        let bank = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        let g = CacheGeometry::for_kind(CacheKind::L2Data);
        let mut scalar = Vec::with_capacity(g.sets * g.ways);
        for set in 0..g.sets {
            for way in 0..g.ways {
                let location = SetWay::new(set, way);
                let vc = (0..g.words_per_line() as u32)
                    .map(|w| {
                        chip.variation()
                            .word_cells(
                                CoreId(0),
                                CacheKind::L2Data,
                                location,
                                w,
                                VddMode::LowVoltage,
                            )
                            .weakest()
                            .vc_mv
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                scalar.push((location, vc));
            }
        }
        scalar.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite voltages"));
        scalar.truncate(8);
        let from_bank: Vec<(SetWay, f64)> = bank
            .lines()
            .iter()
            .map(|l| (l.location, l.weakest_vc_mv))
            .collect();
        assert_eq!(from_bank, scalar);
    }

    #[test]
    fn preload_rejects_wrong_mode_banks() {
        let mut donor = Chip::new(small_config(5));
        donor.cell_bank(CoreId(0), CacheKind::L2Data);
        let banks = donor.export_banks();

        let mut nominal = Chip::new(ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::nominal(5)
        });
        nominal.preload_banks(&banks);
        let own = nominal.cell_bank(CoreId(0), CacheKind::L2Data);
        assert!(!Arc::ptr_eq(&own, &banks[&(CoreId(0), CacheKind::L2Data)]));
        assert_eq!(own.mode(), VddMode::Nominal);
    }

    #[test]
    fn aging_change_invalidates_failure_luts() {
        let mut chip = Chip::new(small_config(5));
        let weakest = *chip.cell_bank(CoreId(0), CacheKind::L2Data).weakest();
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weakest.location);
        chip.request_domain_voltage(
            DomainId(0),
            Millivolts(weakest.weakest_vc_mv.round() as i32 + 9),
        );
        chip.tick();
        let before = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weakest.location, 4000);
        assert!(before.correctable > 0, "probe near Vc must err");
        // Aging must both clear the cached tables and keep probing sound.
        chip.set_age_hours(30_000.0);
        let after = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weakest.location, 4000);
        assert!(
            after.error_rate() >= before.error_rate() * 0.5,
            "aged silicon cannot err dramatically less ({} vs {})",
            after.error_rate(),
            before.error_rate()
        );
    }

    #[test]
    fn monitor_probe_counts_and_rates() {
        let mut chip = Chip::new(small_config(5));
        let weakest = *chip.cell_bank(CoreId(0), CacheKind::L2Data).weakest();
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weakest.location);
        chip.tick();

        // At the 800 mV nominal the monitor sees nothing.
        let clean = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weakest.location, 2000);
        assert_eq!(clean.accesses, 2000);
        assert_eq!(clean.correctable, 0);

        // Parked right at the weak cell's Vc, roughly half the reads err.
        let target = Millivolts(weakest.weakest_vc_mv.round() as i32 + 9);
        chip.request_domain_voltage(DomainId(0), target);
        chip.tick();
        let noisy = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weakest.location, 4000);
        let rate = noisy.error_rate();
        assert!(
            (0.02..0.98).contains(&rate),
            "expected a mid-ramp error rate near Vc, got {rate}"
        );
        assert!(chip.log().correctable_count() > 0);
    }

    #[test]
    #[should_panic(expected = "not designated")]
    fn probe_requires_designation() {
        let mut chip = Chip::new(small_config(5));
        chip.tick();
        chip.monitor_probe(CoreId(0), CacheKind::L2Data, SetWay::new(0, 0), 10);
    }

    #[test]
    fn stress_at_low_voltage_produces_correctable_errors() {
        let mut chip = Chip::new(small_config(5));
        let first_error_v = chip
            .cell_bank(CoreId(0), CacheKind::L2Data)
            .weakest()
            .weakest_vc_mv
            .max(
                chip.cell_bank(CoreId(0), CacheKind::L2Instruction)
                    .weakest()
                    .weakest_vc_mv,
            );
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        chip.set_workload(CoreId(1), Box::new(Idle));
        // Park 25 mV below the first-error voltage: errors, no crash.
        chip.request_domain_voltage(DomainId(0), Millivolts(first_error_v as i32 - 25));
        // A couple of simulated minutes at 1 ms ticks.
        let mut crashed = 0;
        for _ in 0..120_000 {
            crashed += chip.tick().crashes.len();
        }
        assert_eq!(crashed, 0, "25 mV below first error must be safe");
        assert!(
            chip.log().correctable_count() > 0,
            "the stress workload must trip the weak lines"
        );
        // Errors come from the weak lines only.
        let (top, _) = chip.log().hottest_line().unwrap();
        let bank = chip.cell_bank(top.core, top.cache);
        assert!(bank.find(top.location).is_some());
    }

    #[test]
    fn monitor_line_excluded_from_workload_errors() {
        let mut chip = Chip::new(small_config(5));
        let weakest = chip
            .cell_bank(CoreId(0), CacheKind::L2Data)
            .weakest()
            .location;
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weakest);
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        let v = chip
            .cell_bank(CoreId(0), CacheKind::L2Data)
            .weakest()
            .weakest_vc_mv;
        chip.request_domain_voltage(DomainId(0), Millivolts(v as i32 - 10));
        for _ in 0..50_000 {
            chip.tick();
        }
        // No workload-attributed event may come from the designated line.
        let from_monitor_line = chip
            .log()
            .correctable()
            .iter()
            .filter(|e| e.line.location == weakest && e.line.cache == CacheKind::L2Data)
            .count();
        assert_eq!(from_monitor_line, 0);
    }

    #[test]
    fn sliced_run_is_identical_to_one_shot() {
        let make = || {
            let mut chip = Chip::new(small_config(6));
            chip.set_workload(CoreId(0), Box::new(StressTest::default()));
            chip.request_domain_voltage(DomainId(0), Millivolts(700));
            chip
        };
        let mut whole = make();
        let full = whole.run_slice(400);

        let mut sliced = make();
        let a = sliced.run_slice(150);
        let b = sliced.run_slice(250);
        assert_eq!(a.ticks + b.ticks, full.ticks);
        assert_eq!(a.to, b.from, "slices abut in simulated time");
        assert_eq!(b.to, full.to);
        assert_eq!(a.correctable + b.correctable, full.correctable);
        assert_eq!(a.crashes + b.crashes, full.crashes);
        assert!((a.energy_j + b.energy_j - full.energy_j).abs() < 1e-12);
        // And the chips themselves end in the same state.
        assert_eq!(whole.now(), sliced.now());
        assert_eq!(
            whole.log().correctable_count(),
            sliced.log().correctable_count()
        );
    }
}
