//! The simulated chip multiprocessor.
//!
//! This crate assembles the substrates — SRAM variation physics
//! (`vs-sram`), the ECC-encoded cache hierarchy (`vs-cache`), the
//! power-delivery network (`vs-pdn`), the power model (`vs-power`), and
//! workload profiles (`vs-workload`) — into a machine that behaves like the
//! paper's Itanium 9560 platform from the perspective of the
//! voltage-speculation system:
//!
//! * eight in-order cores grouped two per voltage domain, each domain with
//!   its own regulator and delivery network;
//! * a discrete-time engine ([`Chip::tick`], 1 ms default) that converts
//!   workload demand into rail currents, effective voltages, correctable
//!   and uncorrectable ECC events, power, and energy;
//! * per-core crash detection (logic floor violations or uncorrectable
//!   errors), the simulator's equivalent of the machine checks that bound
//!   the minimum safe voltage;
//! * a [`CellBank`](vs_sram::CellBank) per structure
//!   ([`Chip::cell_bank`]), ranking the deterministically weakest cache
//!   lines — the lines whose behaviour the whole paper turns on — and
//!   holding their cells for the monitor and workload samplers;
//! * [`characterize`] — the voltage-margin experiments of §II
//!   (Figures 1–4).
//!
//! # Examples
//!
//! ```no_run
//! use vs_platform::{Chip, ChipConfig};
//! use vs_types::{CoreId, DomainId, Millivolts};
//! use vs_workload::StressTest;
//!
//! let mut chip = Chip::new(ChipConfig::low_voltage(42));
//! chip.set_workload(CoreId(0), Box::new(StressTest::default()));
//! chip.request_domain_voltage(DomainId(0), Millivolts(720));
//! for _ in 0..1000 {
//!     let report = chip.tick();
//!     assert!(report.crashes.is_empty(), "720 mV should be safe");
//! }
//! println!("CEs so far: {}", chip.log().correctable_count());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod characterize;
mod chip;
mod config;
#[cfg(test)]
mod weakline;

pub use chip::{BankMap, Chip, CrashInfo, CrashReason, ProbeOutcome, SliceReport, TickReport};
pub use config::ChipConfig;
