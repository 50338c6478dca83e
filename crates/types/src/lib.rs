//! Shared primitive types for the `voltspec` simulation stack.
//!
//! This crate provides the vocabulary used by every other crate in the
//! workspace:
//!
//! * strongly typed physical units ([`Millivolts`], [`Hertz`], [`Watts`],
//!   [`Joules`], [`Celsius`], [`SimTime`]);
//! * hardware identifiers ([`CoreId`], [`DomainId`], [`CacheKind`],
//!   [`SetWay`]);
//! * a deterministic counter-based random number generator
//!   ([`rng::CounterRng`]) used to derive every stochastic quantity in the
//!   simulator from a structured key, so that experiments are exactly
//!   reproducible run-to-run (the paper's "deterministic error distribution"
//!   observation, §II-D);
//! * small statistics helpers ([`stats`]) — Gaussian sampling, logistic
//!   response, Gaussian order statistics — that the SRAM failure model is
//!   built on;
//! * a std-only flat-object JSON codec ([`json`]) shared by the fleet
//!   daemon's wire protocol and the postmortem bundle format.
//!
//! # Examples
//!
//! ```
//! use vs_types::{Millivolts, CoreId, rng::CounterRng};
//!
//! let nominal = Millivolts(800);
//! let lowered = nominal - Millivolts(64);
//! assert_eq!(lowered, Millivolts(736));
//! assert!((lowered.as_volts() - 0.736).abs() < 1e-12);
//!
//! // Deterministic: the same key always yields the same stream.
//! let a = CounterRng::from_key(0xC0FFEE, &[1, 2, 3]).next_f64();
//! let b = CounterRng::from_key(0xC0FFEE, &[1, 2, 3]).next_f64();
//! assert_eq!(a, b);
//! let _core = CoreId(3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod fleet;
pub mod ids;
pub mod json;
pub mod mask;
pub mod mode;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use config::ConfigError;
pub use fleet::{ChipId, FleetSeed};
pub use ids::{CacheKind, CoreId, DomainId, LineAddress, SetWay};
pub use mask::{FlipBits, FlipMask};
pub use mode::VddMode;
pub use rng::CounterRng;
pub use time::SimTime;
pub use units::{Celsius, Hertz, Joules, Millivolts, Watts};
