#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
//! # mmcarriers — calibrated synthetic carrier profiles and world generation
//!
//! The substitute for the paper's proprietary measurement target: 30 carrier
//! profiles ([`builtin`]) whose per-parameter value distributions are
//! calibrated to the published figures, a generative [`profile::CarrierProfile`]
//! model with frequency-dependent priorities and spatial/temporal structure,
//! legacy-RAT parameter generation ([`legacy`]), and the ~32,000-cell
//! [`world::World`] the crawler explores.

pub mod builtin;
pub mod city;
pub mod dist;
pub mod legacy;
pub mod profile;
pub mod world;

pub use builtin::{by_code, profiles};
pub use city::{City, UnknownCity};
pub use dist::Categorical;
pub use profile::{BandPlanEntry, CarrierProfile, EventChoice};
pub use world::{GeneratedCell, World, ROUNDS, US_CITIES};
