//! Natural-disaster event corpora and historical outage risk for the
//! RiskRoute reproduction.
//!
//! Section 4.3 of the paper assembles 1970–2010 disaster records: FEMA
//! emergency declarations (2,805 hurricane, 6,437 tornado, 20,623 severe
//! storm) and NOAA events (2,267 earthquake, 143,847 damaging wind). §5.2
//! turns each corpus into a geo-spatial outage likelihood via Gaussian KDE
//! with 5-way cross-validated bandwidths (Table 1), and aggregates the five
//! likelihoods into a single historical risk `o_h(i)` per PoP.
//!
//! The federal archives are not redistributable, so [`events`] synthesizes
//! each corpus from a seeded mixture model matching the documented geography
//! (hurricanes → Gulf/Atlantic coasts, tornadoes → Tornado Alley, storms →
//! central plains, earthquakes → the Pacific seismic belt, wind → broad
//! eastern CONUS) with the paper's exact event counts.
//!
//! - [`events`] — event kinds, paper counts, and the seeded samplers.
//! - [`training`] — the Table-1 bandwidth training pipeline.
//! - [`surface`] — per-kind risk surfaces and the aggregate historical risk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod events;
pub mod surface;
pub mod training;

pub use events::{
    sample_ensemble, sample_member_events, DisasterEvent, EventKind, ALL_EVENT_KINDS,
};
pub use surface::{HistoricalRisk, RiskSurface};
pub use training::{train_bandwidth, TrainedBandwidth};
