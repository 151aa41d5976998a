//! Statistics substrate for the RiskRoute reproduction.
//!
//! Section 5.2 of the paper estimates geo-spatial outage likelihoods with
//! nonparametric Gaussian kernel density estimates, trains the kernel
//! bandwidth by 5-way cross validation scored with KL divergence (Table 1),
//! and Section 7.1.1 characterizes routing results with coefficients of
//! determination (Table 3). This crate implements all of that machinery:
//!
//! - [`kde`] — geodesic Gaussian kernel density estimation over
//!   latitude/longitude event sets, with grid evaluation. The exact density
//!   skips events whose kernel underflows to `+0.0`, bit-identically.
//! - [`binned`] — spatially-binned, truncated-kernel KDE scoring that makes
//!   full-corpus bandwidth training tractable.
//! - [`crossval`] — k-fold cross-validated bandwidth selection; the held-out
//!   score is average negative log-likelihood, which selects the same
//!   bandwidth as minimizing KL divergence from the true density (the
//!   entropy term is bandwidth-independent).
//! - [`regression`] — simple linear regression and R² (Table 3).
//! - [`rng`] — deterministic seeding helpers so every experiment regenerates
//!   bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod binned;
pub mod crossval;
pub mod kde;
pub mod regression;
pub mod rng;

pub use binned::BinnedKde;
pub use crossval::{select_bandwidth, select_bandwidth_binned, BandwidthReport};
pub use kde::GeoKde;
pub use regression::LinearFit;
