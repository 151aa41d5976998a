//! Helpers shared by the root package's integration tests.

pub mod conn_faults;
