//! # analysis — measurement analytics for the IFTTT study
//!
//! Statistical machinery ([`stats`], [`tail`]) plus one builder per table
//! and figure of the paper's §3 ([`tables`], [`heatmap`], [`growth`],
//! [`users`]). Builders take crawled/generated [`ecosystem::Snapshot`]s (or,
//! for Table 2 and growth, [`ecosystem::WeekCounts`]) and return typed
//! reports with plain-text renderings; `ifttt-lab paper`
//! writes those renderings as the reproduction artifacts.

pub mod growth;
pub mod heatmap;
pub mod render;
pub mod stats;
pub mod tables;
pub mod tail;
pub mod users;
pub mod workload;

pub use growth::GrowthReport;
pub use heatmap::Heatmap;
pub use stats::{percentile, Cdf, Summary};
pub use tables::{HeadlineIot, Table1Report, Table2Report, Table3Report};
pub use tail::{rank_series, top_share};
pub use users::UserContribution;
pub use workload::WorkloadReport;
