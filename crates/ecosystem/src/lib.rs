//! # ecosystem — a calibrated model of the IFTTT ecosystem + its crawler
//!
//! The paper's §3 dataset is a six-month, 25-snapshot crawl of ifttt.com.
//! That site (as of 2017) no longer exists, so this crate substitutes a
//! **statistical ecosystem model** calibrated to every aggregate the paper
//! publishes ([`model`], [`taxonomy`]), a **generator** that materializes
//! it ([`generator`]), a **simulated web frontend** serving the same pages
//! the authors scraped ([`frontend`]), and a **crawler** that enumerates
//! applet ids and parses pages exactly the way §3.1 describes
//! ([`crawler`]). Analyses operate on [`snapshot::Snapshot`]s, which can
//! come from either the crawler (full pipeline) or the generator directly
//! (fast path) — a dedicated test asserts the two agree — and on weekly
//! [`snapshot::WeekCounts`], which the generator counts without building
//! a snapshot.

pub mod crawler;
pub mod frontend;
pub mod generator;
pub mod model;
pub mod names;
pub mod population;
pub mod snapshot;
pub mod taxonomy;

pub use generator::{Ecosystem, GeneratorConfig};
pub use population::{InstalledApplet, PopulationSampler, UserProfile};
pub use snapshot::{
    AppletRecord, Author, RecordError, ServiceRecord, ServiceTable, Slot, SlugIndex, Snapshot,
    WeekCounts,
};
pub use taxonomy::{Category, ALL_CATEGORIES, TABLE1};
