//! # testbed — the paper's measurement testbed (Figure 1) and experiments
//!
//! Assembles the full topology of the paper's Figure 1 — Hue lamp ❶ and
//! hub ❷ at home, local proxy ❸, gateway router ❹, the authors' service
//! server ❺, official vendor services ❻, the IFTTT engine ❼, and the test
//! controller ❾ — and drives the §4 controlled experiments:
//!
//! * **Trigger-to-action latency** for applets A1–A7 (Figure 4, Table 4);
//! * **Service/engine substitution** E1/E2/E3 (Figure 5);
//! * **Execution timeline** breakdown (Table 5);
//! * **Sequential execution** and action clustering (Figure 6);
//! * **Concurrent execution** of same-trigger applets (Figure 7);
//! * **Infinite loops**, explicit and implicit, with the §6 runtime
//!   detector as the countermeasure;
//! * the §6 **local/distributed engine** extension as an ablation;
//! * the §6 **permission models**, audited over A1–A7 ([`permissions`]).

pub mod applets;
pub mod controller;
pub mod experiments;
pub mod localengine;
pub mod permissions;
pub mod report;
pub mod topology;

pub use applets::{paper_applet, PaperApplet, ServiceVariant};
pub use controller::TestController;
pub use localengine::{LocalEngine, LocalRule};
pub use report::{ConcurrentReport, SequentialReport, T2aReport, TimelineReport};
pub use topology::{Testbed, TestbedConfig};
