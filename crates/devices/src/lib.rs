//! # devices — simulated smart-home devices, web apps, and their services
//!
//! Everything the paper's testbed (its Figure 1) deploys, as `simnet` nodes:
//!
//! * **IoT devices in the home LAN**: a Philips Hue hub + lamps speaking a
//!   REST API modeled on the Hue bridge ([`hue`]), a WeMo light switch
//!   speaking UPnP/SOAP ([`wemo`]), an Amazon Echo Dot that forwards
//!   recognized voice commands to the Alexa cloud ([`echo`]), and a Samsung
//!   SmartThings hub with attached sensors ([`smartthings`]).
//! * **Web applications**: a Google cloud node hosting Gmail, Drive and
//!   Sheets — including the spreadsheet *email-notification feature* that
//!   the paper uses to demonstrate implicit infinite loops ([`google`]) —
//!   and a weather backend ([`weather`]).
//! * **The local proxy** ❸ that bridges the home LAN to a lab service
//!   server, since "most home deployed devices only accept access from a
//!   3rd-party host in the same LAN" ([`proxy`]).
//! * **IFTTT partner services**: the official vendor clouds (Hue, WeMo,
//!   Alexa, Google) and the authors' own "Our Service". All of them are
//!   one node type, [`services::PartnerService`], around the shared
//!   [`service_core::ServiceCore`] protocol front; what differs per
//!   vendor is a [`services::Partner`] impl ([`services`]).
//!
//! Devices enforce the LAN-only access rule with per-node allowlists, push
//! state changes to their [`events::Observers`], and add realistic
//! processing delays, so end-to-end trigger-to-action latencies decompose
//! exactly the way Table 5 of the paper does.

pub mod echo;
pub mod events;
pub mod google;
pub mod hue;
pub mod nest;
pub mod proxy;
pub mod service_core;
pub mod services;
pub mod smartthings;
#[cfg(test)]
pub(crate) mod test_client;
pub mod weather;
pub mod wemo;

pub use events::{DeviceCommand, DeviceEvent};
pub use proxy::LocalProxy;
pub use service_core::ServiceCore;
