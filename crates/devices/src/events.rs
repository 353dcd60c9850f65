//! Shared event and command vocabulary for devices and bridges.
//!
//! Devices push [`DeviceEvent`]s (state changes) to their observers; proxies
//! and vendor clouds send [`DeviceCommand`]s down to devices. Both are
//! serialized JSON so that every hop carries realistic payloads.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use simnet::prelude::{Context, NodeId};

/// The nodes a device pushes its state changes to (a proxy, its vendor
/// cloud, the test controller).
#[derive(Debug, Default)]
pub struct Observers(Vec<NodeId>);

impl Observers {
    /// Register `node` for every later push.
    pub fn add(&mut self, node: NodeId) {
        self.0.push(node);
    }

    /// Signal `payload` to every observer, in registration order.
    pub fn push(&self, ctx: &mut Context<'_>, payload: Bytes) {
        for &obs in &self.0 {
            ctx.signal(obs, payload.clone());
        }
    }
}

/// A state-change notification emitted by a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceEvent {
    /// Device identifier, e.g. `"wemo_switch_1"`.
    pub device: String,
    /// What happened, e.g. `"switched_on"`, `"light_on"`, `"motion"`.
    pub kind: String,
    /// The home owner on whose account the device is registered.
    pub user: String,
    /// Occurrence time in whole virtual seconds.
    pub at_secs: u64,
    /// Event-specific data (color, phrase, sensor value, …).
    #[serde(default)]
    pub data: std::collections::BTreeMap<String, String>,
}

impl DeviceEvent {
    /// Construct an event with empty data.
    pub fn new(
        device: impl Into<String>,
        kind: impl Into<String>,
        user: impl Into<String>,
        at_secs: u64,
    ) -> Self {
        DeviceEvent {
            device: device.into(),
            kind: kind.into(),
            user: user.into(),
            at_secs,
            data: Default::default(),
        }
    }

    /// Attach a data item.
    pub fn with_data(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.data.insert(k.into(), v.into());
        self
    }

    /// Serialize for a signal payload.
    pub fn to_bytes(&self) -> Bytes {
        Bytes::from(serde_json::to_vec(self).expect("serializes"))
    }

    /// Parse from a signal payload.
    pub fn from_bytes(b: &[u8]) -> Option<DeviceEvent> {
        serde_json::from_slice(b).ok()
    }
}

/// A command sent towards a device (by a proxy or vendor cloud).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceCommand {
    /// Target device identifier.
    pub device: String,
    /// Operation, e.g. `"turn_on"`, `"blink"`, `"set_color"`.
    pub op: String,
    /// Operation arguments.
    #[serde(default)]
    pub args: std::collections::BTreeMap<String, String>,
}

impl DeviceCommand {
    /// Construct a command with empty arguments.
    pub fn new(device: impl Into<String>, op: impl Into<String>) -> Self {
        DeviceCommand {
            device: device.into(),
            op: op.into(),
            args: Default::default(),
        }
    }

    /// Attach an argument.
    pub fn with_arg(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.args.insert(k.into(), v.into());
        self
    }

    /// Serialize to JSON bytes.
    pub fn to_bytes(&self) -> Bytes {
        Bytes::from(serde_json::to_vec(self).expect("serializes"))
    }

    /// Parse from JSON bytes.
    pub fn from_bytes(b: &[u8]) -> Option<DeviceCommand> {
        serde_json::from_slice(b).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_roundtrip() {
        let e = DeviceEvent::new("hue_lamp_1", "light_on", "author", 12).with_data("bri", "254");
        let back = DeviceEvent::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn command_roundtrip() {
        let c = DeviceCommand::new("hue_lamp_1", "set_color").with_arg("color", "blue");
        let back = DeviceCommand::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn garbage_payloads_parse_to_none() {
        assert_eq!(DeviceEvent::from_bytes(b"nope"), None);
        assert_eq!(DeviceCommand::from_bytes(b"{}"), None);
    }
}
