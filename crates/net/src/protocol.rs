//! Protocol adapters: the device-facing interfaces the monitor and updater
//! use.
//!
//! Paper §3: the monitor "uses the corresponding protocol (e.g., SNMP or
//! OpenFlow) to collect the network statistics, and it translates
//! protocol-specific data to protocol-agnostic state variables"; the
//! updater does the reverse through its command-template pool. We model
//! three adapters with distinct capability envelopes:
//!
//! * [`SnmpSim`] — read-only polling of power/firmware/config state and
//!   counters; cannot execute anything;
//! * [`OpenFlowSim`] — reads and programs routing state, but only on
//!   OpenFlow-capable models with a running agent;
//! * [`VendorCliSim`] — the management-plane catch-all: power, firmware,
//!   boot image, interface configuration; also renders BGP route updates
//!   for traditional routers.
//!
//! Each adapter returns typed [`StateError`]s for its failure surface so
//! the monitor and updater can implement the §6.2 "stateless and automatic
//! failure handling" without parsing strings.

use crate::command::{CommandOutcome, DeviceCommand, DeviceModel};
use crate::sim::SimNetwork;
use statesman_types::{Attribute, DeviceName, LinkName, StateError, StateResult, Value};

/// Which protocol an adapter speaks (for logging and template lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// SNMP-style polling.
    Snmp,
    /// OpenFlow-style rule programming.
    OpenFlow,
    /// Vendor CLI / API management plane.
    VendorCli,
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProtocolKind::Snmp => "snmp",
            ProtocolKind::OpenFlow => "openflow",
            ProtocolKind::VendorCli => "vendor-cli",
        })
    }
}

/// A device-facing protocol adapter.
pub trait DeviceProtocol: Send + Sync {
    /// Which protocol this adapter speaks.
    fn kind(&self) -> ProtocolKind;

    /// Poll one device's protocol-visible state as attribute/value pairs.
    /// Errors with [`StateError::DeviceTimeout`] when the device's
    /// management plane does not answer.
    fn collect_device(&self, device: &DeviceName) -> StateResult<Vec<(Attribute, Value)>>;

    /// Poll one link's protocol-visible state. Link state is reported by
    /// its endpoint devices; if neither endpoint answers the poll times
    /// out.
    fn collect_link(&self, link: &LinkName) -> StateResult<Vec<(Attribute, Value)>>;

    /// Execute a management command. Errors with
    /// [`StateError::InvalidRequest`] when the protocol cannot carry this
    /// command class at all (the updater then picks another template).
    fn execute(&self, device: &DeviceName, command: DeviceCommand) -> StateResult<CommandOutcome>;
}

/// SNMP-like adapter: read-only.
#[derive(Clone)]
pub struct SnmpSim {
    net: SimNetwork,
}

impl SnmpSim {
    /// Build over a simulator handle.
    pub fn new(net: SimNetwork) -> Self {
        SnmpSim { net }
    }
}

impl DeviceProtocol for SnmpSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Snmp
    }

    fn collect_device(&self, device: &DeviceName) -> StateResult<Vec<(Attribute, Value)>> {
        let now = self.net.clock().now();
        let timeout = || StateError::DeviceTimeout {
            device: device.to_string(),
            operation: "snmp-walk".into(),
        };
        self.net
            .with_device(device, |d| {
                if !d.mgmt_reachable(now) {
                    return Err(timeout());
                }
                Ok(vec![
                    (Attribute::DeviceAdminPower, Value::Power(d.admin_power)),
                    (
                        Attribute::DevicePowerUnitReachable,
                        Value::Bool(d.power_unit_reachable),
                    ),
                    (
                        Attribute::DeviceFirmwareVersion,
                        Value::text(d.observed_firmware()),
                    ),
                    (Attribute::DeviceBootImage, Value::text(&d.boot_image)),
                    (
                        Attribute::DeviceMgmtInterface,
                        Value::Bool(d.mgmt_configured),
                    ),
                    (Attribute::DeviceCpuUtilization, Value::Float(d.cpu_util)),
                    (Attribute::DeviceMemoryUtilization, Value::Float(d.mem_util)),
                ])
            })
            .unwrap_or_else(|| Err(timeout()))
    }

    fn collect_link(&self, link: &LinkName) -> StateResult<Vec<(Attribute, Value)>> {
        let timeout = || StateError::DeviceTimeout {
            device: link.to_string(),
            operation: "snmp-walk".into(),
        };
        self.net
            .with_link(link, |l, reach| {
                // Link counters are reported by whichever endpoint answers.
                if !reach.a_mgmt && !reach.b_mgmt {
                    return Err(timeout());
                }
                Ok(vec![
                    (Attribute::LinkAdminPower, Value::Power(l.admin_power)),
                    (Attribute::LinkOperStatus, Value::oper(reach.oper_up)),
                    (Attribute::LinkTrafficLoadAB, Value::Float(l.load_ab_mbps)),
                    (Attribute::LinkTrafficLoadBA, Value::Float(l.load_ba_mbps)),
                    (Attribute::LinkPacketDropRate, Value::Float(l.drop_rate)),
                    (Attribute::LinkFcsErrorRate, Value::Float(l.fcs_error_rate)),
                    (
                        Attribute::LinkIpAssignment,
                        match &l.ip_assignment {
                            Some(ip) => Value::text(ip),
                            None => Value::None,
                        },
                    ),
                    (
                        Attribute::LinkControlPlane,
                        Value::ControlPlane(l.control_plane),
                    ),
                ])
            })
            .unwrap_or_else(|| Err(timeout()))
    }

    fn execute(&self, _device: &DeviceName, command: DeviceCommand) -> StateResult<CommandOutcome> {
        Err(StateError::invalid(format!(
            "SNMP adapter is read-only; cannot execute {}",
            command.verb()
        )))
    }
}

/// OpenFlow-like adapter: routing state only, OpenFlow models only.
#[derive(Clone)]
pub struct OpenFlowSim {
    net: SimNetwork,
}

impl OpenFlowSim {
    /// Build over a simulator handle.
    pub fn new(net: SimNetwork) -> Self {
        OpenFlowSim { net }
    }

    /// Run `f` over an OpenFlow-capable device's state, borrowed in
    /// place; a missing device times out, a non-OpenFlow model is refused.
    fn with_openflow<R>(
        &self,
        device: &DeviceName,
        f: impl FnOnce(&crate::device::SimDevice) -> StateResult<R>,
    ) -> StateResult<R> {
        self.net
            .with_device(device, |d| {
                if d.model != DeviceModel::OpenFlowSwitch {
                    return Err(StateError::invalid(format!(
                        "{device} is model {} — not OpenFlow-capable",
                        d.model
                    )));
                }
                f(d)
            })
            .unwrap_or_else(|| {
                Err(StateError::DeviceTimeout {
                    device: device.to_string(),
                    operation: "of-echo".into(),
                })
            })
    }
}

impl DeviceProtocol for OpenFlowSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::OpenFlow
    }

    fn collect_device(&self, device: &DeviceName) -> StateResult<Vec<(Attribute, Value)>> {
        let now = self.net.clock().now();
        self.with_openflow(device, |d| {
            if !d.mgmt_reachable(now) {
                return Err(StateError::DeviceTimeout {
                    device: device.to_string(),
                    operation: "of-echo".into(),
                });
            }
            Ok(vec![
                (
                    Attribute::DeviceOpenFlowAgent,
                    Value::Bool(d.of_agent_running),
                ),
                (
                    Attribute::DeviceRoutingRules,
                    Value::Routes(d.routing_rules.clone()),
                ),
                (
                    Attribute::DeviceLinkWeights,
                    Value::Routes(
                        // Represent weights as pseudo-rules for wire uniformity.
                        d.link_weights
                            .iter()
                            .map(|(l, w)| statesman_types::FlowLinkRule::new("*", l.clone(), *w))
                            .collect(),
                    ),
                ),
            ])
        })
    }

    fn collect_link(&self, _link: &LinkName) -> StateResult<Vec<(Attribute, Value)>> {
        // Link state is collected over SNMP in this deployment.
        Ok(Vec::new())
    }

    fn execute(&self, device: &DeviceName, command: DeviceCommand) -> StateResult<CommandOutcome> {
        if !command.is_routing() {
            return Err(StateError::invalid(format!(
                "OpenFlow adapter carries routing commands only, not {}",
                command.verb()
            )));
        }
        self.with_openflow(device, |_| Ok(()))?;
        Ok(self.net.submit(device, command))
    }
}

/// Vendor-CLI-like adapter: the management plane. Executes everything
/// except OpenFlow rule programming (on BGP models it also renders routing
/// changes, as route announcements/withdrawals).
#[derive(Clone)]
pub struct VendorCliSim {
    net: SimNetwork,
}

impl VendorCliSim {
    /// Build over a simulator handle.
    pub fn new(net: SimNetwork) -> Self {
        VendorCliSim { net }
    }
}

impl DeviceProtocol for VendorCliSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::VendorCli
    }

    fn collect_device(&self, device: &DeviceName) -> StateResult<Vec<(Attribute, Value)>> {
        let now = self.net.clock().now();
        let timeout = || StateError::DeviceTimeout {
            device: device.to_string(),
            operation: "cli-show".into(),
        };
        self.net
            .with_device(device, |d| {
                if !d.mgmt_reachable(now) {
                    return Err(timeout());
                }
                let mut rows = vec![(
                    Attribute::DeviceMgmtInterface,
                    Value::Bool(d.mgmt_configured),
                )];
                if d.model == DeviceModel::BgpRouter {
                    // BGP routers expose their RIB through the CLI.
                    rows.push((
                        Attribute::DeviceRoutingRules,
                        Value::Routes(d.routing_rules.clone()),
                    ));
                }
                Ok(rows)
            })
            .unwrap_or_else(|| Err(timeout()))
    }

    fn collect_link(&self, _link: &LinkName) -> StateResult<Vec<(Attribute, Value)>> {
        Ok(Vec::new())
    }

    fn execute(&self, device: &DeviceName, command: DeviceCommand) -> StateResult<CommandOutcome> {
        if command.is_routing() {
            let model = self.net.with_device(device, |d| d.model).ok_or_else(|| {
                StateError::DeviceTimeout {
                    device: device.to_string(),
                    operation: "cli-exec".into(),
                }
            })?;
            if model != DeviceModel::BgpRouter {
                return Err(StateError::invalid(format!(
                    "{device} is model {model} — routing goes through OpenFlow"
                )));
            }
        }
        Ok(self.net.submit(device, command))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::sim::SimConfig;
    use statesman_topology::{DcnSpec, WanSpec};
    use statesman_types::SimDuration;

    fn dc_sim() -> SimNetwork {
        SimNetwork::new(
            &DcnSpec::tiny("dc1").build(),
            SimClock::new(),
            SimConfig::ideal(),
        )
    }

    fn wan_sim() -> SimNetwork {
        SimNetwork::new(
            &WanSpec::fig9().build(),
            SimClock::new(),
            SimConfig::ideal(),
        )
    }

    #[test]
    fn snmp_collects_device_and_link_state() {
        let net = dc_sim();
        let snmp = SnmpSim::new(net.clone());
        let rows = snmp.collect_device(&DeviceName::new("agg-1-1")).unwrap();
        assert!(rows
            .iter()
            .any(|(a, _)| *a == Attribute::DeviceFirmwareVersion));
        let link = LinkName::between("tor-1-1", "agg-1-1");
        let rows = snmp.collect_link(&link).unwrap();
        assert!(rows
            .iter()
            .any(|(a, v)| *a == Attribute::LinkOperStatus && v.as_oper().unwrap().is_up()));
    }

    #[test]
    fn snmp_cannot_write() {
        let net = dc_sim();
        let snmp = SnmpSim::new(net);
        let err = snmp
            .execute(
                &DeviceName::new("agg-1-1"),
                DeviceCommand::SetBootImage { image: "x".into() },
            )
            .unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn snmp_times_out_on_rebooting_device() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        let snmp = SnmpSim::new(net);
        let err = snmp.collect_device(&dev).unwrap_err();
        assert!(matches!(err, StateError::DeviceTimeout { .. }));
    }

    #[test]
    fn link_polling_survives_one_dead_endpoint() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        let snmp = SnmpSim::new(net);
        let link = LinkName::between("tor-1-1", "agg-1-1");
        let rows = snmp.collect_link(&link).unwrap(); // tor-1-1 answers
        let oper = rows
            .iter()
            .find(|(a, _)| *a == Attribute::LinkOperStatus)
            .unwrap();
        assert!(!oper.1.as_oper().unwrap().is_up(), "peer is rebooting");
    }

    #[test]
    fn openflow_rejects_bgp_models() {
        let net = wan_sim();
        let of = OpenFlowSim::new(net);
        let err = of.collect_device(&DeviceName::new("br-1")).unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn openflow_programs_routing_on_switches() {
        let net = dc_sim();
        let of = OpenFlowSim::new(net.clone());
        let dev = DeviceName::new("agg-1-1");
        let out = of
            .execute(&dev, DeviceCommand::SetRoutingRules { rules: vec![] })
            .unwrap();
        assert!(out.is_applied());
        // ...but refuses management commands.
        let err = of
            .execute(&dev, DeviceCommand::SetBootImage { image: "x".into() })
            .unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn cli_carries_routing_on_bgp_only() {
        let wan = wan_sim();
        let cli = VendorCliSim::new(wan.clone());
        let out = cli
            .execute(
                &DeviceName::new("br-1"),
                DeviceCommand::SetRoutingRules { rules: vec![] },
            )
            .unwrap();
        assert!(out.is_applied());

        let dc = dc_sim();
        let cli = VendorCliSim::new(dc);
        let err = cli
            .execute(
                &DeviceName::new("agg-1-1"),
                DeviceCommand::SetRoutingRules { rules: vec![] },
            )
            .unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn cli_exposes_bgp_rib() {
        let wan = wan_sim();
        let cli = VendorCliSim::new(wan);
        let rows = cli.collect_device(&DeviceName::new("br-1")).unwrap();
        assert!(rows
            .iter()
            .any(|(a, _)| *a == Attribute::DeviceRoutingRules));
    }
}
