//! Verified multi-switch topologies.
//!
//! [`TopologyBuilder`] assembles the Exp#9-style linear path — n
//! switches, n−1 lossy links, per-node clock offsets — with one extra
//! guarantee over building the pieces by hand: **every switch on the
//! path is statically verified before it exists.** Each node's pipeline
//! program is derived from its concrete configuration and application
//! and pushed through `ow-verify`; a single unplaceable or
//! C4-violating node rejects the whole topology with that node's
//! diagnostic report.
//!
//! [`TopologyBuilder::build_live`] additionally attaches the sharded
//! live controller to the verified path: the builder's
//! [`TopologyBuilder::shards`] knob sets how many merge worker shards
//! the controller spawns, so a topology experiment can dial collection
//! throughput without touching any call site.

use ow_controller::live::LiveController;
use ow_obs::Obs;
use ow_switch::app::DataPlaneApp;
use ow_switch::switch::{Switch, SwitchConfig};
use ow_verify::{verified_switch, VerifyReport};

use crate::sim::{Link, NetSim, NodeConfig};

/// A fully built path: verified switches plus the event simulator that
/// carries packets between them.
#[derive(Debug)]
pub struct VerifiedPath<A> {
    /// One verified switch per node, in path order.
    pub switches: Vec<Switch<A>>,
    /// The discrete-event simulator over the same nodes and links.
    pub sim: NetSim,
}

/// A [`VerifiedPath`] plus the live sharded controller collecting the
/// last hop's AFR batches.
pub struct LivePath<A> {
    /// The verified switches and their simulator.
    pub path: VerifiedPath<A>,
    /// The running sharded merge controller.
    pub controller: LiveController,
}

/// A structurally invalid topology, rejected before any switch is
/// verified or constructed.
#[derive(Debug)]
pub enum TopologyError {
    /// Two nodes declared the same id.
    DuplicateNodeId(String),
    /// A link referenced a node id that was never declared.
    UnknownEndpoint {
        /// Index of the offending link, in declaration order.
        link: usize,
        /// The undeclared node id the link referenced.
        id: String,
    },
    /// A named link connected two nodes that are not consecutive on the
    /// path ([`NetSim::path`] is strictly linear).
    NonAdjacentLink {
        /// Index of the offending link, in declaration order.
        link: usize,
        /// The link's upstream endpoint id.
        from: String,
        /// The link's downstream endpoint id.
        to: String,
    },
    /// A node's derived pipeline program failed static verification;
    /// the boxed report carries its diagnostics.
    Verify(Box<VerifyReport>),
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::DuplicateNodeId(id) => {
                write!(f, "duplicate node id '{id}' in topology")
            }
            TopologyError::UnknownEndpoint { link, id } => {
                write!(f, "link {link} references undeclared node '{id}'")
            }
            TopologyError::NonAdjacentLink { link, from, to } => write!(
                f,
                "link {link} connects '{from}' and '{to}', which are not \
                 consecutive on the path"
            ),
            TopologyError::Verify(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<Box<VerifyReport>> for TopologyError {
    fn from(report: Box<VerifyReport>) -> TopologyError {
        TopologyError::Verify(report)
    }
}

impl TopologyError {
    /// The verification report, when the failure came from `ow-verify`.
    pub fn verify_report(&self) -> Option<&VerifyReport> {
        match self {
            TopologyError::Verify(report) => Some(report),
            _ => None,
        }
    }
}

/// Builder for a linear path of verified OmniWindow switches.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    nodes: Vec<NodeConfig>,
    node_ids: Vec<String>,
    links: Vec<Link>,
    /// Declared endpoints per link (`None` for positional
    /// [`TopologyBuilder::link`] calls, which are adjacent by
    /// construction).
    link_endpoints: Vec<Option<(String, String)>>,
    seed: u64,
    shards: usize,
    obs: Option<Obs>,
}

impl Default for TopologyBuilder {
    fn default() -> TopologyBuilder {
        TopologyBuilder::new(0)
    }
}

impl TopologyBuilder {
    /// Start an empty topology; `seed` drives the simulator's loss and
    /// jitter draws. The controller shard count defaults to the
    /// process-wide `OW_SHARDS` setting.
    pub fn new(seed: u64) -> TopologyBuilder {
        TopologyBuilder {
            nodes: Vec::new(),
            node_ids: Vec::new(),
            links: Vec::new(),
            link_endpoints: Vec::new(),
            seed,
            shards: ow_controller::live::shards_from_env(),
            obs: None,
        }
    }

    /// Attach an observability registry to the topology: every verified
    /// switch records its C&R histograms and lifecycle events into it,
    /// and [`TopologyBuilder::build_live`]'s controller exposes its
    /// per-shard queue-depth gauges and drop counters through it.
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.obs = Some(obs.clone());
        self
    }

    /// Set how many merge shards [`TopologyBuilder::build_live`]'s
    /// controller spawns (≥ 1; the fold stays byte-identical at any
    /// count).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Append a node (the first node becomes the stamping first hop),
    /// auto-named `node<index>`.
    pub fn node(self, cfg: NodeConfig) -> Self {
        let id = format!("node{}", self.nodes.len());
        self.named_node(id, cfg)
    }

    /// Append a node under an explicit id. Duplicate ids are rejected at
    /// build time with [`TopologyError::DuplicateNodeId`].
    pub fn named_node(mut self, id: impl Into<String>, cfg: NodeConfig) -> Self {
        self.nodes.push(cfg);
        self.node_ids.push(id.into());
        self
    }

    /// Append the link connecting the last added node to the next one.
    pub fn link(mut self, link: Link) -> Self {
        self.links.push(link);
        self.link_endpoints.push(None);
        self
    }

    /// Append a link declared by its endpoint ids. Both ids must name
    /// declared nodes ([`TopologyError::UnknownEndpoint`] otherwise) and
    /// the pair must be consecutive on the path
    /// ([`TopologyError::NonAdjacentLink`]) — checked at build time,
    /// before any switch is verified.
    pub fn link_between(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        link: Link,
    ) -> Self {
        self.links.push(link);
        self.link_endpoints.push(Some((from.into(), to.into())));
        self
    }

    /// Reject structurally broken topologies: duplicate node ids, links
    /// whose declared endpoints were never declared as nodes, and named
    /// links that skip over the linear path.
    fn validate(&self) -> Result<(), TopologyError> {
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for id in &self.node_ids {
            if !seen.insert(id.as_str()) {
                return Err(TopologyError::DuplicateNodeId(id.clone()));
            }
        }
        for (index, endpoints) in self.link_endpoints.iter().enumerate() {
            let Some((from, to)) = endpoints else {
                continue;
            };
            let position = |id: &String| self.node_ids.iter().position(|n| n == id);
            let from_pos = position(from).ok_or_else(|| TopologyError::UnknownEndpoint {
                link: index,
                id: from.clone(),
            })?;
            let to_pos = position(to).ok_or_else(|| TopologyError::UnknownEndpoint {
                link: index,
                id: to.clone(),
            })?;
            if to_pos != from_pos + 1 {
                return Err(TopologyError::NonAdjacentLink {
                    link: index,
                    from: from.clone(),
                    to: to.clone(),
                });
            }
        }
        Ok(())
    }

    /// Verify and build every switch on the path, then the simulator.
    ///
    /// `app` is called as `app(node_index, region)` to create the two
    /// per-region application instances of each node. The first node is
    /// configured as the stamping first hop; downstream nodes adopt
    /// stamps (§4.2). A structurally broken topology (duplicate node
    /// id, link referencing an undeclared node) is rejected before any
    /// switch exists; any node whose derived pipeline program fails
    /// static verification aborts the build with its report.
    ///
    /// # Panics
    /// Panics unless `links == nodes − 1` (a linear path), as
    /// [`NetSim::path`] requires.
    pub fn build_verified<A, F>(
        self,
        cfg: &SwitchConfig,
        mut app: F,
    ) -> Result<VerifiedPath<A>, TopologyError>
    where
        A: DataPlaneApp,
        F: FnMut(usize, usize) -> A,
    {
        self.validate()?;
        let mut switches = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            let node_cfg = SwitchConfig {
                first_hop: i == 0,
                ..cfg.clone()
            };
            let mut switch = verified_switch(node_cfg, app(i, 0), app(i, 1))?;
            if let Some(obs) = &self.obs {
                switch.attach_obs(obs);
            }
            switches.push(switch);
        }
        Ok(VerifiedPath {
            switches,
            sim: NetSim::path(self.nodes, self.links, self.seed),
        })
    }

    /// [`TopologyBuilder::build_verified`] plus a running sharded live
    /// controller (sliding window of `window_subwindows` sub-windows,
    /// `queue_depth`-bounded channels) wired for the path's AFR
    /// batches. The shard count comes from [`TopologyBuilder::shards`].
    ///
    /// # Panics
    /// Panics unless `links == nodes − 1` (a linear path), as
    /// [`NetSim::path`] requires.
    pub fn build_live<A, F>(
        self,
        cfg: &SwitchConfig,
        app: F,
        window_subwindows: usize,
        queue_depth: usize,
    ) -> Result<LivePath<A>, TopologyError>
    where
        A: DataPlaneApp,
        F: FnMut(usize, usize) -> A,
    {
        let shards = self.shards;
        let obs = self.obs.clone();
        let path = self.build_verified(cfg, app)?;
        Ok(LivePath {
            path,
            controller: LiveController::spawn_sharded_obs(
                window_subwindows,
                queue_depth,
                shards,
                obs.as_ref(),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::flowkey::KeyKind;
    use ow_sketch::CountMin;
    use ow_switch::app::FrequencyApp;

    fn app(node: usize, region: usize) -> FrequencyApp<CountMin> {
        let seed = (node as u64) << 8 | region as u64;
        FrequencyApp::new(CountMin::new(2, 4096, seed), KeyKind::SrcIp, false)
    }

    #[test]
    fn two_node_path_builds_verified() {
        let path = TopologyBuilder::new(7)
            .node(NodeConfig::default())
            .link(Link::default())
            .node(NodeConfig {
                clock_offset_ns: 1_500,
            })
            .build_verified(
                &SwitchConfig {
                    fk_capacity: 1024,
                    expected_flows: 4096,
                    ..SwitchConfig::default()
                },
                app,
            )
            .expect("both nodes verify");
        assert_eq!(path.switches.len(), 2);
    }

    #[test]
    fn live_path_attaches_a_sharded_controller() {
        use ow_common::afr::FlowRecord;
        use ow_common::block::RecordBlock;
        use ow_common::flowkey::FlowKey;
        use ow_controller::live::DataPlaneMsg;

        let live = TopologyBuilder::new(7)
            .shards(4)
            .node(NodeConfig::default())
            .link(Link::default())
            .node(NodeConfig::default())
            .build_live(
                &SwitchConfig {
                    fk_capacity: 1024,
                    expected_flows: 4096,
                    ..SwitchConfig::default()
                },
                app,
                3,
                16,
            )
            .expect("both nodes verify");
        assert_eq!(live.path.switches.len(), 2);
        assert_eq!(live.controller.handle.shard_count(), 4);
        assert_eq!(live.controller.handle.window_span(), 3);
        for sw in 0..2u32 {
            let afrs: Vec<FlowRecord> = (0..20)
                .map(|i| FlowRecord::frequency(FlowKey::src_ip(i), 5, sw))
                .collect();
            live.controller
                .sender
                .send(DataPlaneMsg::AfrBlock {
                    block: RecordBlock::from_records(sw, &afrs),
                    seal: true,
                })
                .unwrap();
        }
        let handle = live.controller.handle.clone();
        assert_eq!(live.controller.join(), 2);
        assert_eq!(handle.merged_flows(), 20);
        assert_eq!(handle.subwindows(), vec![0, 1]);
    }

    #[test]
    fn obs_knob_wires_the_registry_through_switches_and_controller() {
        use ow_common::afr::FlowRecord;
        use ow_common::block::RecordBlock;
        use ow_common::flowkey::FlowKey;
        use ow_controller::live::DataPlaneMsg;

        let obs = Obs::new();
        let live = TopologyBuilder::new(7)
            .shards(2)
            .obs(&obs)
            .node(NodeConfig::default())
            .link(Link::default())
            .node(NodeConfig::default())
            .build_live(
                &SwitchConfig {
                    fk_capacity: 1024,
                    expected_flows: 4096,
                    ..SwitchConfig::default()
                },
                app,
                3,
                16,
            )
            .expect("both nodes verify");
        let afrs: Vec<FlowRecord> = (0..10)
            .map(|i| FlowRecord::frequency(FlowKey::src_ip(i), 5, 0))
            .collect();
        live.controller
            .sender
            .send(DataPlaneMsg::AfrBlock {
                block: RecordBlock::from_records(0, &afrs),
                seal: true,
            })
            .unwrap();
        assert_eq!(live.controller.join(), 1);

        let snap = obs.snapshot();
        // Controller side: the routed batch and both shard gauges
        // (drained back to zero) are visible.
        assert_eq!(snap.value("ow_controller_batches_total", &[]), 1);
        for shard in 0..2u32 {
            let gauge = snap
                .get(
                    "ow_controller_shard_queue_depth",
                    &[("shard", &shard.to_string())],
                )
                .expect("per-shard gauge registered");
            assert_eq!(gauge.value, 0);
        }
        // Switch side: both verified switches attached the same
        // registry (their metric families exist even before any
        // collection runs).
        assert!(snap.get("ow_switch_collections_total", &[]).is_some());
        assert!(snap
            .get("ow_common_engine_transitions_total", &[("side", "switch")])
            .is_some());
    }

    #[test]
    fn unverifiable_node_rejects_the_topology() {
        // An fk_buffer this size cannot fit any stage's SRAM budget; the
        // topology must be rejected before any switch is constructed.
        let err = TopologyBuilder::new(7)
            .node(NodeConfig::default())
            .build_verified(
                &SwitchConfig {
                    fk_capacity: 100_000_000,
                    expected_flows: 4096,
                    ..SwitchConfig::default()
                },
                app,
            )
            .expect_err("oversized pipeline must be rejected");
        let report = err.verify_report().expect("verification failure");
        assert!(
            report.has_code(ow_verify::ErrorCode::SramOverflow),
            "{report}"
        );
    }

    #[test]
    fn duplicate_node_ids_reject_the_topology() {
        let err = TopologyBuilder::new(7)
            .named_node("tor-a", NodeConfig::default())
            .link(Link::default())
            .named_node("tor-a", NodeConfig::default())
            .build_verified(&SwitchConfig::default(), app)
            .expect_err("duplicate id must be rejected");
        assert!(matches!(&err, TopologyError::DuplicateNodeId(id) if id == "tor-a"));
        assert_eq!(err.to_string(), "duplicate node id 'tor-a' in topology");
    }

    #[test]
    fn link_referencing_undeclared_node_rejects_the_topology() {
        let err = TopologyBuilder::new(7)
            .named_node("tor-a", NodeConfig::default())
            .link_between("tor-a", "tor-z", Link::default())
            .named_node("tor-b", NodeConfig::default())
            .build_verified(&SwitchConfig::default(), app)
            .expect_err("undeclared endpoint must be rejected");
        assert!(
            matches!(&err, TopologyError::UnknownEndpoint { link: 0, id } if id == "tor-z"),
            "{err}"
        );
        assert_eq!(err.to_string(), "link 0 references undeclared node 'tor-z'");
    }

    #[test]
    fn non_adjacent_named_link_rejects_the_topology() {
        let err = TopologyBuilder::new(7)
            .named_node("a", NodeConfig::default())
            .link_between("a", "c", Link::default())
            .named_node("b", NodeConfig::default())
            .named_node("c", NodeConfig::default())
            .build_verified(&SwitchConfig::default(), app)
            .expect_err("path-skipping link must be rejected");
        assert!(
            matches!(err, TopologyError::NonAdjacentLink { link: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn named_adjacent_links_build() {
        let path = TopologyBuilder::new(7)
            .named_node("tor-a", NodeConfig::default())
            .link_between("tor-a", "tor-b", Link::default())
            .named_node(
                "tor-b",
                NodeConfig {
                    clock_offset_ns: 900,
                },
            )
            .build_verified(
                &SwitchConfig {
                    fk_capacity: 1024,
                    expected_flows: 4096,
                    ..SwitchConfig::default()
                },
                app,
            )
            .expect("adjacent named link verifies");
        assert_eq!(path.switches.len(), 2);
    }
}
