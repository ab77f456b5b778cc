//! # mobility-mm — reproduction of the IMC'18 cellular mobility-configuration study
//!
//! *Mobility Support in Cellular Networks: A Measurement Study on Its
//! Configurations and Implications* (Deng, Peng, Fida, Meng, Hu — IMC 2018)
//! measured how 30 operators configure policy-based handoffs across 32,000+
//! cells, and what those configurations do to radio quality and throughput.
//!
//! This workspace rebuilds the whole measurement stack in Rust:
//!
//! * [`mmcore`] — the 3GPP policy-based handoff engine (the system under
//!   study): parameter registry, SIB configuration model, reporting events
//!   A1–A6/B1/B2, idle-mode reselection, the network decision, and the UE
//!   state machines.
//! * [`mmradio`] — radio substrate: bands/EARFCN, propagation with
//!   correlated shadowing, RSRP/RSRQ/SINR, cells and deployments.
//! * [`mmsignaling`] — bit-level SIB/RRC codec and signaling trace (the
//!   MobileInsight substitute).
//! * [`mmnetsim`] — deterministic drive-test simulator: mobility, traffic,
//!   link throughput, and the configure→measure→report→decide→execute loop.
//! * [`mmcarriers`] — 30 carrier profiles calibrated to the paper's
//!   published distributions, and the ~32k-cell world generator.
//! * [`mmlab`] — the MMLab analog: device-centric crawler, datasets D1/D2,
//!   Simpson/Cv diversity metrics, dependence measures.
//! * [`mmexperiments`] — one harness per table/figure (`mmx t2 … f22`).
//!
//! ## Quickstart
//!
//! ```
//! use mobility_mm::prelude::*;
//!
//! // A two-cell corridor with A3(3 dB) handoffs.
//! let chan = ChannelNumber::earfcn(850);
//! let model = PropagationModel::new(Environment::Urban, 7);
//! let deployment = Deployment::new(
//!     vec![cell(1, 0.0, 0.0, chan, 46.0), cell(2, 2500.0, 0.0, chan, 46.0)],
//!     model,
//! );
//! let mut configs = std::collections::BTreeMap::new();
//! for id in [1u32, 2] {
//!     let mut c = CellConfig::minimal(CellId(id), chan);
//!     c.report_configs.push(ReportConfig::a3(3.0));
//!     configs.insert(CellId(id), c);
//! }
//! let network = Network::new(deployment, configs);
//! let drive_cfg = DriveConfig::active_speedtest(
//!     Mobility::straight_line(50.0, 2500.0, 11.0),
//!     240_000,
//!     1,
//! );
//! let result = drive(&network, &drive_cfg).expect("UE attaches");
//! assert!(!result.handoffs.is_empty());
//! assert_eq!(result.handoffs[0].event_label(), "A3");
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use mm_exec;
pub use mmcarriers;
pub use mmcore;
pub use mmexperiments;
pub use mmlab;
pub use mmnetsim;
pub use mmradio;
pub use mmsignaling;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use mm_exec::Executor;
    pub use mmcarriers::{by_code, profiles, CarrierProfile, City, World};
    pub use mmcore::{
        CellConfig, ConnectedUe, DecisionPolicy, EventKind, IdleUe, NeighborFreqConfig, Quantity,
        ReportConfig, Reselector, ServingConfig,
    };
    pub use mmlab::{
        crawl, run_campaign, run_campaigns_parallel, CampaignConfig, Predicate, D1, D2,
    };
    pub use mmnetsim::{drive, DriveConfig, DriveResult, Mobility, Network, Traffic};
    pub use mmradio::cell::cell;
    pub use mmradio::{
        CellId, ChannelNumber, Deployment, Environment, PhyCell, Point, PropagationModel, Rat,
        Route, Rsrp, Rsrq,
    };
    pub use mmsignaling::{assemble, broadcast, RrcMessage, SignalingLog};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let p = by_code("A").expect("AT&T exists");
        assert_eq!(p.name, "AT&T");
        assert_eq!(CellId(3).to_string(), "cell#3");
    }
}
