#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
//! # mmexperiments — the table/figure regeneration harness
//!
//! One function per artifact of the paper's evaluation: Tables 2–4 and
//! Figures 5–22, plus the repo's own ablations and the configuration audit.
//! Dispatch is typed: [`Artifact`] enumerates every artifact, parses from
//! its id (`"t2"`, `"f5"`, …) and [`run`] returns an [`ArtifactOutput`].
//! The `mmx` binary fans independent artifacts out over `mm-exec`.

pub mod ablations;
pub mod active;
pub mod audit;
pub mod cli;
pub mod context;
pub mod factors;
pub mod fleet;
pub mod idle;
pub mod landscape;
pub mod query;
pub mod serve;
pub mod store;
pub mod stream;
pub mod tables;

pub use cli::MetricsSink;
pub use context::{Ctx, CtxBuilder};
pub use fleet::{run_fleet, run_fleet_on, FleetConfig, FleetReport, FleetTally};
pub use mmcore::MmError;
pub use query::{QueryEngine, QueryRequest, QueryResult};
pub use serve::{serve, ServeConfig};
pub use store::{RunBundle, RunStore};
pub use stream::D2Agg;

use std::fmt;
use std::str::FromStr;

macro_rules! artifacts {
    ($($variant:ident => ($id:literal, $title:literal),)+) => {
        /// Every artifact the harness can regenerate, in paper order
        /// (tables, then figures, then ablations/audit).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Artifact {
            $(#[doc = concat!("`", $id, "` — ", $title)] $variant,)+
        }

        impl Artifact {
            /// All artifacts, paper artifacts first, then ablations.
            pub const ALL: [Artifact; artifacts!(@count $($variant)+)] =
                [$(Artifact::$variant,)+];

            /// The dispatch id (`"t2"`, `"f5"`, `"abl-a3"`, …).
            pub const fn id(self) -> &'static str {
                match self { $(Artifact::$variant => $id,)+ }
            }

            /// Human-readable title of the regenerated table/figure.
            pub const fn title(self) -> &'static str {
                match self { $(Artifact::$variant => $title,)+ }
            }
        }
    };
    (@count $($x:ident)+) => { 0 $(+ { let _ = stringify!($x); 1 })+ };
}

artifacts! {
    T2 => ("t2", "Table 2: configuration parameters standardized for handoff at 4G LTE cells"),
    T3 => ("t3", "Table 3: main carriers and their acronyms"),
    T4 => ("t4", "Table 4: breakdown per RAT"),
    F5 => ("f5", "Fig 5: decisive reporting events and their parameter ranges"),
    F6 => ("f6", "Fig 6: dRSRP across handoff by decisive event"),
    F7 => ("f7", "Fig 7: throughput around two example handoffs"),
    F8 => ("f8", "Fig 8: impact of reporting-config variants on throughput"),
    F9 => ("f9", "Fig 9: dRSRP vs configured dA3 / A5 thresholds vs RSRQ"),
    F10 => ("f10", "Fig 10: dRSRP in idle-state handoffs by priority relation"),
    F11 => ("f11", "Fig 11: idle-state parameter ranges"),
    F12 => ("f12", "Fig 12: cells and samples per carrier"),
    F13 => ("f13", "Fig 13: samples per cell and configuration updates"),
    F14 => ("f14", "Fig 14: representative parameter value distributions"),
    F15 => ("f15", "Fig 15: value landscapes across carriers"),
    F16 => ("f16", "Fig 16: diversity of LTE handoff parameters, Simpson-sorted"),
    F17 => ("f17", "Fig 17: diversity measures of eight parameters across carriers"),
    F18 => ("f18", "Fig 18: serving/candidate priorities per EARFCN"),
    F19 => ("f19", "Fig 19: frequency dependence per parameter"),
    F20 => ("f20", "Fig 20: city-level serving-priority distributions"),
    F21 => ("f21", "Fig 21: spatial diversity of priorities within radius"),
    F22 => ("f22", "Fig 22: parameter diversity by RAT generation"),
    AblA3 => ("abl-a3", "Ablation: dA3 sweep on a corridor network"),
    AblQhyst => ("abl-qhyst", "Ablation: q-Hyst sweep and reselection ping-pong"),
    AblTtt => ("abl-ttt", "Ablation: timeToTrigger sweep"),
    Audit => ("audit", "Configuration audit over the crawled world"),
}

/// Number of paper artifacts (Tables 2–4 + Figures 5–22).
const N_PAPER: usize = 21;
/// Number of ablation/audit artifacts.
const N_ABLATIONS: usize = Artifact::ALL.len() - N_PAPER;

const fn ids<const N: usize>(arts: [Artifact; N]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = arts[i].id();
        i += 1;
    }
    out
}

const fn slice<const N: usize>(offset: usize) -> [Artifact; N] {
    let mut out = [Artifact::T2; N];
    let mut i = 0;
    while i < N {
        out[i] = Artifact::ALL[offset + i];
        i += 1;
    }
    out
}

impl Artifact {
    /// The paper's artifacts (Tables 2–4, Figures 5–22), in paper order.
    pub const PAPER: [Artifact; N_PAPER] = slice(0);

    /// Ablation studies and audits beyond the paper's figures.
    pub const ABLATIONS: [Artifact; N_ABLATIONS] = slice(N_PAPER);

    /// Whether this artifact is an ablation/audit (not in the paper).
    pub const fn is_ablation(self) -> bool {
        matches!(
            self,
            Artifact::AblA3 | Artifact::AblQhyst | Artifact::AblTtt | Artifact::Audit
        )
    }

    /// Whether regenerating this artifact reads the D2 aggregate
    /// (Figures 11–22). Used by [`Ctx::warm_for`] so a figure-only run at
    /// paper scale never materializes what it won't read.
    pub const fn needs_d2_agg(self) -> bool {
        matches!(
            self,
            Artifact::F11
                | Artifact::F12
                | Artifact::F13
                | Artifact::F14
                | Artifact::F15
                | Artifact::F16
                | Artifact::F17
                | Artifact::F18
                | Artifact::F19
                | Artifact::F20
                | Artifact::F21
                | Artifact::F22
        )
    }

    /// Whether this artifact reads the active-state D1 (Figures 5–9).
    pub const fn needs_d1_active(self) -> bool {
        matches!(
            self,
            Artifact::F5 | Artifact::F6 | Artifact::F7 | Artifact::F8 | Artifact::F9
        )
    }

    /// Whether this artifact reads the idle-state D1 (Figure 10).
    pub const fn needs_d1_idle(self) -> bool {
        matches!(self, Artifact::F10)
    }
}

/// All paper artifact ids in paper order (derived from [`Artifact::PAPER`],
/// so the list can't drift from the enum).
pub const ARTIFACTS: [&str; N_PAPER] = ids(Artifact::PAPER);

/// Ablation/audit artifact ids (derived from [`Artifact::ABLATIONS`]).
pub const ABLATIONS: [&str; N_ABLATIONS] = ids(Artifact::ABLATIONS);

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl FromStr for Artifact {
    type Err = MmError;

    fn from_str(s: &str) -> Result<Artifact, MmError> {
        Artifact::ALL
            .into_iter()
            .find(|a| a.id() == s)
            .ok_or_else(|| MmError::UnknownArtifact(s.to_string()))
    }
}

/// The result of regenerating one artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactOutput {
    /// Which artifact this is.
    pub artifact: Artifact,
    /// The rendered series/rows, exactly as `mmx` prints them.
    pub text: String,
}

/// Run one artifact.
pub fn run(ctx: &Ctx, artifact: Artifact) -> ArtifactOutput {
    use Artifact::*;
    let _span = mm_telemetry::global().span("artifacts", artifact.id());
    let text = match artifact {
        T2 => tables::t2(),
        T3 => tables::t3(),
        T4 => tables::t4(ctx),
        F5 => active::f5(ctx),
        F6 => active::f6(ctx),
        F7 => active::f7(ctx),
        F8 => active::f8(ctx),
        F9 => active::f9(ctx),
        F10 => idle::f10(ctx),
        F11 => idle::f11(ctx),
        F12 => landscape::f12(ctx),
        F13 => landscape::f13(ctx),
        F14 => landscape::f14(ctx),
        F15 => landscape::f15(ctx),
        F16 => landscape::f16(ctx),
        F17 => landscape::f17(ctx),
        F18 => factors::f18(ctx),
        F19 => factors::f19(ctx),
        F20 => factors::f20(ctx),
        F21 => factors::f21(ctx),
        F22 => factors::f22(ctx),
        AblA3 => ablations::abl_a3(ctx.runs as u64 * 2),
        AblQhyst => ablations::abl_qhyst(ctx.runs as u64),
        AblTtt => ablations::abl_ttt(ctx.runs as u64),
        Audit => audit::verify_report(ctx),
    };
    ArtifactOutput { artifact, text }
}

/// Run one artifact by id string (convenience for string-typed callers).
pub fn run_id(ctx: &Ctx, id: &str) -> Result<ArtifactOutput, MmError> {
    Ok(run(ctx, id.parse()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_id_round_trips() {
        for artifact in Artifact::ALL {
            assert_eq!(artifact.id().parse::<Artifact>().unwrap(), artifact);
            assert!(!artifact.title().is_empty());
        }
        assert!(
            matches!("f99".parse::<Artifact>(), Err(MmError::UnknownArtifact(s)) if s == "f99")
        );
    }

    #[test]
    fn cheap_artifacts_dispatch() {
        let ctx = Ctx::quick(1);
        // Only the cheap static artifacts here; the heavy ones run in the
        // integration suite.
        for artifact in [Artifact::T2, Artifact::T3] {
            let out = run(&ctx, artifact);
            assert_eq!(out.artifact, artifact);
            assert!(!out.text.is_empty(), "{artifact}");
        }
        assert!(run_id(&ctx, "t3").is_ok());
        assert!(run_id(&ctx, "nope").is_err());
    }

    #[test]
    fn artifact_list_matches_paper_inventory() {
        assert_eq!(ARTIFACTS.len(), 21, "3 tables + 18 figures (5..22)");
        assert_eq!(ARTIFACTS[0], "t2");
        assert_eq!(ARTIFACTS[20], "f22");
        assert_eq!(ABLATIONS, ["abl-a3", "abl-qhyst", "abl-ttt", "audit"]);
        // The id lists derive from the enum: no drift possible.
        assert!(Artifact::PAPER.iter().all(|a| !a.is_ablation()));
        assert!(Artifact::ABLATIONS.iter().all(|a| a.is_ablation()));
    }
}
