//! TAGE-family predictors with statistical corrector.
//!
//! This crate provides the paper's host predictors from the TAGE family
//! (§3.2.1):
//!
//! * [`Tage`] — the tagged-geometric-history-length predictor proper
//!   (defined in `bp-components`, beside the predictor trait that
//!   shares it across a fused simulation column; re-exported here),
//! * [`StatisticalCorrector`] — the neural corrector stage (GSC), with
//!   optional IMLI components and optional local-history components,
//! * [`TageSc`] — the composed predictor, with named configurations:
//!   [`TageGsc`] (the paper's global-history reference),
//!   [`TageGscImli`] (+ IMLI), [`TageScL`] (+ local history and loop
//!   predictor), and [`TageScLImli`] (+ both — the paper's §5 "record"
//!   configuration).

#![warn(missing_docs)]

mod composed;
mod sc;

pub use bp_components::{Tage, TageConfig, TageLookup, TageStep, MAX_TAGE_TABLES};
pub use composed::{TageSc, TageScConfig};
pub use sc::{LocalScConfig, ScConfig, StatisticalCorrector};

/// The paper's TAGE-GSC reference predictor (TAGE + global-history
/// statistical corrector, no local history, no loop predictor, no IMLI).
pub type TageGsc = TageSc;

/// Builds the four named configurations of Tables 1 and 2.
impl TageSc {
    /// TAGE-GSC: the base global-history predictor (paper: 228 Kbits,
    /// 2.473 MPKI on CBP4).
    pub fn tage_gsc() -> TageSc {
        TageSc::new(TageScConfig::gsc())
    }

    /// TAGE-GSC + IMLI ("+I" in Table 1; paper: 234 Kbits).
    pub fn tage_gsc_imli() -> TageSc {
        TageSc::new(TageScConfig::gsc_imli())
    }

    /// TAGE-GSC + IMLI-SIC only (the intermediate bar of Figures 8-9).
    pub fn tage_gsc_sic() -> TageSc {
        TageSc::new(TageScConfig::gsc_sic_only())
    }

    /// TAGE-SC-L: local history components and loop predictor enabled
    /// ("+L"; paper: 256 Kbits).
    pub fn tage_sc_l() -> TageSc {
        TageSc::new(TageScConfig::sc_l())
    }

    /// TAGE-SC-L + IMLI ("+I+L" — the §5 record configuration;
    /// paper: 261 Kbits, 2.226 MPKI on CBP4).
    pub fn tage_sc_l_imli() -> TageSc {
        TageSc::new(TageScConfig::sc_l_imli())
    }
}

/// TAGE-GSC augmented with both IMLI components (paper Figure 5).
pub struct TageGscImli;

impl TageGscImli {
    /// Constructs the default TAGE-GSC+IMLI predictor.
    pub fn default_config() -> TageSc {
        TageSc::tage_gsc_imli()
    }
}

/// TAGE-SC-L (the CBP4 winner configuration class: adds local history
/// and the loop predictor to TAGE-GSC).
pub struct TageScL;

impl TageScL {
    /// Constructs the default TAGE-SC-L predictor.
    pub fn default_config() -> TageSc {
        TageSc::tage_sc_l()
    }
}

/// TAGE-SC-L + IMLI: the paper's record-setting §5 configuration.
pub struct TageScLImli;

impl TageScLImli {
    /// Constructs the default TAGE-SC-L+IMLI predictor.
    pub fn default_config() -> TageSc {
        TageSc::tage_sc_l_imli()
    }
}
