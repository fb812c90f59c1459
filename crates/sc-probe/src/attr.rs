//! Cycle-attribution bins (the paper's Figure 9/10 breakdown, live).
//!
//! The core model keeps one cycle ledger (`sc_cpu::Core`): every clock
//! advance adds its cycles to exactly one slot, keyed by the span
//! [`Site`] the core was at. An [`Attribution`] is that ledger rolled up
//! to five causes ([`Site::bin`]), so the bins are trustworthy by
//! *conservation*: they sum to the total modeled cycles, because
//! `Core::advance` is the single choke point through which the core
//! clock moves.

use crate::json;
use crate::spans::Site;

/// Where a retired cycle went. The five bins of the paper's stacked
/// bars, generalized to the stream engine:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrBin {
    /// Waiting on a Stream Unit's parallel-comparison datapath (the
    /// "Intersection" share of Figure 10).
    SuCompare,
    /// Waiting on S-Cache window refills or stream-data readiness.
    ScacheRefill,
    /// Stalled on the conventional cache hierarchy / DRAM (loads,
    /// load-queue pressure).
    MemStall,
    /// Waiting on the nested-intersection translator (dependent stream
    /// info loads, translation-buffer back-pressure).
    Translator,
    /// Scalar work overlapping the stream engine: issue, dependent
    /// chains, branch penalties.
    ScalarOverlap,
}

impl AttrBin {
    /// All bins, in reporting order.
    pub const ALL: [AttrBin; 5] = [
        AttrBin::SuCompare,
        AttrBin::ScacheRefill,
        AttrBin::MemStall,
        AttrBin::Translator,
        AttrBin::ScalarOverlap,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            AttrBin::SuCompare => "su_compare",
            AttrBin::ScacheRefill => "scache_refill",
            AttrBin::MemStall => "mem_stall",
            AttrBin::Translator => "translator",
            AttrBin::ScalarOverlap => "scalar_overlap",
        }
    }

    /// Position in [`AttrBin::ALL`] (array index for per-bin arrays).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parse a [`AttrBin::name`] back (span-log JSON round trip).
    pub fn parse(s: &str) -> Option<AttrBin> {
        AttrBin::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// Cycles per attribution bin: per-site cycle totals rolled up by
/// [`Site::bin`] ([`Attribution::from_sites`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    bins: [u64; 5],
}

impl Attribution {
    /// Roll per-site cycle totals (indexed by `Site as usize`) up to
    /// their bins ([`Site::bin`]).
    pub fn from_sites(totals: &[u64; Site::COUNT]) -> Self {
        let mut bins = [0; 5];
        for site in Site::ALL {
            bins[site.bin().index()] += totals[site as usize];
        }
        Attribution { bins }
    }

    /// Cycles accumulated in `bin`.
    pub fn get(&self, bin: AttrBin) -> u64 {
        self.bins[bin.index()]
    }

    /// Cycles per bin, in [`AttrBin::ALL`] order.
    pub fn bins(&self) -> [u64; 5] {
        self.bins
    }

    /// Total cycles across all bins. Equal to the total modeled cycles
    /// when every clock advance is attributed (the conservation property
    /// the integration tests assert).
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Per-bin fractions of the total, in [`AttrBin::ALL`] order (all
    /// zeros when empty).
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total();
        if t == 0 {
            return [0.0; 5];
        }
        self.bins.map(|b| b as f64 / t as f64)
    }

    /// The attribution as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, bin) in AttrBin::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, bin.name());
            out.push(':');
            out.push_str(&self.get(*bin).to_string());
        }
        out.push('}');
        out
    }
}

impl std::fmt::Display for Attribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fr = self.fractions();
        for (i, bin) in AttrBin::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{} {:.1}%", bin.name(), fr[i] * 100.0)?;
        }
        write!(f, " ({} cycles)", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(cells: &[(Site, u64)]) -> Attribution {
        let mut totals = [0; Site::COUNT];
        for &(site, cycles) in cells {
            totals[site as usize] += cycles;
        }
        Attribution::from_sites(&totals)
    }

    #[test]
    fn conservation_of_total() {
        let a = sites(&[(Site::SuBusy, 10), (Site::MemReady, 20), (Site::Scalar, 70)]);
        assert_eq!(a.total(), 100);
        let fr = a.fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((fr[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sites_roll_up_to_their_bins() {
        let a = sites(&[
            (Site::SuRetire, 1),
            (Site::Drain, 2),
            (Site::ChunkClaim, 4),
            (Site::StreamSetup, 8),
            (Site::ScacheFill, 16),
            (Site::Translator, 32),
        ]);
        assert_eq!(a.bins(), [7, 24, 0, 32, 0]);
        assert_eq!(a.get(AttrBin::Translator), 32);
    }

    #[test]
    fn json_has_all_bins() {
        let a = sites(&[(Site::StreamSetup, 9)]);
        let j = crate::json::parse(&a.to_json()).unwrap();
        for bin in AttrBin::ALL {
            assert!(j.get(bin.name()).is_some(), "missing {}", bin.name());
        }
        assert_eq!(j.get("scache_refill").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn display_mentions_every_bin() {
        let s = Attribution::default().to_string();
        for bin in AttrBin::ALL {
            assert!(s.contains(bin.name()));
        }
    }

    #[test]
    fn index_follows_reporting_order() {
        for (i, bin) in AttrBin::ALL.into_iter().enumerate() {
            assert_eq!(bin.index(), i);
            assert_eq!(AttrBin::parse(bin.name()), Some(bin));
        }
    }
}
