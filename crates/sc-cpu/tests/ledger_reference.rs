//! The cycle ledger against the three-ledger accounting it replaced.
//!
//! `Core::advance` used to charge every clock advance three times: to a
//! `Breakdown` bucket, to an attribution bin and, with spans on, to a
//! (site × bin) grid plus a coalescing segment ring. `RefCore` keeps that
//! accounting as a reference model, next to the same timing rules (issue
//! width, load-queue overlap, mispredict refill). Both models run the same
//! random event sequences, including the engine's stall-site scopes, and
//! every report must agree exactly after every event: cycles, breakdown,
//! attribution, per-site totals and the segments of a 2-segment ring.

use std::collections::VecDeque;

use sc_cpu::{Breakdown, Core, CoreConfig, Gshare, Region};
use sc_mem::{Addr, Cycle, MemoryHierarchy};
use sc_probe::{AttrBin, Site};

const RING: usize = 2;

/// Why the reference clock advanced.
#[derive(Clone, Copy)]
enum Kind {
    Compute(Region),
    Mispredict,
    Stall,
}

/// The three-ledger core: `Breakdown`, five attribution bins, and a
/// span log with a (site × bin) totals grid.
struct RefCore {
    config: CoreConfig,
    mem: MemoryHierarchy,
    predictor: Gshare,
    cycle: Cycle,
    outstanding: VecDeque<Cycle>,
    region: Region,
    slack_uops: u64,
    breakdown: Breakdown,
    attr: [u64; 5],
    stall_ctx: AttrBin,
    stall_site: Site,
    cursor: u64,
    grid: [[u64; 5]; Site::COUNT],
    ring: VecDeque<(u64, u64, Site, AttrBin)>,
    dropped: u64,
}

impl RefCore {
    fn new(config: CoreConfig) -> Self {
        RefCore {
            config,
            mem: MemoryHierarchy::new(config.mem),
            predictor: Gshare::new(config.predictor_bits),
            cycle: 0,
            outstanding: VecDeque::new(),
            region: Region::Other,
            slack_uops: 0,
            breakdown: Breakdown::default(),
            attr: [0; 5],
            stall_ctx: AttrBin::MemStall,
            stall_site: Site::MemReady,
            cursor: 0,
            grid: [[0; 5]; Site::COUNT],
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    fn default_site(bin: AttrBin) -> Site {
        match bin {
            AttrBin::SuCompare => Site::SuRetire,
            AttrBin::ScacheRefill => Site::StreamSetup,
            AttrBin::MemStall => Site::MemReady,
            AttrBin::Translator => Site::Translator,
            AttrBin::ScalarOverlap => Site::Scalar,
        }
    }

    fn set_stall_ctx(&mut self, bin: AttrBin) -> AttrBin {
        self.stall_site = Self::default_site(bin);
        std::mem::replace(&mut self.stall_ctx, bin)
    }

    fn set_stall_site(&mut self, site: Site) -> Site {
        std::mem::replace(&mut self.stall_site, site)
    }

    fn record(&mut self, cycles: u64, site: Site, bin: AttrBin) {
        if cycles == 0 {
            return;
        }
        let start = self.cursor;
        self.cursor += cycles;
        self.grid[site as usize][bin.index()] += cycles;
        if let Some(last) = self.ring.back_mut() {
            if last.2 == site && last.3 == bin && last.1 == start {
                last.1 = self.cursor;
                return;
            }
        }
        if self.ring.len() == RING {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((start, self.cursor, site, bin));
    }

    fn advance(&mut self, cycles: Cycle, kind: Kind) {
        self.cycle += cycles;
        let (site, bin) = match kind {
            Kind::Compute(Region::Other) => {
                self.breakdown.other_compute += cycles;
                (Site::Scalar, AttrBin::ScalarOverlap)
            }
            Kind::Compute(Region::Intersection) => {
                self.breakdown.intersection += cycles;
                (Site::Scalar, AttrBin::ScalarOverlap)
            }
            Kind::Mispredict => {
                self.breakdown.mispredict += cycles;
                (Site::Scalar, AttrBin::ScalarOverlap)
            }
            Kind::Stall => {
                self.breakdown.cache += cycles;
                (self.stall_site, self.stall_ctx)
            }
        };
        self.attr[bin.index()] += cycles;
        self.record(cycles, site, bin);
    }

    fn ops(&mut self, n: u64) {
        let total = self.slack_uops + n;
        let width = u64::from(self.config.issue_width);
        self.slack_uops = total % width;
        self.advance(total / width, Kind::Compute(self.region));
    }

    fn dependent_ops(&mut self, n: u64) {
        self.advance(n, Kind::Compute(self.region));
    }

    fn branch(&mut self, pc: Addr, taken: bool) {
        self.ops(1);
        if !self.predictor.predict_and_update(pc, taken) {
            self.advance(self.config.mispredict_penalty, Kind::Mispredict);
        }
    }

    fn load(&mut self, addr: Addr) {
        self.ops(1);
        while self.outstanding.front().is_some_and(|&t| t <= self.cycle) {
            self.outstanding.pop_front();
        }
        if self.outstanding.len() >= self.config.load_queue as usize {
            let oldest = self.outstanding.pop_front().expect("non-empty queue");
            if oldest > self.cycle {
                self.advance(oldest - self.cycle, Kind::Stall);
            }
        }
        let latency = self.mem.load(addr).latency;
        self.outstanding.push_back(self.cycle + latency);
    }

    fn load_use(&mut self, addr: Addr) {
        self.ops(1);
        let latency = self.mem.load(addr).latency;
        let hidden = self.config.mem.l1.latency;
        if latency > hidden {
            self.advance(latency - hidden, Kind::Stall);
        }
    }

    fn wait_until(&mut self, t: Cycle) {
        if t > self.cycle {
            self.advance(t - self.cycle, Kind::Stall);
        }
    }
}

/// xorshift64*: a fixed, dependency-free event source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One event driven into both models.
fn step(core: &mut Core, r: &mut RefCore, rng: &mut Rng) {
    match rng.below(8) {
        0 => {
            let n = rng.below(9);
            core.ops(n);
            r.ops(n);
        }
        1 => {
            let n = rng.below(5);
            core.dependent_ops(n);
            r.dependent_ops(n);
        }
        2 => {
            let pc = 0x40 * rng.below(6);
            let taken = rng.below(3) == 0;
            core.branch(pc, taken);
            r.branch(pc, taken);
        }
        3 => {
            let addr = 64 * rng.below(4096);
            core.load(addr);
            r.load(addr);
        }
        4 => {
            let addr = 64 * rng.below(4096);
            core.load_use(addr);
            r.load_use(addr);
        }
        5 => {
            let c = rng.below(20);
            core.stall_memory(c);
            r.advance(c, Kind::Stall);
        }
        6 => {
            // Sometimes in the past: a no-op wait.
            let t = (core.cycles() + rng.below(30)).saturating_sub(10);
            core.wait_until(t);
            r.wait_until(t);
        }
        _ => {
            let region = if rng.below(2) == 0 { Region::Other } else { Region::Intersection };
            assert_eq!(core.set_region(region), r.region);
            r.region = region;
        }
    }
}

/// One of the engine's stall scopes: switch the stall site, run a few
/// events (optionally ending in an S-Cache window fill), restore.
fn scope(core: &mut Core, r: &mut RefCore, rng: &mut Rng) {
    let sites = [Site::SuRetire, Site::StreamSetup, Site::Translator, Site::Drain];
    let site = sites[rng.below(sites.len() as u64) as usize];
    let prev = core.set_stall_site(site);
    let prev_bin = r.set_stall_ctx(site.bin());
    r.set_stall_site(site);
    for _ in 0..1 + rng.below(6) {
        step(core, r, rng);
    }
    if rng.below(3) == 0 {
        let extra = 1 + rng.below(40);
        core.set_stall_site(Site::ScacheFill);
        core.stall_memory(extra);
        r.set_stall_ctx(AttrBin::ScacheRefill);
        r.set_stall_site(Site::ScacheFill);
        r.advance(extra, Kind::Stall);
    }
    core.set_stall_site(prev);
    r.set_stall_ctx(prev_bin);
}

fn assert_agree(core: &Core, r: &RefCore, ctx: &str) {
    assert_eq!(core.cycles(), r.cycle, "{ctx}: cycles");
    assert_eq!(core.breakdown(), r.breakdown, "{ctx}: breakdown");
    assert_eq!(core.attribution().bins(), r.attr, "{ctx}: attribution");
    let snap = core.span_snapshot().expect("span log enabled");
    assert_eq!(snap.total, r.cursor, "{ctx}: span cursor");
    assert_eq!(snap.dropped, r.dropped, "{ctx}: dropped segments");
    for site in Site::ALL {
        let row = r.grid[site as usize];
        assert_eq!(snap.totals[site as usize], row.iter().sum::<u64>(), "{ctx}: {site} total");
        for bin in AttrBin::ALL {
            assert!(bin == site.bin() || row[bin.index()] == 0, "{ctx}: {site} charged to {bin:?}");
        }
    }
    let reference: Vec<(u64, u64, Site)> = r
        .ring
        .iter()
        .map(|&(start, end, site, bin)| {
            assert_eq!(bin, site.bin(), "{ctx}: segment bin");
            (start, end, site)
        })
        .collect();
    let segments: Vec<(u64, u64, Site)> =
        snap.segments.iter().map(|s| (s.start, s.end, s.site)).collect();
    assert_eq!(segments, reference, "{ctx}: segments");
}

#[test]
fn ledger_matches_the_three_ledger_reference() {
    for (name, config) in [("tiny", CoreConfig::tiny()), ("paper", CoreConfig::paper())] {
        for seed in 1..=48u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut core = Core::new(config);
            core.enable_span_log(RING);
            let mut r = RefCore::new(config);
            for i in 0..300 {
                if rng.below(5) == 0 {
                    scope(&mut core, &mut r, &mut rng);
                } else {
                    step(&mut core, &mut r, &mut rng);
                }
                assert_agree(&core, &r, &format!("{name} seed {seed} event {i}"));
            }
            assert!(r.dropped > 0, "{name} seed {seed}: the ring never overflowed");
        }
    }
}
