//! Steady-state stream execution allocates nothing on the host.
//!
//! Each stream register owns its key and value buffers, a producing
//! instruction writes into scratch buffers that trade places with the
//! output register's, and refills and write-backs reuse line buffers.
//! After a warm-up that grows those buffers to size, repeating the same
//! instructions must make zero heap allocations on this thread, as
//! counted by `sc-host`'s counting allocator.
//!
//! The cache model grows each set's way list the first time the set
//! fills, a one-off cost bounded by the cache geometry. Output streams
//! land at ever-new addresses, so the paper's 12 MiB L3 would take
//! thousands of rounds to warm; the engines here use the small test
//! hierarchy, which the warm-up fills completely.

use sc_isa::{Bound, Priority, StreamId, ValueOp, EOS};
use sc_mem::HierarchyConfig;
use sparsecore::{Engine, NestedSource, SliceNestedSource, SparseCoreConfig};

fn sid(n: u32) -> StreamId {
    StreamId::new(n)
}

/// The paper's stream geometry over the small test hierarchy, with the
/// sanitizer off: the sanitizer is a debugging layer with its own
/// bookkeeping, not the hot path.
fn engine() -> Engine {
    let mut cfg = SparseCoreConfig::paper();
    cfg.core.mem = HierarchyConfig::tiny();
    cfg.sanitize = false;
    Engine::new(cfg)
}

/// Heap allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    assert!(sc_host::alloc::enabled(), "the counting allocator must be installed");
    let before = sc_host::alloc::thread_stats();
    f();
    sc_host::alloc::thread_stats().since(&before).count
}

fn adjacency() -> SliceNestedSource {
    let lists: Vec<Vec<u32>> =
        (0..400u32).map(|v| (0..v).filter(|u| (u * 7 + v) % 5 < 2).collect()).collect();
    SliceNestedSource::new(lists, 0x100_0000)
}

/// One round of key-stream instructions over `src`'s lists.
fn key_round(e: &mut Engine, src: &SliceNestedSource) {
    for v in (40..400).step_by(9) {
        let (a, b) = (src.keys(v), src.keys(v - 17));
        let pa = Priority(if v % 2 == 0 { 3 } else { 0 });
        e.s_read(src.key_addr(v), a, sid(0), pa).unwrap();
        e.s_read(src.key_addr(v - 17), b, sid(1), Priority(0)).unwrap();
        let n = e.s_inter(sid(0), sid(1), sid(2), Bound::below(v - 3)).unwrap();
        e.s_inter_c(sid(0), sid(2), Bound::none()).unwrap();
        e.s_sub(sid(0), sid(1), sid(3), Bound::none()).unwrap();
        e.s_merge(sid(2), sid(3), sid(4)).unwrap();
        e.s_merge_c(sid(0), sid(1)).unwrap();
        if n > 0 {
            assert_ne!(e.s_fetch(sid(2), n - 1).unwrap(), EOS);
        }
        e.s_nestinter(sid(2), src).unwrap();
        for s in 0..5 {
            e.s_free(sid(s)).unwrap();
        }
    }
}

#[test]
fn steady_state_key_stream_ops_make_no_allocations() {
    let src = adjacency();
    let mut e = engine();
    for _ in 0..3 {
        key_round(&mut e, &src);
    }
    let n = allocations(|| {
        for _ in 0..5 {
            key_round(&mut e, &src);
        }
    });
    assert_eq!(n, 0, "steady-state S_READ/S_INTER/S_INTER.C/S_FREE rounds allocated");
    assert!(e.stats().set_ops > 0);
}

/// One round of (key, value) instructions: two `S_VREAD`s, `S_VINTER`
/// on a sparse and a dense operand, and `S_VMERGE`.
fn value_round(e: &mut Engine, rows: &[(Vec<u32>, Vec<f64>)], dense: &(Vec<u32>, Vec<f64>)) {
    for (i, (k, v)) in rows.iter().enumerate() {
        let (nk, nv) = &rows[(i + 1) % rows.len()];
        let base = 0x200_0000 + i as u64 * 0x1_0000;
        e.s_vread(base, k, base + 0x8000, v, sid(0), Priority(0)).unwrap();
        e.s_vread(base + 0x1_0000, nk, base + 0x1_8000, nv, sid(1), Priority(0)).unwrap();
        e.s_vread(0x900_0000, &dense.0, 0x980_0000, &dense.1, sid(2), Priority(2)).unwrap();
        e.s_vinter(sid(0), sid(1), ValueOp::Mac).unwrap();
        e.s_vinter(sid(0), sid(2), ValueOp::Add).unwrap();
        e.s_vmerge(2.0, -1.0, sid(0), sid(1), sid(3)).unwrap();
        for s in 0..4 {
            e.s_free(sid(s)).unwrap();
        }
    }
}

#[test]
fn steady_state_value_stream_ops_make_no_allocations() {
    let rows: Vec<(Vec<u32>, Vec<f64>)> = (0..30u32)
        .map(|r| {
            let k: Vec<u32> = (0..600).filter(|c| (c * 13 + r * 7) % 11 < 3).collect();
            let v = k.iter().map(|&c| f64::from(c) * 0.5 + f64::from(r)).collect();
            (k, v)
        })
        .collect();
    let dense = ((0..600).collect(), (0..600).map(f64::from).collect());
    let mut e = engine();
    for _ in 0..3 {
        value_round(&mut e, &rows, &dense);
    }
    let n = allocations(|| {
        for _ in 0..5 {
            value_round(&mut e, &rows, &dense);
        }
    });
    assert_eq!(n, 0, "steady-state S_VREAD/S_VINTER/S_VMERGE/S_FREE rounds allocated");
    assert!(e.stats().value_ops > 0);
}
