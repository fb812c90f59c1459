//! The traced run's timing decorators.
//!
//! [`Timed`] wraps a real backend, implements the same backend trait
//! (`SetBackend` for GPM, `TensorBackend` for the tensor kernels) and
//! forwards every call, accumulating per call kind the host wall time,
//! the call count and the allocations made inside the call. The spans
//! are aggregated in memory ([`Ledger`]) rather than logged per call: a
//! `gpm_stream` pass makes millions of backend calls.
//!
//! The decorator only observes: every call reaches the wrapped backend
//! with the same arguments, in the same order, so a traced pass yields
//! the same simulated digest as an untraced one (checked per case).

use sc_gpm::exec::SetBackend;
use sc_isa::Key;
use sc_kernels::{TensorBackend, VStream};
use std::time::Instant;

/// The kind of backend call a span covers. Which layer a kind belongs to
/// depends on the backend: on the stream backends every kind is the
/// `core` engine, on the scalar backend every kind is `sc-cpu`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `edge_list` / `edge_list_bounded` (`S_READ` on the engine).
    Read,
    /// `intersect`, `subtract` and their `_count` forms.
    SetOp,
    /// `nested_count` (`S_NESTINTER`).
    Nested,
    /// `fetch` and `bounded_len` (`S_FETCH`).
    Fetch,
    /// `release` (`S_FREE`).
    Free,
    /// Scalar-side work: loop branches, generic ops, `list_contains`,
    /// result stores.
    Scalar,
    /// `finish`: draining the simulated machine.
    Finish,
    /// Tensor `load` (`S_VREAD`).
    VRead,
    /// Tensor `dot` / `gather_dot` (`S_VINTER`).
    VInter,
    /// Tensor `scaled_merge` (`S_VMERGE`).
    VMerge,
}

impl Call {
    /// Every call kind, in ledger order.
    pub const ALL: [Call; 10] = [
        Call::Read,
        Call::SetOp,
        Call::Nested,
        Call::Fetch,
        Call::Free,
        Call::Scalar,
        Call::Finish,
        Call::VRead,
        Call::VInter,
        Call::VMerge,
    ];
}

/// Aggregated spans of one call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Host seconds inside the calls.
    pub secs: f64,
    /// Number of calls.
    pub calls: u64,
    /// Allocations made inside the calls (this thread).
    pub allocs: u64,
    /// Bytes allocated inside the calls (this thread).
    pub alloc_bytes: u64,
}

impl Span {
    fn add(&mut self, other: &Span) {
        self.secs += other.secs;
        self.calls += other.calls;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// Per-call-kind spans, summed over every call a decorator forwarded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    spans: [Span; Call::ALL.len()],
}

impl Ledger {
    /// The sum over the given call kinds.
    pub fn sum(&self, calls: &[Call]) -> Span {
        let mut total = Span::default();
        for &c in calls {
            total.add(&self.spans[c as usize]);
        }
        total
    }

    /// The sum over every call kind.
    pub fn total(&self) -> Span {
        self.sum(&Call::ALL)
    }

    /// Add another ledger into this one.
    pub fn absorb(&mut self, other: &Ledger) {
        for (mine, theirs) in self.spans.iter_mut().zip(&other.spans) {
            mine.add(theirs);
        }
    }
}

/// A backend decorator recording a [`Ledger`] of the calls it forwards.
#[derive(Debug)]
pub struct Timed<B> {
    inner: B,
    ledger: Ledger,
}

impl<B> Timed<B> {
    /// Wrap `inner` with an empty ledger.
    pub fn new(inner: B) -> Self {
        Timed { inner, ledger: Ledger::default() }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The spans recorded so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn time<R>(&mut self, call: Call, f: impl FnOnce(&mut B) -> R) -> R {
        let a0 = sc_host::alloc::thread_stats();
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let secs = t0.elapsed().as_secs_f64();
        let a = sc_host::alloc::thread_stats().since(&a0);
        let span = &mut self.ledger.spans[call as usize];
        span.secs += secs;
        span.calls += 1;
        span.allocs += a.count;
        span.alloc_bytes += a.bytes;
        r
    }
}

impl<B: SetBackend> SetBackend for Timed<B> {
    type Set = B::Set;

    fn edge_list(&mut self, v: Key) -> B::Set {
        self.time(Call::Read, |b| b.edge_list(v))
    }

    fn edge_list_bounded(&mut self, v: Key, bound: Option<Key>) -> B::Set {
        self.time(Call::Read, |b| b.edge_list_bounded(v, bound))
    }

    fn intersect(&mut self, a: &B::Set, b: &B::Set, bound: Option<Key>) -> B::Set {
        self.time(Call::SetOp, |be| be.intersect(a, b, bound))
    }

    fn intersect_count(&mut self, a: &B::Set, b: &B::Set, bound: Option<Key>) -> u64 {
        self.time(Call::SetOp, |be| be.intersect_count(a, b, bound))
    }

    fn subtract(&mut self, a: &B::Set, b: &B::Set, bound: Option<Key>) -> B::Set {
        self.time(Call::SetOp, |be| be.subtract(a, b, bound))
    }

    fn subtract_count(&mut self, a: &B::Set, b: &B::Set, bound: Option<Key>) -> u64 {
        self.time(Call::SetOp, |be| be.subtract_count(a, b, bound))
    }

    fn len(&self, s: &B::Set) -> u64 {
        // A field read on every backend; timing it would cost more than
        // the call.
        self.inner.len(s)
    }

    fn bounded_len(&mut self, s: &B::Set, bound: Option<Key>) -> u64 {
        self.time(Call::Fetch, |b| b.bounded_len(s, bound))
    }

    fn fetch(&mut self, s: &B::Set, idx: u32) -> Key {
        self.time(Call::Fetch, |b| b.fetch(s, idx))
    }

    fn list_contains(&mut self, v: Key, k: Key) -> bool {
        self.time(Call::Scalar, |b| b.list_contains(v, k))
    }

    fn nested_count(&mut self, s: &B::Set) -> Option<u64> {
        self.time(Call::Nested, |b| b.nested_count(s))
    }

    fn supports_nested(&self) -> bool {
        self.inner.supports_nested()
    }

    fn release(&mut self, s: B::Set) {
        self.time(Call::Free, |b| b.release(s))
    }

    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.time(Call::Scalar, |b| b.loop_branch(pc, taken))
    }

    fn ops(&mut self, n: u64) {
        self.time(Call::Scalar, |b| b.ops(n))
    }

    fn finish(&mut self) -> u64 {
        self.time(Call::Finish, |b| b.finish())
    }
}

impl<B: TensorBackend> TensorBackend for Timed<B> {
    type Handle = B::Handle;

    fn load(&mut self, s: &VStream, priority: u32) -> B::Handle {
        self.time(Call::VRead, |b| b.load(s, priority))
    }

    fn dot(&mut self, a: &B::Handle, b: &B::Handle) -> f64 {
        self.time(Call::VInter, |be| be.dot(a, b))
    }

    fn gather_dot(&mut self, sparse: &B::Handle, dense: &B::Handle) -> f64 {
        self.time(Call::VInter, |b| b.gather_dot(sparse, dense))
    }

    fn scaled_merge(&mut self, sa: f64, a: &B::Handle, sb: f64, b: &B::Handle) -> VStream {
        self.time(Call::VMerge, |be| be.scaled_merge(sa, a, sb, b))
    }

    fn release(&mut self, h: B::Handle) {
        self.time(Call::Free, |b| b.release(h))
    }

    fn ops(&mut self, n: u64) {
        self.time(Call::Scalar, |b| b.ops(n))
    }

    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.time(Call::Scalar, |b| b.loop_branch(pc, taken))
    }

    fn store_result(&mut self, addr: u64) {
        self.time(Call::Scalar, |b| b.store_result(addr))
    }

    fn finish(&mut self) -> u64 {
        self.time(Call::Finish, |b| b.finish())
    }
}
