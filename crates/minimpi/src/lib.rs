//! # minimpi — a thread-rank message-passing substrate (MPI substitute)
//!
//! The paper's compatibility story (§3.6): "RAPTOR's op-mode and MPI do
//! not interfere with one another and truncation continues to work for any
//! application with one or more MPI ranks. Most MPI operations only
//! involve message passing and therefore require no special handling.
//! However, RAPTOR does not implicitly truncate MPI reductions ... If e.g.
//! truncated MPI_Allreduce is needed, a custom reduction operation can be
//! implemented, which in turn can be truncated using RAPTOR."
//!
//! This crate reproduces exactly that contract with OS threads as ranks:
//!
//! * point-to-point [`Comm::send_bytes`]/[`Comm::recv_bytes`] of raw byte
//!   payloads — plain data movement, never truncated;
//! * [`Comm::send`]/[`Comm::recv`] of `f64` buffers, encoded bitwise
//!   (every payload round-trips exactly, including NaN payloads and the
//!   sign of zero);
//! * collectives: [`Comm::broadcast`], [`Comm::gather_bytes`] /
//!   [`Comm::allgather_bytes`];
//! * [`Comm::allreduce_sum`]/[`Comm::allreduce_max`] — *built-in*
//!   reductions, performed at full precision like a vendor MPI library;
//! * [`Comm::allreduce_with`] — a *user-defined* reduction whose combine
//!   function the caller provides; running it over `raptor_core::Tracked`
//!   inside a session truncates it, mirroring the paper's
//!   custom-reduction recipe;
//! * [`Comm::barrier`].
//!
//! ## Wire format
//!
//! Every message is a tag plus a byte payload. `f64` buffers travel as
//! `f64::to_bits` little-endian words, so NaN payloads, infinities and
//! the sign of zero arrive bit-identically. A receive names its source
//! and tag; messages with other tags stay queued in arrival order until
//! their own receive (MPI tag matching).
//!
//! ## Collective semantics
//!
//! All collectives are deterministic and rank-ordered:
//!
//! * `gather*(root)` returns, on `root` only, one entry per rank in rank
//!   order (the root's own contribution included at its index);
//! * `allgather*` returns the same rank-ordered vector on every rank;
//! * `broadcast(root)` returns the root's payload on every rank;
//! * `allreduce_with` evaluates the combine **in rank order on every
//!   rank**, so results are deterministic and identical across ranks even
//!   for non-associative (e.g. floating-point) combines, regardless of
//!   how many ranks the same data is spread over.
//!
//! mem-mode handles must never cross ranks (the paper: "mem-mode can only
//! be used on shared-memory systems and without MPI reductions").
//!
//! ## Example
//!
//! Ranks are OS threads launched by [`run`]; each receives its own
//! [`Comm`]. A ring exchange plus a deterministic reduction:
//!
//! ```
//! let results = minimpi::run(3, |comm| {
//!     // Pass this rank's id around the ring, bit-exactly.
//!     let next = (comm.rank() + 1) % comm.size();
//!     let prev = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(next, 7, &[comm.rank() as f64]);
//!     let from_prev = comm.recv(prev, 7)[0];
//!     // Full-precision built-in reduction, identical on every rank.
//!     let total = comm.allreduce_sum(&[from_prev])[0];
//!     (from_prev, total)
//! });
//! assert_eq!(results[0], (2.0, 3.0)); // rank 0 heard from rank 2
//! assert!(results.iter().all(|&(_, t)| t == 3.0));
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// An unbounded, tag-searchable mailbox (the crossbeam-channel substitute:
/// plain std primitives so the crate builds with no external dependencies).
struct Mailbox {
    queue: Mutex<VecDeque<Message>>,
    ready: Condvar,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox { queue: Mutex::new(VecDeque::new()), ready: Condvar::new() }
    }

    fn push(&self, msg: Message) {
        self.queue.lock().unwrap().push_back(msg);
        self.ready.notify_all();
    }

    /// Blocking receive of the first message with a matching tag; other
    /// messages stay queued in arrival order (MPI tag matching).
    fn pop_tag(&self, tag: u64) -> Message {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(pos) = q.iter().position(|m| m.tag == tag) {
                return q.remove(pos).expect("position valid");
            }
            q = self.ready.wait(q).unwrap();
        }
    }
}

/// A message between ranks: a tag plus an opaque byte payload.
struct Message {
    tag: u64,
    data: Vec<u8>,
}

struct Shared {
    nranks: usize,
    // mailboxes[dst][src]
    mailboxes: Vec<Vec<Mailbox>>,
    barrier: std::sync::Barrier,
    reduce_slots: Mutex<Vec<Vec<f64>>>,
}

/// A communicator handle owned by one rank.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.shared.nranks
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send a raw byte payload to `dst` with a tag (non-blocking,
    /// buffered).
    pub fn send_bytes(&self, dst: usize, tag: u64, data: &[u8]) {
        self.shared.mailboxes[dst][self.rank].push(Message { tag, data: data.to_vec() });
    }

    /// Blocking receive from `src` with a matching tag; out-of-order tags
    /// stay queued until their own receive (MPI tag matching).
    pub fn recv_bytes(&self, src: usize, tag: u64) -> Vec<u8> {
        self.shared.mailboxes[self.rank][src].pop_tag(tag).data
    }

    /// Send an `f64` buffer to `dst` with a tag. Values are encoded
    /// bitwise (`f64::to_bits`, little-endian), so the receive is
    /// bit-identical — NaN payloads and signed zeros included.
    pub fn send(&self, dst: usize, tag: u64, data: &[f64]) {
        self.send_bytes(dst, tag, &f64s_to_bytes(data));
    }

    /// Blocking receive of an `f64` buffer from `src` with a matching tag.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<f64> {
        bytes_to_f64s(&self.recv_bytes(src, tag))
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Broadcast a byte payload from `root`: every rank returns the
    /// root's payload (`data` is ignored on non-root ranks).
    pub fn broadcast_bytes(&self, root: usize, tag: u64, data: &[u8]) -> Vec<u8> {
        if self.rank == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send_bytes(dst, tag, data);
                }
            }
            data.to_vec()
        } else {
            self.recv_bytes(root, tag)
        }
    }

    /// Broadcast an `f64` buffer from `root`, bit-exactly.
    pub fn broadcast(&self, root: usize, tag: u64, data: &[f64]) -> Vec<f64> {
        bytes_to_f64s(&self.broadcast_bytes(root, tag, &f64s_to_bytes(data)))
    }

    /// Gather one byte payload per rank at `root`: returns
    /// `Some(payloads)` in rank order on the root (its own payload
    /// included at its index), `None` elsewhere.
    pub fn gather_bytes(&self, root: usize, tag: u64, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        if self.rank != root {
            self.send_bytes(root, tag, data);
            return None;
        }
        Some(
            (0..self.size())
                .map(|src| if src == root { data.to_vec() } else { self.recv_bytes(src, tag) })
                .collect(),
        )
    }

    /// Gather every rank's byte payload on every rank, in rank order.
    pub fn allgather_bytes(&self, tag: u64, data: &[u8]) -> Vec<Vec<u8>> {
        for dst in 0..self.size() {
            if dst != self.rank {
                self.send_bytes(dst, tag, data);
            }
        }
        (0..self.size())
            .map(|src| if src == self.rank { data.to_vec() } else { self.recv_bytes(src, tag) })
            .collect()
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Built-in sum allreduce: data movement plus a *full-precision*
    /// combine, like a vendor MPI library (op-mode never truncates it).
    pub fn allreduce_sum(&self, local: &[f64]) -> Vec<f64> {
        self.allreduce_with(local, |a, b| a + b)
    }

    /// Built-in max allreduce.
    pub fn allreduce_max(&self, local: &[f64]) -> Vec<f64> {
        self.allreduce_with(local, f64::max)
    }

    /// User-defined allreduce: the element-wise combine runs through the
    /// supplied function. Call with a `raptor_core::Tracked`-based
    /// closure inside a RAPTOR region to get a *truncated* reduction —
    /// the paper's custom-reduction recipe. The combine is evaluated in
    /// rank order on every rank, so results are deterministic and
    /// identical across ranks.
    pub fn allreduce_with(&self, local: &[f64], combine: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        {
            let mut slots = self.shared.reduce_slots.lock().unwrap();
            slots[self.rank] = local.to_vec();
        }
        self.barrier();
        let result = {
            let slots = self.shared.reduce_slots.lock().unwrap();
            let mut acc = slots[0].clone();
            for r in 1..self.shared.nranks {
                for (a, &b) in acc.iter_mut().zip(&slots[r]) {
                    *a = combine(*a, b);
                }
            }
            acc
        };
        self.barrier();
        result
    }
}

fn f64s_to_bytes(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(bytes.len() % 8 == 0, "f64 payload length must be a multiple of 8");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk of 8"))))
        .collect()
}

/// Launch `nranks` rank threads running `f(comm)`; returns each rank's
/// result in rank order (the `mpirun` analog).
pub fn run<T: Send>(nranks: usize, f: impl Fn(Comm) -> T + Sync) -> Vec<T> {
    assert!(nranks >= 1);
    let mut mailboxes = Vec::with_capacity(nranks);
    for _dst in 0..nranks {
        let mut row = Vec::with_capacity(nranks);
        for _src in 0..nranks {
            row.push(Mailbox::new());
        }
        mailboxes.push(row);
    }
    let shared = Arc::new(Shared {
        nranks,
        mailboxes,
        barrier: std::sync::Barrier::new(nranks),
        reduce_slots: Mutex::new(vec![Vec::new(); nranks]),
    });
    let mut out: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for rank in 0..nranks {
            let shared = shared.clone();
            let f = &f;
            handles.push(s.spawn(move || f(Comm { rank, shared })));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            out[rank] = Some(h.join().expect("rank panicked"));
        }
    });
    out.into_iter().map(|o| o.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_have_distinct_ids() {
        let ids = run(4, |c| (c.rank(), c.size()));
        for (i, &(r, s)) in ids.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(s, 4);
        }
    }

    #[test]
    fn point_to_point_ring() {
        let sums = run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, &[c.rank() as f64]);
            let got = c.recv(prev, 7);
            got[0]
        });
        assert_eq!(sums, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn f64_transport_is_bit_exact() {
        // NaN payloads, signed zeros, subnormals: the byte layer must not
        // launder any of them through a decimal representation.
        let specials =
            [f64::from_bits(0x7ff8_dead_beef_0001), -0.0, 5e-324, f64::INFINITY, -1.5e-308];
        let res = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, &specials);
                Vec::new()
            } else {
                c.recv(0, 3)
            }
        });
        assert_eq!(res[1].len(), specials.len());
        for (a, b) in specials.iter().zip(&res[1]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        let res = run(4, |c| {
            let local = vec![c.rank() as f64, 1.0];
            c.allreduce_sum(&local)
        });
        for r in res {
            assert_eq!(r, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn allreduce_max() {
        let res = run(3, |c| c.allreduce_max(&[c.rank() as f64 * 1.5]));
        for r in res {
            assert_eq!(r, vec![3.0]);
        }
    }

    #[test]
    fn op_mode_and_ranks_do_not_interfere() {
        // Each rank truncates its local compute; the reduction itself is
        // full-precision; results are deterministic and identical across
        // repeated runs (the §3.6 compatibility claim).
        use bigfloat::Format;
        use raptor_core::{Arith, Config, Real, Session, Tracked};
        let run_once = || {
            run(4, |c| {
                let sess = Session::new(Config::op_all(Format::new(11, 8))).unwrap();
                let g = sess.install();
                // Local truncated compute.
                let x = Tracked::from_f64(0.1 * (c.rank() + 1) as f64);
                let y = (x * x + Tracked::from_f64(1.0)).sqrt().to_f64();
                drop(g);
                c.allreduce_sum(&[y])[0]
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "deterministic across runs");
        assert!((a[0] - a[3]).abs() < 1e-15, "all ranks agree");
        // And the value differs from the untruncated equivalent.
        let full: f64 = (1..=4)
            .map(|r| {
                let x = 0.1 * r as f64;
                (x * x + 1.0).sqrt()
            })
            .sum();
        assert!((a[0] - full).abs() > 1e-10, "truncation visible: {} vs {full}", a[0]);
    }

    #[test]
    fn custom_truncated_reduction() {
        // The paper's recipe: implement the reduction as user code and
        // truncate it with RAPTOR.
        use bigfloat::Format;
        use raptor_core::{Arith, Config, Real, Session, Tracked};
        let res = run(4, |c| {
            let local = [1.0 / (c.rank() + 3) as f64];
            let sess =
                Session::new(Config::op_functions(Format::new(11, 4), ["Reduce"])).unwrap();
            let _g = sess.install();
            raptor_core::truncated("Reduce", || {
                c.allreduce_with(&local, |a, b| {
                    (Tracked::from_f64(a) + Tracked::from_f64(b)).to_f64()
                })
            })[0]
        });
        let full: f64 = (3..7).map(|k| 1.0 / k as f64).sum();
        for r in &res {
            assert!((r - full).abs() > 1e-6, "4-bit reduction deviates: {r} vs {full}");
            assert!((r - full).abs() < 0.1);
        }
        // All ranks see the same (rank-order-combined) value.
        assert!(res.iter().all(|r| (r - res[0]).abs() < 1e-300));
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let res = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, &[1.0]);
                c.send(1, 2, &[2.0]);
                0.0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = c.recv(0, 2);
                let a = c.recv(0, 1);
                a[0] + 10.0 * b[0]
            }
        });
        assert_eq!(res[1], 21.0);
    }

    #[test]
    fn domain_decomposed_stencil_matches_serial() {
        // Rank-parallel 1-D heat equation with halo exchange: the paper's
        // claim that domain decomposition does not change truncated
        // results ("the parallelization across ranks does not affect the
        // outcome", §5).
        let n = 64;
        let steps = 20;
        let serial = {
            let mut u: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64 * 6.0).sin()).collect();
            for _ in 0..steps {
                let mut v = u.clone();
                for i in 1..n - 1 {
                    v[i] = u[i] + 0.2 * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
                }
                u = v;
            }
            u
        };
        let nr = 4;
        let chunks = run(nr, |c| {
            let w = n / c.size();
            let lo = c.rank() * w;
            let mut u: Vec<f64> =
                (lo..lo + w).map(|i| (i as f64 / n as f64 * 6.0).sin()).collect();
            for _ in 0..steps {
                // Halo exchange.
                let left = if c.rank() > 0 {
                    c.send(c.rank() - 1, 10, &[u[0]]);
                    Some(c.recv(c.rank() - 1, 11)[0])
                } else {
                    None
                };
                let right = if c.rank() + 1 < c.size() {
                    c.send(c.rank() + 1, 11, &[u[w - 1]]);
                    Some(c.recv(c.rank() + 1, 10)[0])
                } else {
                    None
                };
                let mut v = u.clone();
                for i in 0..w {
                    let um = if i == 0 {
                        match left {
                            Some(x) => x,
                            None => continue,
                        }
                    } else {
                        u[i - 1]
                    };
                    let up = if i == w - 1 {
                        match right {
                            Some(x) => x,
                            None => continue,
                        }
                    } else {
                        u[i + 1]
                    };
                    v[i] = u[i] + 0.2 * (um - 2.0 * u[i] + up);
                }
                u = v;
                c.barrier();
            }
            u
        });
        let parallel: Vec<f64> = chunks.into_iter().flatten().collect();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits(), "bitwise identical decomposition");
        }
    }
}
