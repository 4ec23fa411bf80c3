//! Collective-semantics coverage for the minimpi transport: byte
//! round-trips, rank-ordered gather/allgather, bit-exact broadcast, and
//! `allreduce_with` determinism under uneven rank counts.

use minimpi::run;

#[test]
fn byte_payloads_round_trip_verbatim() {
    // Arbitrary (non-UTF8) bytes and the empty payload both survive.
    let blob: Vec<u8> = (0..=255u8).rev().collect();
    let got = run(3, |c| {
        if c.rank() == 0 {
            c.send_bytes(2, 9, &blob);
            c.send_bytes(2, 10, &[]);
            Vec::new()
        } else if c.rank() == 2 {
            let full = c.recv_bytes(0, 9);
            let empty = c.recv_bytes(0, 10);
            assert!(empty.is_empty());
            full
        } else {
            Vec::new()
        }
    });
    assert_eq!(got[2], blob);
}

#[test]
fn gather_is_rank_ordered_with_uneven_payloads() {
    // Rank r contributes r+1 bytes of value r; the root sees them in rank
    // order regardless of arrival order.
    for nranks in [2usize, 3, 5] {
        let gathered = run(nranks, |c| {
            let mine = vec![c.rank() as u8; c.rank() + 1];
            c.gather_bytes(0, 4, &mine)
        });
        for (r, g) in gathered.iter().enumerate() {
            match g {
                Some(payloads) => {
                    assert_eq!(r, 0, "only the root receives");
                    assert_eq!(payloads.len(), nranks);
                    for (src, p) in payloads.iter().enumerate() {
                        assert_eq!(p, &vec![src as u8; src + 1], "rank order preserved");
                    }
                }
                None => assert_ne!(r, 0),
            }
        }
    }
}

#[test]
fn allgather_gives_every_rank_the_same_ordered_view() {
    for nranks in [1usize, 2, 4] {
        let views = run(nranks, |c| {
            let mine = (c.rank() as u64).to_le_bytes().to_vec();
            c.allgather_bytes(6, &mine)
        });
        for view in &views {
            assert_eq!(view.len(), nranks);
            for (src, p) in view.iter().enumerate() {
                assert_eq!(p, &(src as u64).to_le_bytes().to_vec());
            }
        }
    }
}

#[test]
fn broadcast_delivers_root_payload_everywhere() {
    let vals = [1.5, -0.0, f64::from_bits(0x7ff8_0000_0000_0042)];
    let res = run(4, |c| {
        let data = if c.rank() == 1 { vals.to_vec() } else { Vec::new() };
        c.broadcast(1, 2, &data)
    });
    for r in &res {
        assert_eq!(r.len(), vals.len());
        for (a, b) in vals.iter().zip(r) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact broadcast");
        }
    }
}

#[test]
fn allreduce_with_is_rank_order_deterministic_under_uneven_rank_counts() {
    // A deliberately non-associative, non-commutative combine: the result
    // depends on evaluation order, so agreement across ranks (and with
    // the serial rank-order fold) proves the documented semantics. The
    // same per-rank inputs are checked at 2, 3, 4 and 5 ranks.
    let combine = |a: f64, b: f64| a * 1.000001 + b * b;
    for nranks in [2usize, 3, 4, 5] {
        let inputs: Vec<f64> = (0..nranks).map(|r| 0.1 + r as f64 * 0.37).collect();
        let serial = {
            let mut acc = inputs[0];
            for &b in &inputs[1..] {
                acc = combine(acc, b);
            }
            acc
        };
        let inputs_ref = &inputs;
        let res = run(nranks, |c| c.allreduce_with(&[inputs_ref[c.rank()]], combine)[0]);
        for r in &res {
            assert_eq!(
                r.to_bits(),
                serial.to_bits(),
                "nranks={nranks}: rank-order fold, bit-identical on every rank"
            );
        }
    }
}

#[test]
fn allreduce_with_handles_one_rank() {
    let res = run(1, |c| c.allreduce_with(&[42.0], |a, b| a + b));
    assert_eq!(res[0], vec![42.0]);
}
