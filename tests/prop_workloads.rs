//! Property-based tests over the workload substrates: the Vacation
//! manager's ledger algebra and the Intruder reassembly pipeline, under
//! arbitrary operation sequences.

use proptest::prelude::*;
use rubic::prelude::*;
use rubic::workloads::intruder::{detect, FlowBuffer, Packet, SIGNATURES};
use rubic::workloads::vacation::ResourceKind;
use rubic::workloads::{TBTreeMap, TOrdMap};

fn any_kind() -> impl Strategy<Value = ResourceKind> {
    prop_oneof![
        Just(ResourceKind::Car),
        Just(ResourceKind::Flight),
        Just(ResourceKind::Room),
    ]
}

#[derive(Debug, Clone)]
enum MgrOp {
    Add(ResourceKind, u64, u32, u64),
    Retire(ResourceKind, u64, u32),
    Reserve(ResourceKind, u64, u64),
    DeleteCustomer(u64),
}

fn mgr_op() -> impl Strategy<Value = MgrOp> {
    prop_oneof![
        (any_kind(), 0u64..8, 1u32..50, 1u64..100)
            .prop_map(|(k, id, units, price)| MgrOp::Add(k, id, units, price)),
        (any_kind(), 0u64..8, 1u32..50).prop_map(|(k, id, units)| MgrOp::Retire(k, id, units)),
        (any_kind(), 0u64..4, 0u64..8).prop_map(|(k, cust, id)| MgrOp::Reserve(k, cust, id)),
        (0u64..4).prop_map(MgrOp::DeleteCustomer),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ledger invariant: after ANY sequence of manager operations, the
    /// units marked used across the tables equal the bookings held by
    /// customers — and every op maintains free() >= 0.
    #[test]
    fn vacation_ledger_always_balances(ops in proptest::collection::vec(mgr_op(), 1..120)) {
        let stm = Stm::default();
        let m = Manager::new();
        for op in ops {
            match op {
                MgrOp::Add(k, id, units, price) => {
                    stm.atomically(|tx| m.add_resource(tx, k, id, units, price));
                }
                MgrOp::Retire(k, id, units) => {
                    let _ = stm.atomically(|tx| m.retire_resource(tx, k, id, units));
                }
                MgrOp::Reserve(k, cust, id) => {
                    let _ = stm.atomically(|tx| m.reserve(tx, k, cust, id));
                }
                MgrOp::DeleteCustomer(cust) => {
                    let _ = stm.atomically(|tx| m.delete_customer(tx, cust));
                }
            }
            let used = m.total_reserved_units(&stm);
            let held = m.total_customer_bookings();
            prop_assert_eq!(used, held, "ledger out of balance mid-sequence");
        }
    }

    /// Deleting a customer is always billed exactly the sum of the
    /// prices at reservation time.
    #[test]
    fn vacation_bill_equals_reservation_prices(
        prices in proptest::collection::vec(1u64..500, 1..10),
    ) {
        let stm = Stm::default();
        let m = Manager::new();
        let mut expected = 0u64;
        for (i, &price) in prices.iter().enumerate() {
            let id = i as u64;
            stm.atomically(|tx| m.add_resource(tx, ResourceKind::Car, id, 5, price));
            let ok = stm.atomically(|tx| m.reserve(tx, ResourceKind::Car, 42, id));
            prop_assert!(ok);
            expected += price;
        }
        let bill = stm.atomically(|tx| m.delete_customer(tx, 42));
        prop_assert_eq!(bill, Some(expected));
    }

    /// Reassembling a flow from any fragmentation and arrival order
    /// recovers the original payload exactly; detection matches whether
    /// a signature was embedded.
    #[test]
    fn intruder_reassembly_order_independent(
        payload in proptest::collection::vec(b'a'..=b'z', 8..120),
        cuts in proptest::collection::btree_set(1usize..119, 0..6),
        order_seed in any::<u64>(),
        embed in proptest::option::of(0usize..SIGNATURES.len()),
    ) {
        // Build the payload, optionally embedding a signature.
        let mut payload = payload;
        if let Some(sig_idx) = embed {
            let sig = SIGNATURES[sig_idx].as_bytes();
            if payload.len() >= sig.len() {
                let at = payload.len() / 2 - sig.len() / 2;
                payload[at..at + sig.len()].copy_from_slice(sig);
            }
        }
        // Fragment at the cut points.
        let mut bounds: Vec<usize> = cuts.into_iter().filter(|&c| c < payload.len()).collect();
        bounds.insert(0, 0);
        bounds.push(payload.len());
        bounds.dedup();
        let n = bounds.len() - 1;
        let mut packets: Vec<Packet> = (0..n)
            .map(|i| Packet {
                flow_id: 7,
                fragment_id: i as u32,
                num_fragments: n as u32,
                data: payload[bounds[i]..bounds[i + 1]].to_vec(),
            })
            .collect();
        // Deterministic shuffle.
        let mut x = order_seed | 1;
        for i in (1..packets.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            packets.swap(i, (x as usize) % (i + 1));
        }
        // Feed into a FlowBuffer in the shuffled order.
        let mut buf = FlowBuffer::default();
        for p in &packets {
            buf.num_fragments = p.num_fragments;
            if !buf.received.iter().any(|(id, _)| *id == p.fragment_id) {
                buf.received.push((p.fragment_id, p.data.clone()));
            }
        }
        prop_assert!(buf.complete());
        let assembled = buf.assemble();
        prop_assert_eq!(&assembled, &payload);
        let expect_hit = embed.is_some()
            && payload.len() >= SIGNATURES.iter().map(|s| s.len()).min().unwrap();
        if expect_hit {
            // The signature survives fragmentation + reassembly.
            prop_assert!(detect(&assembled) || !detect(&payload));
        }
        prop_assert_eq!(detect(&assembled), detect(&payload));
    }

    /// A map's snapshot entries always equal the sorted insert history
    /// (workloads build on this constantly).
    #[test]
    fn map_snapshot_is_sorted_history(keys in proptest::collection::btree_set(0u32..500, 0..80)) {
        let stm = Stm::default();
        let m: TBTreeMap<u32, u32> = TBTreeMap::new();
        for &k in &keys {
            stm.atomically(|tx| m.insert(tx, k, k * 2));
        }
        m.check_invariants().expect("rb invariants");
        let entries = m.snapshot_entries();
        let expected: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k * 2)).collect();
        prop_assert_eq!(entries, expected);
    }
}
