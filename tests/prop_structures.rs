//! Property-based tests for the persistent queue substrate: the
//! persistent FIFO queue against `VecDeque`.

use std::collections::VecDeque;

use proptest::prelude::*;
use rubic::workloads::pqueue::PQueue;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The persistent queue is observationally a VecDeque.
    #[test]
    fn pqueue_matches_vecdeque(ops in proptest::collection::vec(any::<Option<u32>>(), 1..300)) {
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut q: PQueue<u32> = PQueue::new();
        for op in ops {
            match op {
                Some(v) => {
                    q = q.push(v);
                    model.push_back(v);
                }
                None => {
                    let (next, got) = q.pop();
                    q = next;
                    prop_assert_eq!(got, model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        prop_assert_eq!(q.to_vec(), model.into_iter().collect::<Vec<_>>());
    }
}
