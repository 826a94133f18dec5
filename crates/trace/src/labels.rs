//! Process-global registry mapping `TVar` lock addresses to user labels.
//!
//! `TVar::labelled` (in `rubic-stm`, behind its `trace` feature)
//! registers the variable's `lock_addr()` identity here at construction
//! so contention tables and post-mortem bundles can name culprits
//! (`"accounts"` instead of `0x7f3a…`). The registry is diagnostic
//! metadata only: it is never consulted on the transaction hot path, it
//! survives across trace sessions, and a re-registered address simply
//! overwrites (an address can be recycled by the allocator after its
//! `TVar` drops — the last label wins, which is the useful answer for a
//! live dump).

use std::collections::HashMap;

use rubic_sync::Mutex;

/// Bounds the registry so a pathological workload that labels millions
/// of short-lived `TVars` cannot grow it without limit. Past the cap new
/// labels are dropped (existing addresses still update).
const MAX_LABELS: usize = 4096;

static LABELS: Mutex<Option<HashMap<u64, String>>> = Mutex::new(None);

/// Associates `label` with a `TVar` lock address. Overwrites any previous
/// label for the address; silently ignored once [`MAX_LABELS`] distinct
/// addresses are registered.
pub fn set_label(addr: u64, label: &str) {
    let mut map = LABELS.lock();
    let map = map.get_or_insert_with(HashMap::new);
    if map.len() >= MAX_LABELS && !map.contains_key(&addr) {
        return;
    }
    map.insert(addr, label.to_string());
}

/// The label registered for `addr`, if any.
#[must_use]
pub(crate) fn label(addr: u64) -> Option<String> {
    LABELS.lock().as_ref().and_then(|m| m.get(&addr).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_overwrite() {
        set_label(0xF00, "accounts");
        assert_eq!(label(0xF00).as_deref(), Some("accounts"));
        set_label(0xF00, "accounts-v2");
        assert_eq!(label(0xF00).as_deref(), Some("accounts-v2"));
        assert_eq!(label(0xF01), None);
    }
}
