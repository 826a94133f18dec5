//! Seeded violation: `Gamma` was deleted from the enum, `ALL`, `name()`
//! and the doc table, but the README copy (README.md next to this file)
//! still carries its row. Expected A3 finding: exactly that row.

/// | kind | code | a | b | c |
/// |---|---|---|---|---|
/// | `Alpha` | 0 | start ns | 0 | 0 |
/// | `Beta` | abort reason | hold ns | `reads << 32 \| writes` | attempts |
#[derive(Clone, Copy)]
pub enum EventKind {
    Alpha = 0,
    Beta = 1,
}

impl EventKind {
    pub const ALL: [EventKind; 2] = [EventKind::Alpha, EventKind::Beta];

    pub fn from_u8(k: u8) -> Option<EventKind> {
        Self::ALL.get(k as usize).copied()
    }

    pub fn name(self) -> &'static str {
        match self {
            EventKind::Alpha => "alpha",
            EventKind::Beta => "beta",
        }
    }
}
