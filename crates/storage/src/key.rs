//! Keys identifying writable units: what a lock, a commit-log entry, a
//! SIREAD lock and a transaction's write set all name.

use std::fmt;

/// A writable unit: a conventional item or a table row slot.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    /// Conventional item, by name.
    Item(String),
    /// Row slot: `(table, row-id)`.
    Row(String, u64),
}

impl Key {
    /// Item-key constructor.
    pub fn item(name: impl Into<String>) -> Self {
        Key::Item(name.into())
    }

    /// Row-key constructor.
    pub fn row(table: impl Into<String>, id: u64) -> Self {
        Key::Row(table.into(), id)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Item(n) => write!(f, "{n}"),
            Key::Row(t, id) => write!(f, "{t}[{id}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys() {
        assert_ne!(Key::item("x"), Key::row("x", 1));
        assert_ne!(Key::row("a", 1), Key::row("a", 2));
        assert_eq!(Key::item("x"), Key::item("x"));
    }

    #[test]
    fn display() {
        assert_eq!(Key::item("bal").to_string(), "bal");
        assert_eq!(Key::row("orders", 7).to_string(), "orders[7]");
    }
}
