//! The top-level store: a namespace of conventional items and relational
//! tables, shared across engine threads.

use crate::error::StorageError;
use crate::item::ItemCell;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use parking_lot::{Mutex, RwLock};
use semcc_logic::hash::fnv1a;
use std::collections::HashMap;
use std::sync::Arc;

/// The shared database: items plus tables.
///
/// The name→cell maps are striped by key hash (one `RwLock` per stripe,
/// read-mostly after setup) so concurrent lookups of disjoint items never
/// contend on one global lock; each item cell has its own mutex so access
/// to distinct items does not serialize either. Tables created through a
/// striped store stripe their row maps the same way. Higher-level
/// isolation is the engine's job — the store only guarantees physical
/// consistency.
pub struct Store {
    item_stripes: Vec<RwLock<HashMap<String, Arc<Mutex<ItemCell>>>>>,
    table_stripes: Vec<RwLock<HashMap<String, Arc<Table>>>>,
    /// Row-map stripe count handed to tables created through this store.
    row_stripes: usize,
}

impl Default for Store {
    fn default() -> Self {
        Store::with_stripes(1)
    }
}

impl Store {
    /// An empty store with a single stripe (the historical layout).
    pub fn new() -> Self {
        Store::default()
    }

    /// An empty store with `n` stripes per namespace map (clamped to ≥ 1).
    /// Tables created through it stripe their row maps `n` ways too.
    pub fn with_stripes(n: usize) -> Self {
        let n = n.max(1);
        Store {
            item_stripes: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            table_stripes: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            row_stripes: n,
        }
    }

    /// Number of stripes the store was built with.
    pub fn stripe_count(&self) -> usize {
        self.item_stripes.len()
    }

    fn stripe_of(&self, name: &str) -> usize {
        if self.item_stripes.len() == 1 {
            return 0;
        }
        (fnv1a(name.as_bytes()) % self.item_stripes.len() as u64) as usize
    }

    /// Create a conventional item with an initial (timestamp-0) value.
    pub fn create_item(&self, name: impl Into<String>, initial: Value) -> Result<(), StorageError> {
        let name = name.into();
        let mut items = self.item_stripes[self.stripe_of(&name)].write();
        if items.contains_key(&name) {
            return Err(StorageError::AlreadyExists(name));
        }
        items.insert(name, Arc::new(Mutex::new(ItemCell::new(initial))));
        Ok(())
    }

    /// Fetch the cell for an item.
    pub fn item(&self, name: &str) -> Result<Arc<Mutex<ItemCell>>, StorageError> {
        self.item_stripes[self.stripe_of(name)]
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NoSuchItem(name.to_string()))
    }

    /// Whether an item exists.
    pub fn has_item(&self, name: &str) -> bool {
        self.item_stripes[self.stripe_of(name)].read().contains_key(name)
    }

    /// Names of all items (sorted; for checkers and audits).
    pub fn item_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for stripe in &self.item_stripes {
            names.extend(stripe.read().keys().cloned());
        }
        names.sort();
        names
    }

    /// Create a table.
    pub fn create_table(&self, schema: Schema) -> Result<Arc<Table>, StorageError> {
        let name = schema.name.clone();
        let mut tables = self.table_stripes[self.stripe_of(&name)].write();
        if tables.contains_key(&name) {
            return Err(StorageError::AlreadyExists(name));
        }
        let table = Arc::new(Table::with_stripes(schema, self.row_stripes));
        tables.insert(name, table.clone());
        Ok(table)
    }

    /// Fetch a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        self.table_stripes[self.stripe_of(name)]
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Names of all tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for stripe in &self.table_stripes {
            names.extend(stripe.read().keys().cloned());
        }
        names.sort();
        names
    }

    /// Read an item's latest committed value (administrative peek).
    pub fn peek_committed(&self, name: &str) -> Result<Value, StorageError> {
        Ok(self.item(name)?.lock().read_committed().clone())
    }

    /// Drop every item and table, returning the store to its freshly
    /// constructed state. Callers (the engine's deterministic replay
    /// reset) re-seed initial state afterwards; any outstanding references
    /// to old cells keep them alive but detached from the namespace.
    pub fn clear(&self) {
        for stripe in &self.item_stripes {
            stripe.write().clear();
        }
        for stripe in &self.table_stripes {
            stripe.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_lifecycle() {
        let s = Store::new();
        s.create_item("bal", Value::Int(100)).expect("create");
        assert!(s.has_item("bal"));
        assert!(matches!(s.create_item("bal", Value::Int(0)), Err(StorageError::AlreadyExists(_))));
        assert_eq!(s.peek_committed("bal").expect("peek"), Value::Int(100));
        assert!(matches!(s.item("nope"), Err(StorageError::NoSuchItem(_))));
    }

    #[test]
    fn promote_discard_via_store() {
        let s = Store::new();
        s.create_item("x", Value::Int(0)).expect("create");
        let x = s.item("x").expect("item");
        x.lock().write_dirty(1, Value::Int(5)).expect("write");
        x.lock().promote(1, 3);
        assert_eq!(s.peek_committed("x").expect("peek"), Value::Int(5));
        x.lock().write_dirty(2, Value::Int(9)).expect("write");
        x.lock().discard(2);
        assert_eq!(s.peek_committed("x").expect("peek"), Value::Int(5));
    }

    #[test]
    fn table_lifecycle() {
        let s = Store::new();
        let schema = Schema::new("cust", &["name", "addr", "orders"], &["name"]);
        s.create_table(schema.clone()).expect("create");
        assert!(s.create_table(schema).is_err());
        let t = s.table("cust").expect("table");
        t.load_row(0, vec![Value::str("a"), Value::str("addr"), Value::Int(1)]).expect("load");
        assert_eq!(t.committed_len(), 1);
        assert_eq!(s.table_names(), vec!["cust".to_string()]);
    }

    #[test]
    fn names_are_sorted() {
        let s = Store::new();
        s.create_item("b", Value::Int(0)).expect("create");
        s.create_item("a", Value::Int(0)).expect("create");
        assert_eq!(s.item_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn striped_store_behaves_like_single_stripe() {
        let s = Store::with_stripes(16);
        assert_eq!(s.stripe_count(), 16);
        for i in 0..64 {
            s.create_item(format!("it{i}"), Value::Int(i)).expect("create");
        }
        assert!(matches!(s.create_item("it7", Value::Int(0)), Err(StorageError::AlreadyExists(_))));
        assert_eq!(s.item_names().len(), 64);
        assert!(s.item_names().windows(2).all(|w| w[0] < w[1]), "sorted across stripes");
        assert_eq!(s.peek_committed("it63").expect("peek"), Value::Int(63));
        for i in 0..8 {
            let schema = Schema::new(format!("t{i}"), &["a"], &["a"]);
            s.create_table(schema).expect("table");
        }
        assert_eq!(s.table_names().len(), 8);
        let t = s.table("t3").expect("table");
        t.load_row(0, vec![Value::Int(1)]).expect("load");
        assert_eq!(t.committed_len(), 1);
        s.clear();
        assert!(s.item_names().is_empty());
        assert!(s.table_names().is_empty());
    }
}
