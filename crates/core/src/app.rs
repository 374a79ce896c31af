//! Applications: the unit of analysis.

use semcc_json::{FromJson, Json, JsonError, ToJson};
use semcc_txn::Program;
use std::collections::{BTreeMap, BTreeSet};

/// The scope at which a preservation lemma holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LemmaScope {
    /// The *committed unit effect* of the transaction preserves the atom
    /// (usable when a theorem treats the transaction as an isolated unit —
    /// Theorems 2, 3, 5, 6).
    Unit,
    /// Every *individual write statement* of the transaction — including
    /// the compensating writes of a rollback — preserves the atom (usable
    /// everywhere, including Theorem 1's READ UNCOMMITTED analysis).
    Stmt,
}

/// Registered preservation lemmas for opaque integrity conjuncts.
///
/// The paper discharges conjuncts like `no_gap` by prose arguments
/// ("`New_Order` inserts an order at the new maximum date, so no gap
/// appears"). A lemma `(atom, txn, scope)` records exactly such an
/// argument; the runtime monitor (`semcc-checker`) re-validates registered
/// lemmas empirically during the P2 experiment.
#[derive(Clone, Debug, Default)]
pub struct LemmaRegistry {
    set: BTreeSet<(String, String, LemmaScope)>,
}

impl LemmaRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        LemmaRegistry::default()
    }

    /// Register: transaction `txn` preserves opaque atom `atom` at `scope`.
    /// A `Stmt`-scope lemma implies the `Unit` one.
    pub fn register(&mut self, atom: impl Into<String>, txn: impl Into<String>, scope: LemmaScope) {
        self.set.insert((atom.into(), txn.into(), scope));
    }

    /// Whether a lemma covers `(atom, txn)` at the given scope.
    pub fn covers(&self, atom: &str, txn: &str, scope: LemmaScope) -> bool {
        let key = |s: LemmaScope| (atom.to_string(), txn.to_string(), s);
        match scope {
            LemmaScope::Stmt => self.set.contains(&key(LemmaScope::Stmt)),
            LemmaScope::Unit => {
                self.set.contains(&key(LemmaScope::Unit))
                    || self.set.contains(&key(LemmaScope::Stmt))
            }
        }
    }

    /// All registered lemmas (for reporting and runtime validation).
    pub fn all(&self) -> impl Iterator<Item = &(String, String, LemmaScope)> {
        self.set.iter()
    }
}

/// An application: programs, schemas, lemmas.
#[derive(Clone, Debug, Default)]
pub struct App {
    /// The transaction programs (the paper's `K` transaction types).
    pub programs: Vec<Program>,
    /// Table schemas: table name → ordered column names.
    pub schemas: BTreeMap<String, Vec<String>>,
    /// Preservation lemmas.
    pub lemmas: LemmaRegistry,
}

impl App {
    /// Empty application.
    pub fn new() -> Self {
        App::default()
    }

    /// Add a program.
    pub fn with_program(mut self, p: Program) -> Self {
        self.programs.push(p);
        self
    }

    /// Declare a table schema.
    pub fn with_schema(mut self, table: impl Into<String>, columns: &[&str]) -> Self {
        self.schemas.insert(table.into(), columns.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Register a lemma.
    pub fn with_lemma(
        mut self,
        atom: impl Into<String>,
        txn: impl Into<String>,
        scope: LemmaScope,
    ) -> Self {
        self.lemmas.register(atom, txn, scope);
        self
    }

    /// Look up a program by name.
    pub fn program(&self, name: &str) -> Option<&Program> {
        self.programs.iter().find(|p| p.name == name)
    }

    /// Columns of a table.
    pub fn columns(&self, table: &str) -> Option<&[String]> {
        self.schemas.get(table).map(|v| v.as_slice())
    }
}

semcc_json::codec! {
    enum LemmaScope { Unit, Stmt }
    struct App { programs, schemas, lemmas }
}

impl ToJson for LemmaRegistry {
    fn to_json(&self) -> Json {
        self.set.to_json()
    }
}

impl FromJson for LemmaRegistry {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(LemmaRegistry { set: FromJson::from_json(j)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma_scopes() {
        let mut reg = LemmaRegistry::new();
        reg.register("no_gap", "New_Order", LemmaScope::Unit);
        assert!(reg.covers("no_gap", "New_Order", LemmaScope::Unit));
        assert!(!reg.covers("no_gap", "New_Order", LemmaScope::Stmt));
        assert!(!reg.covers("no_gap", "Delivery", LemmaScope::Unit));

        reg.register("valid_cust", "New_Order", LemmaScope::Stmt);
        assert!(reg.covers("valid_cust", "New_Order", LemmaScope::Stmt));
        assert!(reg.covers("valid_cust", "New_Order", LemmaScope::Unit), "stmt implies unit");
    }

    #[test]
    fn wire_decoders_reject_payloads_on_unit_variants_and_negative_unsigned() {
        use semcc_cert::Step;
        use semcc_logic::certtrace::Refutation;
        use semcc_logic::{CmpOp, Pred, RowPred};
        use semcc_txn::program::ParamKind;
        use semcc_txn::stmt::Stmt;
        type Rejects = fn(&str) -> bool;
        fn rejects<T: FromJson>(text: &str) -> bool {
            semcc_json::from_str::<T>(text).is_err()
        }
        // The first seven decoded before the codec was generated: a unit
        // variant took any payload, and `Pause.micros` was cast from i64.
        let cases: [(&str, Rejects); 11] = [
            (r#"{"True":1}"#, rejects::<Pred>),
            (r#"{"False":null}"#, rejects::<Pred>),
            (r#"{"True":{}}"#, rejects::<RowPred>),
            (r#"{"NoWrites":0}"#, rejects::<Step>),
            (r#"{"Falsum":[]}"#, rejects::<Refutation>),
            (r#"{"Strings":"x"}"#, rejects::<Refutation>),
            (r#"{"Pause":{"micros":-1}}"#, rejects::<Stmt>),
            (r#"{"Eq":null}"#, rejects::<CmpOp>),
            (r#"{"Int":null}"#, rejects::<ParamKind>),
            (r#"{"Unit":null}"#, rejects::<LemmaScope>),
            (r#""Lemma""#, rejects::<Step>),
        ];
        for (text, reject) in cases {
            assert!(reject(text), "{text} must not decode");
        }
    }

    #[test]
    fn app_lookup() {
        let app = App::new().with_schema("orders", &["info", "cust", "date", "done"]).with_lemma(
            "no_gap",
            "New_Order",
            LemmaScope::Unit,
        );
        assert_eq!(app.columns("orders").map(<[String]>::len), Some(4));
        assert!(app.columns("nope").is_none());
        assert!(app.program("nope").is_none());
    }
}
