//! Isolation levels.

use std::fmt;
use std::str::FromStr;

/// The isolation levels analyzed by the paper, orderable by strength for
/// the Section 5 assignment procedure (SNAPSHOT sits outside the ANSI
/// ladder and is compared separately, as in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsolationLevel {
    /// ANSI READ UNCOMMITTED: long write locks only; dirty reads allowed.
    ReadUncommitted,
    /// ANSI READ COMMITTED: + short read locks.
    ReadCommitted,
    /// READ COMMITTED with first-committer-wins ("optimistic reads").
    ReadCommittedFcw,
    /// ANSI REPEATABLE READ: long read locks on tuples (phantoms possible).
    RepeatableRead,
    /// Multiversion snapshot isolation with first-committer-wins.
    Snapshot,
    /// Serializable Snapshot Isolation (Cahill): SNAPSHOT plus SIREAD
    /// locks retained past commit, per-transaction rw-antidependency
    /// flags, and the dangerous-structure (pivot) abort. Off the ANSI
    /// ladder, strictly dominating SNAPSHOT.
    Ssi,
    /// Full serializability: REPEATABLE READ + read predicate locks.
    Serializable,
}

impl IsolationLevel {
    /// All levels, weakest first (the order the Section 5 procedure walks).
    pub const ALL: [IsolationLevel; 7] = [
        IsolationLevel::ReadUncommitted,
        IsolationLevel::ReadCommitted,
        IsolationLevel::ReadCommittedFcw,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Snapshot,
        IsolationLevel::Ssi,
        IsolationLevel::Serializable,
    ];

    /// The ANSI ladder the paper's Section 5 procedure walks (it excludes
    /// SNAPSHOT, "since SNAPSHOT isolation is not generally offered in the
    /// context of the other isolation levels").
    pub const ANSI_LADDER: [IsolationLevel; 5] = [
        IsolationLevel::ReadUncommitted,
        IsolationLevel::ReadCommitted,
        IsolationLevel::ReadCommittedFcw,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Serializable,
    ];

    /// Whether this level uses multiversion snapshot reads.
    pub fn is_snapshot(self) -> bool {
        matches!(self, IsolationLevel::Snapshot | IsolationLevel::Ssi)
    }

    /// Whether this level adds SIREAD tracking and the dangerous-structure
    /// abort on top of snapshot reads.
    pub fn siread_locks(self) -> bool {
        self == IsolationLevel::Ssi
    }

    /// Whether reads take any locks.
    pub fn read_locks(self) -> bool {
        !matches!(
            self,
            IsolationLevel::ReadUncommitted | IsolationLevel::Snapshot | IsolationLevel::Ssi
        )
    }

    /// Whether read locks, when taken, are long duration.
    pub fn long_read_locks(self) -> bool {
        matches!(self, IsolationLevel::RepeatableRead | IsolationLevel::Serializable)
    }

    /// Whether SELECTs take predicate locks (phantom-proof reads).
    pub fn read_predicate_locks(self) -> bool {
        self == IsolationLevel::Serializable
    }

    /// Whether commit runs first-committer-wins validation.
    pub fn fcw(self) -> bool {
        matches!(
            self,
            IsolationLevel::ReadCommittedFcw | IsolationLevel::Snapshot | IsolationLevel::Ssi
        )
    }
}

impl IsolationLevel {
    /// The level's display name.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadUncommitted => "READ UNCOMMITTED",
            IsolationLevel::ReadCommitted => "READ COMMITTED",
            IsolationLevel::ReadCommittedFcw => "READ COMMITTED+FCW",
            IsolationLevel::RepeatableRead => "REPEATABLE READ",
            IsolationLevel::Snapshot => "SNAPSHOT",
            IsolationLevel::Ssi => "SSI",
            IsolationLevel::Serializable => "SERIALIZABLE",
        }
    }

    /// Parse a level from its display name.
    pub fn from_name(name: &str) -> Option<IsolationLevel> {
        IsolationLevel::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// Every accepted spelling, in any case: the display names plus the short
/// codes of the CLI's `--levels` lists and the result tables.
impl FromStr for IsolationLevel {
    type Err = String;

    fn from_str(token: &str) -> Result<Self, String> {
        let upper = token.to_ascii_uppercase();
        if let Some(l) = IsolationLevel::from_name(&upper) {
            return Ok(l);
        }
        match upper.as_str() {
            "RU" => Ok(IsolationLevel::ReadUncommitted),
            "RC" => Ok(IsolationLevel::ReadCommitted),
            "RCFCW" | "RC+FCW" => Ok(IsolationLevel::ReadCommittedFcw),
            "RR" => Ok(IsolationLevel::RepeatableRead),
            "SI" => Ok(IsolationLevel::Snapshot),
            "SER" => Ok(IsolationLevel::Serializable),
            _ => Err(format!("unknown isolation level `{upper}`")),
        }
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_weak_to_strong() {
        let l = IsolationLevel::ANSI_LADDER;
        assert_eq!(l[0], IsolationLevel::ReadUncommitted);
        assert_eq!(l[l.len() - 1], IsolationLevel::Serializable);
        for w in l.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn discipline_flags() {
        use IsolationLevel::*;
        assert!(!ReadUncommitted.read_locks());
        assert!(ReadCommitted.read_locks());
        assert!(!ReadCommitted.long_read_locks());
        assert!(RepeatableRead.long_read_locks());
        assert!(!RepeatableRead.read_predicate_locks());
        assert!(Serializable.read_predicate_locks());
        assert!(Snapshot.is_snapshot());
        assert!(!Snapshot.read_locks());
        assert!(Snapshot.fcw());
        assert!(ReadCommittedFcw.fcw());
        assert!(!Serializable.fcw());
        assert!(Ssi.is_snapshot());
        assert!(Ssi.siread_locks());
        assert!(!Snapshot.siread_locks());
        assert!(!Ssi.read_locks());
        assert!(!Ssi.long_read_locks());
        assert!(!Ssi.read_predicate_locks());
        assert!(Ssi.fcw());
        assert!(Snapshot < Ssi && Ssi < Serializable, "SSI dominates SNAPSHOT");
    }

    #[test]
    fn names_roundtrip() {
        for l in IsolationLevel::ALL {
            assert_eq!(IsolationLevel::from_name(&l.to_string()), Some(l));
        }
        assert_eq!(IsolationLevel::from_name("nope"), None);
    }

    #[test]
    fn level_tokens_parse() {
        use IsolationLevel::*;
        for (tok, l) in [
            ("RU", ReadUncommitted),
            ("rc", ReadCommitted),
            ("RCFCW", ReadCommittedFcw),
            ("RC+FCW", ReadCommittedFcw),
            ("RR", RepeatableRead),
            ("SI", Snapshot),
            ("ssi", Ssi),
            ("SSI", Ssi),
            ("SER", Serializable),
            ("SERIALIZABLE", Serializable),
            ("REPEATABLE READ", RepeatableRead),
            ("read uncommitted", ReadUncommitted),
            ("read committed", ReadCommitted),
            ("Read Committed+FCW", ReadCommittedFcw),
            ("repeatable read", RepeatableRead),
            ("snapshot", Snapshot),
            ("serializable", Serializable),
        ] {
            assert_eq!(tok.parse(), Ok(l), "{tok}");
        }
        for l in IsolationLevel::ALL {
            assert_eq!(l.name().to_lowercase().parse(), Ok(l));
        }
        let err = "bogus".parse::<IsolationLevel>().expect_err("not a level");
        assert_eq!(err, "unknown isolation level `BOGUS`");
    }
}
