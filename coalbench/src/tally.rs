//! Failure accounting against the generator's expected verdicts.

use stacl_coalition::{DecisionKind, Verdict};

/// Operations attempted and failed, plus run-level invariant breaks.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted (verdicts, hops, rollouts).
    pub attempted: u64,
    /// Operations that failed: a transport error, a fail-safe
    /// `DeniedCoordination`, or a verdict kind other than the expected one.
    pub failed: u64,
    /// Invariants that broke (custody, epochs, desync), each counted once
    /// per occurrence.
    pub broken: u64,
    /// The first few failure messages, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one attempted operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one attempted operation that failed.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.note(msg.into());
    }

    /// Count one broken invariant.
    pub fn broke(&mut self, msg: impl Into<String>) {
        self.broken += 1;
        self.note(msg.into());
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Count one verdict against its expected kind.
    pub fn verdict(&mut self, got: &Verdict, want: DecisionKind, what: &str) {
        if got.kind == want {
            self.ok();
        } else {
            self.fail(format!(
                "{what}: got {} (reason {:?}), expected {}",
                got.kind.label(),
                got.reason,
                want.label()
            ));
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken == 0 && self.attempted > 0
    }
}
