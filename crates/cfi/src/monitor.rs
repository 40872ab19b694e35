//! The runtime CFI state automaton.

/// A recorded CFI violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The state the monitor held when the check fired.
    pub actual_state: u32,
    /// The signature the check expected.
    pub expected_state: u32,
    /// Index of the check (0-based, counting all checks executed so far).
    pub check_index: u32,
}

/// The runtime CFI state machine.
///
/// This models the memory-mapped "CFI unit" of the evaluation platform: a
/// state register updated by instrumented stores, a check operation latching
/// violations, and a replace operation used at function boundaries (the
/// "replace the state" technique for control-flow merges across calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfiMonitor {
    state: u32,
    checks: u32,
    violations: u32,
    first_violation: Option<Violation>,
}

impl CfiMonitor {
    /// Creates a monitor with the given initial state (normally the signature
    /// of the entry block of the first executed function).
    #[must_use]
    pub fn new(initial_state: u32) -> Self {
        CfiMonitor {
            state: initial_state,
            checks: 0,
            violations: 0,
            first_violation: None,
        }
    }

    /// XORs a value into the state (edge updates, justifying values, and the
    /// merged condition values of protected branches).
    pub fn update(&mut self, value: u32) {
        self.state ^= value;
    }

    /// Replaces the state (used at function entry; the state-replacement
    /// variant of handling control-flow transfers).
    pub fn replace(&mut self, value: u32) {
        self.state = value;
    }

    /// Compares the state against an expected signature; a mismatch is
    /// latched as a violation (execution continues — detection is reported to
    /// the surrounding system, mirroring a hardware error flag).
    pub fn check(&mut self, expected: u32) {
        if self.state != expected {
            if self.first_violation.is_none() {
                self.first_violation = Some(Violation {
                    actual_state: self.state,
                    expected_state: expected,
                    check_index: self.checks,
                });
            }
            self.violations += 1;
        }
        self.checks += 1;
    }

    /// The current state value.
    #[must_use]
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Number of checks executed.
    #[must_use]
    pub fn checks(&self) -> u32 {
        self.checks
    }

    /// Number of failed checks.
    #[must_use]
    pub fn violations(&self) -> u32 {
        self.violations
    }

    /// The first recorded violation, if any.
    #[must_use]
    pub fn first_violation(&self) -> Option<Violation> {
        self.first_violation
    }

    /// `true` if no check has failed so far.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// Resets state, counters and latched violations.
    pub fn reset(&mut self, initial_state: u32) {
        *self = CfiMonitor::new(initial_state);
    }
}

impl Default for CfiMonitor {
    fn default() -> Self {
        CfiMonitor::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_passes_checks() {
        let mut m = CfiMonitor::new(0x1111);
        m.update(0x1111 ^ 0x2222);
        m.check(0x2222);
        m.update(0x2222 ^ 0x3333);
        m.check(0x3333);
        assert!(m.is_clean());
        assert_eq!(m.checks(), 2);
        assert_eq!(m.violations(), 0);
        assert_eq!(m.first_violation(), None);
    }

    #[test]
    fn violation_is_latched_with_context() {
        let mut m = CfiMonitor::new(0x1111);
        m.check(0x9999);
        m.check(0x8888);
        assert!(!m.is_clean());
        assert_eq!(m.violations(), 2);
        let v = m.first_violation().expect("latched");
        assert_eq!(v.actual_state, 0x1111);
        assert_eq!(v.expected_state, 0x9999);
        assert_eq!(v.check_index, 0);
    }

    #[test]
    fn replace_sets_the_state_absolutely() {
        let mut m = CfiMonitor::new(0xAAAA);
        m.replace(0x1234);
        assert_eq!(m.state(), 0x1234);
        m.check(0x1234);
        assert!(m.is_clean());
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = CfiMonitor::new(1);
        m.check(2);
        assert!(!m.is_clean());
        m.reset(7);
        assert!(m.is_clean());
        assert_eq!(m.state(), 7);
        assert_eq!(m.checks(), 0);
    }

    #[test]
    fn default_monitor_starts_at_zero() {
        assert_eq!(CfiMonitor::default().state(), 0);
    }
}
