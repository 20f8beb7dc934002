//! Checking server answers across `RELOAD` boundaries.
//!
//! The load generator numbers every send and every completed read on one
//! event clock. A frame answered entirely between two reloads must match
//! the list version in effect when it was sent. A frame in flight while a
//! `RELOAD` was in flight may match either side of that reload, host by
//! host, since the server may publish the new list halfway through it.

/// Index of a list version in the generator's expectation tables.
pub type Version = usize;

#[derive(Debug, Clone, Copy)]
struct Reload {
    sent: u64,
    acked: Option<u64>,
    target: Version,
}

/// Every `RELOAD` the generator sent, with when it was sent and answered.
#[derive(Debug, Clone)]
pub struct Timeline {
    initial: Version,
    reloads: Vec<Reload>,
}

impl Timeline {
    /// A timeline whose server starts on `initial`.
    pub fn new(initial: Version) -> Timeline {
        Timeline { initial, reloads: Vec::new() }
    }

    /// Record a `RELOAD` to `target` sent at event `at`; returns its handle.
    pub fn sent(&mut self, at: u64, target: Version) -> usize {
        self.reloads.push(Reload { sent: at, acked: None, target });
        self.reloads.len() - 1
    }

    /// Record that reload `handle` was answered at event `at`.
    pub fn acked(&mut self, handle: usize, at: u64) {
        self.reloads[handle].acked = Some(at);
    }

    /// The version a frame sent at event `at` sees if no reload is in
    /// flight: the target of the last reload answered before it.
    pub fn in_effect(&self, at: u64) -> Version {
        self.reloads
            .iter()
            .filter(|r| r.acked.is_some_and(|a| a < at))
            .max_by_key(|r| r.acked)
            .map_or(self.initial, |r| r.target)
    }

    /// Versions a frame sent at event `sent` and answered at event `done`
    /// may have been answered with.
    pub fn allowed(&self, sent: u64, done: u64) -> Vec<Version> {
        let mut out = vec![self.in_effect(sent)];
        for r in &self.reloads {
            let overlaps = r.sent < done && r.acked.is_none_or(|a| a > sent);
            if overlaps && !out.contains(&r.target) {
                out.push(r.target);
            }
        }
        out
    }
}

/// Whether `answer` is the expected answer under one of `allowed`.
pub fn answer_ok<'a>(
    answer: &str,
    allowed: &[Version],
    expected: impl Fn(Version) -> &'a str,
) -> bool {
    allowed.iter().any(|&v| expected(v) == answer)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: Version = 0;
    const NEW: Version = 1;

    #[test]
    fn frames_clear_of_a_reload_see_one_version() {
        let mut t = Timeline::new(OLD);
        let h = t.sent(10, NEW);
        t.acked(h, 12);
        assert_eq!(t.allowed(1, 5), vec![OLD]);
        assert_eq!(t.allowed(13, 20), vec![NEW]);
    }

    #[test]
    fn frames_in_flight_across_a_reload_see_either_side() {
        let mut t = Timeline::new(OLD);
        let h = t.sent(10, NEW);
        t.acked(h, 14);
        // Sent before the reload, answered after it was sent.
        assert_eq!(t.allowed(8, 11), vec![OLD, NEW]);
        // Sent while the reload was in flight.
        assert_eq!(t.allowed(12, 20), vec![OLD, NEW]);
        // A reload not yet answered is in flight for everything after it.
        let h2 = t.sent(30, OLD);
        assert_eq!(t.allowed(31, 40), vec![NEW, OLD]);
        t.acked(h2, 41);
        assert_eq!(t.allowed(42, 50), vec![OLD]);
    }

    #[test]
    fn answers_are_matched_per_version() {
        let mut t = Timeline::new(OLD);
        let h = t.sent(10, NEW);
        t.acked(h, 14);
        let table = ["example.co.uk", "co.uk"];
        let expected = |v: Version| table[v];
        assert!(answer_ok("example.co.uk", &t.allowed(1, 5), expected));
        assert!(!answer_ok("co.uk", &t.allowed(1, 5), expected));
        assert!(answer_ok("co.uk", &t.allowed(8, 11), expected));
        assert!(!answer_ok("example.co.uk", &t.allowed(15, 16), expected));
        assert!(!answer_ok("ERR host bad", &t.allowed(8, 11), expected));
    }
}
