//! The epoch journal: a bounded in-process ring of structured lifecycle
//! events (epoch published, repack start/end, run deferred/reclaimed);
//! [`EventJournal::take`] drains it.

use crate::json::Json;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Maximum events retained by an [`EventJournal`].
#[cfg(not(feature = "obs-off"))]
const JOURNAL_RING_CAPACITY: usize = 1024;

/// A bounded in-process ring of structured lifecycle events.
///
/// The live-ingest plane emits its epoch-lifecycle events here
/// (`epoch_published`, `repack_start`, `repack_end`, `run_deferred`,
/// `run_reclaimed`); readers drain them. Cloning shares the ring. Under
/// `obs-off` emission compiles to a no-op and the closure passed to
/// [`EventJournal::emit_with`] is never evaluated.
#[derive(Debug, Clone, Default)]
pub struct EventJournal {
    ring: Arc<Mutex<VecDeque<Json>>>,
}

impl EventJournal {
    /// Appends one event, evicting the oldest past the ring capacity.
    #[cfg(not(feature = "obs-off"))]
    fn emit(&self, event: Json) {
        let mut ring = self.ring.lock().expect("journal ring poisoned");
        if ring.len() >= JOURNAL_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Appends the event built by `make`; under `obs-off` the closure
    /// is never evaluated, so event assembly compiles out with it.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce() -> Json) {
        #[cfg(not(feature = "obs-off"))]
        self.emit(make());
        #[cfg(feature = "obs-off")]
        let _ = make;
    }

    /// Drains every pending event (oldest first).
    pub fn take(&self) -> Vec<Json> {
        self.ring
            .lock()
            .expect("journal ring poisoned")
            .drain(..)
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("journal ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the ring.
    pub fn clear(&self) {
        self.ring.lock().expect("journal ring poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn journal_ring_is_bounded_and_drains_in_order() {
        let journal = EventJournal::default();
        for i in 0..(JOURNAL_RING_CAPACITY + 7) {
            journal.emit(Json::obj([
                ("event", Json::Str("epoch_published".into())),
                ("epoch", Json::Num(i as f64)),
            ]));
        }
        assert_eq!(journal.len(), JOURNAL_RING_CAPACITY);
        let drained = journal.take();
        assert!(journal.is_empty());
        // The oldest seven were evicted; the rest drain oldest first.
        let epochs: Vec<f64> = drained
            .iter()
            .map(|e| e.get("epoch").and_then(Json::as_f64).expect("epoch"))
            .collect();
        let want: Vec<f64> = (7..JOURNAL_RING_CAPACITY + 7).map(|i| i as f64).collect();
        assert_eq!(epochs, want);
        // Every drained event renders as one JSON line that parses back.
        for e in &drained {
            let line = e.render();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Json::parse(&line).as_ref(), Ok(e));
        }
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn journal_is_inert_under_obs_off() {
        let journal = EventJournal::default();
        journal.emit_with(|| unreachable!("emit_with must not evaluate under obs-off"));
        assert!(journal.is_empty());
    }
}
