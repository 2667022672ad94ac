//! The metrics registry: named event counters.
//!
//! Handles returned by the registry are cheap `Arc` clones over atomics;
//! updating one is a single relaxed atomic add and never allocates. A
//! registry built with [`Registry::disabled`] hands out empty handles whose
//! update methods are no-ops.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// The registered counters by name, in registration order.
type Cells = Vec<(String, Arc<AtomicU64>)>;

/// The set of registered counters. Cloning shares the underlying store;
/// [`Registry::disabled`] (also `Default`) produces no-op handles.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// `None` means telemetry is off and all handles are no-ops.
    inner: Option<Arc<Mutex<Cells>>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// A registry whose counters drop every update.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether updates are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) a counter. Repeated registration with
    /// the same name returns a handle to the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let mut entries = inner.lock();
        let cell = match entries.iter().find(|(n, _)| n == name) {
            Some((_, cell)) => cell.clone(),
            None => {
                let cell = Arc::new(AtomicU64::new(0));
                entries.push((name.to_string(), cell.clone()));
                cell
            }
        };
        Counter { cell: Some(cell) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let registry = Registry::new();
        let a = registry.counter("events");
        let b = registry.counter("events");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(registry.counter("events").get(), 5);
        assert_eq!(registry.counter("other").get(), 0);
    }

    #[test]
    fn disabled_registry_is_noop() {
        let registry = Registry::disabled();
        let c = registry.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        assert_eq!(registry.counter("x").get(), 0);
        assert!(!registry.is_enabled());
    }
}
