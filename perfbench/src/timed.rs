//! A `Backend` wrapper that times every call into the storage layer from
//! outside it: calls, busy wall time and bytes per operation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use blot_storage::{Backend, StorageError, UnitKey};

#[derive(Debug, Default)]
struct OpCounters {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

impl OpCounters {
    fn record(&self, started: Instant, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn read(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            ms: self.nanos.load(Ordering::Relaxed) as f64 / 1e6,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Totals of one operation kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTotals {
    pub calls: u64,
    pub ms: f64,
    pub bytes: u64,
}

impl OpTotals {
    pub fn minus(self, earlier: Self) -> Self {
        Self {
            calls: self.calls - earlier.calls,
            ms: self.ms - earlier.ms,
            bytes: self.bytes - earlier.bytes,
        }
    }

    pub fn plus(self, other: Self) -> Self {
        Self {
            calls: self.calls + other.calls,
            ms: self.ms + other.ms,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// A snapshot of all counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageTotals {
    pub get: OpTotals,
    pub get_tail: OpTotals,
    pub put: OpTotals,
}

impl StorageTotals {
    pub fn minus(self, earlier: Self) -> Self {
        Self {
            get: self.get.minus(earlier.get),
            get_tail: self.get_tail.minus(earlier.get_tail),
            put: self.put.minus(earlier.put),
        }
    }

    pub fn plus(self, other: Self) -> Self {
        Self {
            get: self.get.plus(other.get),
            get_tail: self.get_tail.plus(other.get_tail),
            put: self.put.plus(other.put),
        }
    }
}

/// Times `get`, `get_tail` and `put` on the wrapped backend while
/// enabled; when disabled it only forwards, so one store can serve both
/// the untimed reference rung and the timed one.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    enabled: AtomicBool,
    get: OpCounters,
    get_tail: OpCounters,
    put: OpCounters,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            enabled: AtomicBool::new(true),
            get: OpCounters::default(),
            get_tail: OpCounters::default(),
            put: OpCounters::default(),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn totals(&self) -> StorageTotals {
        StorageTotals {
            get: self.get.read(),
            get_tail: self.get_tail.read(),
            put: self.put.read(),
        }
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn put(&self, key: UnitKey, bytes: Vec<u8>) -> Result<(), StorageError> {
        if !self.on() {
            return self.inner.put(key, bytes);
        }
        let len = bytes.len();
        let started = Instant::now();
        let out = self.inner.put(key, bytes);
        self.put.record(started, len);
        out
    }

    fn get(&self, key: UnitKey) -> Result<Vec<u8>, StorageError> {
        if !self.on() {
            return self.inner.get(key);
        }
        let started = Instant::now();
        let out = self.inner.get(key);
        self.get
            .record(started, out.as_ref().map_or(0, |b| b.len()));
        out
    }

    fn get_tail(&self, key: UnitKey, len: usize) -> Result<(Vec<u8>, u64), StorageError> {
        if !self.on() {
            return self.inner.get_tail(key, len);
        }
        let started = Instant::now();
        let out = self.inner.get_tail(key, len);
        self.get_tail
            .record(started, out.as_ref().map_or(0, |(b, _)| b.len()));
        out
    }

    fn delete(&self, key: UnitKey) -> Result<(), StorageError> {
        self.inner.delete(key)
    }

    fn list(&self) -> Vec<UnitKey> {
        self.inner.list()
    }

    fn size_of(&self, key: UnitKey) -> Option<u64> {
        self.inner.size_of(key)
    }
}
