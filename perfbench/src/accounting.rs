//! Exact accounting identities checked on a wire workload's final
//! registry snapshot, taken before the server shuts down. A broken
//! identity fails the run.

use mvq_obs::{names as m, RegistrySnapshot};

/// Client-side request counts, by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Requests written to the socket.
    pub sent: u64,
    /// Replies that succeeded and passed every check.
    pub ok: u64,
    /// Replies that failed, were refused, or failed a check.
    pub failed: u64,
}

impl PhaseCounts {
    /// Adds another phase's counts.
    pub fn add(&mut self, other: PhaseCounts) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// The counters the identities relate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `serve.jobs.submitted`.
    pub submitted: u64,
    /// `serve.jobs.completed`.
    pub completed: u64,
    /// `serve.jobs.deduped`.
    pub deduped: u64,
    /// `serve.jobs.cancelled`.
    pub cancelled: u64,
    /// `store.cache.hits`.
    pub cache_hits: u64,
    /// `store.cache.misses`.
    pub cache_misses: u64,
    /// `serve.queue.wait_us` count: jobs a worker dequeued.
    pub dequeued: u64,
    /// `net.conn.frames_rx`.
    pub frames_rx: u64,
    /// `net.conn.responses_ok`.
    pub responses_ok: u64,
    /// `net.conn.responses_err`.
    pub responses_err: u64,
    /// The client's own counts over every phase.
    pub client: PhaseCounts,
}

impl Ledger {
    /// Reads the server-side counters from `snap`.
    pub fn new(snap: &RegistrySnapshot, client: PhaseCounts) -> Ledger {
        Ledger {
            submitted: snap.value(m::SERVE_JOBS_SUBMITTED),
            completed: snap.value(m::SERVE_JOBS_COMPLETED),
            deduped: snap.value(m::SERVE_JOBS_DEDUPED),
            cancelled: snap.value(m::SERVE_JOBS_CANCELLED),
            cache_hits: snap.value(m::STORE_CACHE_HITS),
            cache_misses: snap.value(m::STORE_CACHE_MISSES),
            dequeued: snap.histogram(m::SERVE_QUEUE_WAIT_US).count,
            frames_rx: snap.value(m::NET_CONN_FRAMES_RX),
            responses_ok: snap.value(m::NET_CONN_RESPONSES_OK),
            responses_err: snap.value(m::NET_CONN_RESPONSES_ERR),
            client,
        }
    }

    /// `Ok` when every identity holds, else all the broken ones.
    ///
    /// # Errors
    ///
    /// The broken identities, one per `; `-separated clause.
    pub fn check(&self) -> Result<(), String> {
        let v = self.violations();
        if v.is_empty() {
            Ok(())
        } else {
            Err(format!("accounting identities broken: {}", v.join("; ")))
        }
    }

    /// Every identity that does not hold, as a readable line.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, lhs: u64, rhs: u64, detail: String| {
            if lhs != rhs {
                out.push(format!("{name}: {lhs} != {rhs} ({detail})"));
            }
        };
        check(
            "submitted = completed + deduped + cancelled",
            self.submitted,
            self.completed + self.deduped + self.cancelled,
            format!("{} + {} + {}", self.completed, self.deduped, self.cancelled),
        );
        check(
            "cache hits + misses = dequeued",
            self.cache_hits + self.cache_misses,
            self.dequeued,
            format!("{} + {}", self.cache_hits, self.cache_misses),
        );
        check(
            "frames_rx = responses_ok + responses_err",
            self.frames_rx,
            self.responses_ok + self.responses_err,
            format!("{} + {}", self.responses_ok, self.responses_err),
        );
        check(
            "client ok + failed = sent",
            self.client.ok + self.client.failed,
            self.client.sent,
            format!("{} + {}", self.client.ok, self.client.failed),
        );
        check(
            "client sent = frames_rx",
            self.client.sent,
            self.frames_rx,
            "every request the client wrote reached the server".into(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> Ledger {
        Ledger {
            submitted: 1225,
            completed: 895,
            deduped: 330,
            cancelled: 0,
            cache_hits: 880,
            cache_misses: 15,
            dequeued: 895,
            frames_rx: 1225,
            responses_ok: 1225,
            responses_err: 0,
            client: PhaseCounts { sent: 1225, ok: 1225, failed: 0 },
        }
    }

    #[test]
    fn balanced_ledger_passes() {
        assert_eq!(balanced().violations(), Vec::<String>::new());
        assert_eq!(balanced().check(), Ok(()));
    }

    #[test]
    fn off_by_one_submitted_is_caught() {
        // the committed `BENCH_net_registry.json` shape: 1225 submitted,
        // 894 completed + 330 deduped + 0 cancelled
        let ledger = Ledger { completed: 894, ..balanced() };
        let v = ledger.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("submitted = completed + deduped + cancelled: 1225 != 1224"));
    }

    #[test]
    fn each_identity_fires_on_its_own() {
        let cases = [
            Ledger { cache_misses: 16, ..balanced() },
            Ledger { responses_err: 1, ..balanced() },
            Ledger { client: PhaseCounts { sent: 1225, ok: 1224, failed: 0 }, ..balanced() },
        ];
        for ledger in cases {
            assert_eq!(ledger.violations().len(), 1, "{:?}", ledger.violations());
        }
        let lost = Ledger { client: PhaseCounts { sent: 1226, ok: 1226, failed: 0 }, ..balanced() };
        assert_eq!(lost.violations().len(), 1);
    }
}
