//! Choosing between across-day fan-out and intra-day chunking.
//!
//! The pool has a fixed number of worker threads; the runners have two ways
//! to feed them:
//!
//! * **across-task fan-out** — one (day, method) task per worker
//!   ([`crate::runner::evaluate_days`]), which saturates the pool whenever
//!   there are at least as many tasks as threads;
//! * **intra-day chunking** — a single method run cuts its candidate axis
//!   into [`fusion::chunking`] ranges and fans those out, which is what keeps
//!   the cores busy on the paper's million-item days when there are only a
//!   handful of tasks (Figure 12's single-snapshot efficiency story).
//!
//! [`ChunkPolicy`] picks between them from the task stats: when the outer
//! fan-out alone can occupy every worker, intra-day chunking would only add
//! scheduling overhead and is disabled; when outer tasks are scarce (few big
//! days), the spare threads are given to each task as intra-day chunks,
//! capped so no chunk drops below
//! [`fusion::chunking::MIN_ITEMS_PER_CHUNK`] items. Chunked fusion is
//! bit-identical to sequential fusion by construction, so the policy is a
//! pure performance decision — it can never change a row.

use fusion::chunking::MIN_ITEMS_PER_CHUNK;

/// Decides how many intra-day chunks a method run should use, given how many
/// sibling tasks are already competing for the pool.
#[derive(Debug, Clone, Copy)]
pub struct ChunkPolicy {
    threads: usize,
}

impl ChunkPolicy {
    /// A policy for the current rayon pool size.
    pub fn from_pool() -> Self {
        Self::with_threads(rayon::current_num_threads())
    }

    /// A policy for an explicit thread count (tests and benchmarks).
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The worker-thread count the policy plans for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of intra-day chunks for one method run when `across_tasks`
    /// outer tasks share the pool and the day has `num_items` items.
    ///
    /// Returns `0` (sequential) when the outer fan-out already covers every
    /// thread, when the day is too small to cut into at least two
    /// [`MIN_ITEMS_PER_CHUNK`]-sized chunks, or on a single-threaded pool.
    pub fn intra_day_chunks(&self, across_tasks: usize, num_items: usize) -> usize {
        if self.threads <= 1 || across_tasks >= self.threads {
            return 0;
        }
        // Spare parallelism per outer task, capped by the chunk-size floor.
        let spare = self.threads / across_tasks.max(1);
        let chunks = spare.min(num_items / MIN_ITEMS_PER_CHUNK);
        if chunks <= 1 {
            0
        } else {
            chunks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: usize = 1 << 20;

    #[test]
    fn saturated_fanout_disables_chunking() {
        let policy = ChunkPolicy::with_threads(8);
        assert_eq!(policy.intra_day_chunks(8, BIG), 0);
        assert_eq!(policy.intra_day_chunks(100, BIG), 0);
    }

    #[test]
    fn scarce_tasks_get_the_spare_threads() {
        let policy = ChunkPolicy::with_threads(8);
        assert_eq!(policy.intra_day_chunks(1, BIG), 8);
        assert_eq!(policy.intra_day_chunks(2, BIG), 4);
        assert_eq!(policy.intra_day_chunks(3, BIG), 2);
        // Zero outer tasks is treated as one.
        assert_eq!(policy.intra_day_chunks(0, BIG), 8);
    }

    #[test]
    fn small_days_stay_sequential() {
        let policy = ChunkPolicy::with_threads(8);
        // Fewer than two minimum-size chunks: not worth cutting.
        assert_eq!(policy.intra_day_chunks(1, MIN_ITEMS_PER_CHUNK), 0);
        assert_eq!(policy.intra_day_chunks(1, 2 * MIN_ITEMS_PER_CHUNK - 1), 0);
        // Exactly two minimum-size chunks: cut in two.
        assert_eq!(policy.intra_day_chunks(1, 2 * MIN_ITEMS_PER_CHUNK), 2);
        // The item cap binds before the thread count on mid-size days.
        assert_eq!(policy.intra_day_chunks(1, 3 * MIN_ITEMS_PER_CHUNK), 3);
    }

    #[test]
    fn single_threaded_pool_never_chunks() {
        let policy = ChunkPolicy::with_threads(1);
        assert_eq!(policy.intra_day_chunks(1, BIG), 0);
        assert_eq!(policy.threads(), 1);
    }
}
