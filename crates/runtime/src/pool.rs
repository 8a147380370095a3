//! Persistent-pool primitives for long-running services.
//!
//! The scoped `par_*` entry points on [`crate::Runtime`] spawn workers per
//! call and join them before returning — perfect for a pipeline stage,
//! useless for a network server that must keep worker threads alive across
//! an unbounded stream of connections *and* refuse work when it is already
//! saturated. This module fills that gap with two pieces:
//!
//! * [`BoundedQueue`] — a blocking MPMC queue with a hard capacity and a
//!   **typed** rejection path: [`BoundedQueue::try_push`] never blocks and
//!   hands the item back as [`PushError::Full`] when the queue is at
//!   capacity, which is exactly the admission-control contract a server
//!   needs to turn saturation into an explicit `429 Overloaded` instead of
//!   an ever-growing backlog.
//! * [`WorkerPool`] — a fixed set of named worker threads draining a
//!   `BoundedQueue` of jobs. [`WorkerPool::shutdown`] closes the queue,
//!   lets the workers finish every job already admitted (drain, don't
//!   drop) and joins them.
//!
//! Both follow the crate's house rules: standard-library primitives only
//! (`Mutex` + `Condvar`, no channel crate) and no unbounded buffering
//! anywhere.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Why [`BoundedQueue::try_push`] refused an item. The item always comes
/// back to the caller — refusal never loses work.
#[derive(PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue holds `capacity` items; admitting more would mean
    /// unbounded queueing. The caller decides how to shed the load.
    Full(T),
    /// The queue was closed; no further work is accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(t) | PushError::Closed(t) => t,
        }
    }
}

// Manual impl: jobs (`Box<dyn FnOnce()>`) are not `Debug`, but the refusal
// reason always is.
impl<T> std::fmt::Debug for PushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full(_) => write!(f, "PushError::Full(..)"),
            PushError::Closed(_) => write!(f, "PushError::Closed(..)"),
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking MPMC queue with a hard capacity bound.
///
/// Producers use the non-blocking [`BoundedQueue::try_push`]; consumers
/// block on [`BoundedQueue::pop`] until an item arrives or the queue is
/// closed *and* drained. Closing is graceful by construction: items
/// admitted before [`BoundedQueue::close`] are still handed out.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (clamped to ≥ 1).
    #[expect(
        clippy::disallowed_methods,
        reason = "cnp_runtime owns concurrency: this is the lock every other crate's queueing goes through"
    )]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item` if there is room, without ever blocking.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and returns it, or returns `None`
    /// once the queue is closed **and** fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: future pushes are rejected as
    /// [`PushError::Closed`], consumers drain what was already admitted
    /// and then observe the end of the stream.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads behind a
/// [`BoundedQueue`] of jobs.
///
/// Unlike [`crate::Runtime`]'s scoped per-call workers, the pool's threads
/// live for the pool's lifetime and jobs are `'static` — the shape a
/// server needs for connection handling. Submission is admission-checked:
/// [`WorkerPool::try_execute`] rejects with [`PushError::Full`] instead of
/// queueing unboundedly.
pub struct WorkerPool {
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    shutting_down: Arc<AtomicBool>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("queue", &self.queue)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to ≥ 1) named `name-N`, sharing a
    /// job queue of `queue_capacity` slots.
    #[expect(
        clippy::disallowed_methods,
        reason = "cnp_runtime owns concurrency: this is where named worker threads are made"
    )]
    pub fn new(name: &str, workers: usize, queue_capacity: usize) -> Self {
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(queue_capacity));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            queue,
            workers,
            shutting_down,
        }
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs admitted but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Submits a job without blocking; a saturated queue hands the job
    /// back as [`PushError::Full`] so the caller can shed load explicitly.
    pub fn try_execute<F>(&self, job: F) -> Result<(), PushError<Job>>
    where
        F: FnOnce() + Send + 'static,
    {
        self.queue.try_push(Box::new(job))
    }

    /// Signals shutdown without joining: pending jobs still drain, new
    /// submissions are refused. Lets a handler thread request shutdown
    /// while the owner later calls [`WorkerPool::shutdown`].
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Whether [`WorkerPool::begin_shutdown`] (or [`WorkerPool::shutdown`])
    /// has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: closes the queue, drains every admitted job and
    /// joins all workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            handle.join().expect("pool worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            // A panicking worker already poisons the test that caused it;
            // double-panicking in drop would abort instead.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn try_push_full_returns_the_item() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn close_drains_then_ends_the_stream() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(PushError::Closed(9).into_inner(), 9);
    }

    #[test]
    fn pop_blocks_until_an_item_arrives() {
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        #[expect(
            clippy::disallowed_methods,
            reason = "raw thread: the queue under test must not depend on the pool it powers"
        )]
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(50));
        q.try_push(42u32).unwrap();
        assert_eq!(handle.join().unwrap(), Some(42));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.is_empty());
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Err(PushError::Full(2)));
    }

    #[test]
    fn pool_runs_jobs_and_drains_on_shutdown() {
        let pool = WorkerPool::new("test", 4, 64);
        assert_eq!(pool.workers(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut admitted = 0;
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            if pool
                .try_execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
                .is_ok()
            {
                admitted += 1;
            }
        }
        pool.shutdown();
        // Every admitted job ran before shutdown returned — drain, not drop.
        assert_eq!(counter.load(Ordering::SeqCst), admitted);
        assert!(admitted >= 1);
    }

    #[test]
    fn saturated_pool_rejects_with_typed_full() {
        let pool = WorkerPool::new("test", 1, 1);
        let gate = Arc::new(BoundedQueue::<()>::new(1));
        // Job 1 parks the only worker until the gate opens.
        let g = Arc::clone(&gate);
        pool.try_execute(move || {
            g.pop();
        })
        .unwrap();
        // Wait for the worker to pick job 1 up, freeing the queue slot.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        // Job 2 occupies the single queue slot; job 3 must be refused.
        pool.try_execute(|| {}).unwrap();
        let refused = pool.try_execute(|| {});
        assert!(matches!(refused, Err(PushError::Full(_))));
        gate.close();
        pool.shutdown();
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let pool = WorkerPool::new("test", 2, 4);
        pool.begin_shutdown();
        assert!(pool.is_shutting_down());
        assert!(matches!(pool.try_execute(|| {}), Err(PushError::Closed(_))));
        pool.shutdown();
    }
}
