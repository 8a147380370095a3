#![forbid(unsafe_code)]
//! # cnp-runtime — the pipeline's shared parallel execution layer
//!
//! CN-Probase's headline claim is scale: 60 M isA relations extracted from
//! 17 M entity pages by a never-ending pipeline. Every stage of that
//! pipeline that is worth threading — corpus statistics, the four
//! generation sources, the three verification strategies and snapshot
//! freezing — runs through this crate's [`Runtime`] instead of growing its
//! own ad-hoc threading (candidate merging, about 1 % of a build, is a
//! plain serial fold). Each `par_*` call distributes *chunks* of work over
//! scoped worker threads (spawned for that call and joined before it
//! returns — there is no persistent pool; a pooled or async backend can
//! slot behind this same API later) and reduces the per-chunk results **in
//! chunk order**, which gives the one property the whole system is built
//! on:
//!
//! > **Determinism.** Chunk boundaries depend only on the input length
//! > ([`chunk_size`]), never on the thread count, and reductions always
//! > fold chunk results in ascending chunk order. A pipeline run with
//! > `threads = 1`, `2` or `8` therefore produces byte-identical output.
//!
//! Two primitives cover every stage:
//!
//! * [`Runtime::par_chunks_indexed`] — map a slice chunk-by-chunk, results
//!   returned in chunk order (the base index lets workers recover global
//!   positions);
//! * [`Runtime::par_map_reduce`] — the same, followed by an in-order fold.
//!
//! Workers pull chunk indices from a shared atomic counter, so uneven
//! chunks load-balance naturally; scheduling order never leaks into
//! results because every result is slotted by its chunk index before the
//! reduction runs. Spawning scoped threads per call costs microseconds
//! and is amortised over chunked work ([`MIN_CHUNK`] keeps tiny inputs
//! inline); it is the price of keeping every primitive borrow-friendly
//! (`&[T]` in, no `'static` bounds).

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod pool;

pub use pool::{BoundedQueue, PushError, WorkerPool};

/// Upper bound on the number of chunks an input is split into.
pub const MAX_PARTITIONS: usize = 64;

/// Lower bound on items per chunk (below this, spawning is pure overhead).
pub const MIN_CHUNK: usize = 32;

/// Worker threads to use when the caller does not specify: the machine's
/// available parallelism, with a fallback of 4 when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Chunk size for a `len`-item input.
///
/// Depends **only** on `len` — never on the thread count — so
/// order-sensitive reductions see identical chunk boundaries no matter how
/// many workers execute them. Inputs split into at most [`MAX_PARTITIONS`]
/// chunks of at least [`MIN_CHUNK`] items.
pub fn chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_PARTITIONS).max(MIN_CHUNK)
}

/// FNV-1a over raw bytes: a fixed, platform-independent hash for values
/// that are persisted or handed to clients (snapshot checksums, the
/// mention hash table, cursor fingerprints). Not `DefaultHasher`, whose
/// per-process random seed would change them from run to run.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`stable_hash`] over a string's UTF-8 bytes.
pub fn stable_hash_str(s: &str) -> u64 {
    stable_hash(s.as_bytes())
}

/// The key ([`phase_key`]) of the phase [`phase`] marked last; 0 before
/// the first mark.
static PHASE: AtomicUsize = AtomicUsize::new(0);

/// Marks the start of a named phase of work (a compaction's encode, say)
/// for instruments that attribute a cost to the phase it was spent in,
/// such as a counting allocator's per-phase peaks. One relaxed store: no
/// clock, no lock, no allocation. The mark is process-wide and the last
/// one wins, so two phases running at once on two threads read as
/// whichever was marked last.
pub fn phase(name: &'static str) {
    PHASE.store(phase_key(name), Ordering::Relaxed);
}

/// The key of the phase [`phase`] marked last; 0 before the first mark.
pub fn current_phase() -> usize {
    PHASE.load(Ordering::Relaxed)
}

/// The key [`phase`] stores for `name`: the address of its text. A reader
/// compares keys against the very names the marker passes (the same
/// `static`), since an equal literal elsewhere may live at another address.
pub fn phase_key(name: &'static str) -> usize {
    name.as_ptr() as usize
}

/// A work-distribution handle: a thread count plus the chunked scheduling
/// policy. Cheap to construct; stages borrow it for the duration of a run.
/// Worker threads are scoped to each `par_*` call, not pooled across
/// calls.
///
/// All entry points degrade gracefully: one thread (or one chunk) runs the
/// work inline on the caller's thread with no spawning at all, and the
/// results are identical either way.
#[derive(Debug, Clone)]
pub struct Runtime {
    threads: usize,
}

impl Default for Runtime {
    /// A runtime over [`default_threads`] workers.
    fn default() -> Self {
        Runtime::new(default_threads())
    }
}

impl Runtime {
    /// Creates a runtime with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Runtime {
            threads: threads.max(1),
        }
    }

    /// A single-threaded runtime: everything runs inline.
    pub fn serial() -> Self {
        Runtime::new(1)
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Core dispatch: evaluates `work(0..n_tasks)` on the pool and returns
    /// the results **indexed by task**, independent of which worker ran
    /// what. Workers pull task indices from a shared counter.
    #[expect(
        clippy::disallowed_methods,
        reason = "cnp_runtime owns concurrency: every `par_*` call in the workspace fans out through this one scope"
    )]
    fn run_indexed<R, F>(&self, n_tasks: usize, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n_tasks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n_tasks);
        if workers <= 1 {
            return (0..n_tasks).map(work).collect();
        }
        let next = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let work = &work;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_tasks {
                                break;
                            }
                            out.push((i, work(i)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("runtime worker panicked"))
                .collect()
        });

        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n_tasks).collect();
        for (i, r) in per_worker.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task index was pulled exactly once"))
            .collect()
    }

    /// Maps `items` chunk-by-chunk on the pool. `f` receives the chunk's
    /// base index into `items` plus the chunk slice; the per-chunk results
    /// come back **in chunk order**, so concatenating them reproduces the
    /// serial left-to-right traversal exactly.
    pub fn par_chunks_indexed<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &'a [T]) -> R + Sync,
    {
        let cs = chunk_size(items.len());
        let n_chunks = items.len().div_ceil(cs);
        self.run_indexed(n_chunks, |i| {
            let base = i * cs;
            f(base, &items[base..items.len().min(base + cs)])
        })
    }

    /// Chunked map followed by an in-order fold of the per-chunk results
    /// (chunk 0's accumulator absorbs chunk 1's, then chunk 2's, …).
    /// Returns `None` for an empty input.
    pub fn par_map_reduce<'a, T, A, M, F>(&self, items: &'a [T], map: M, reduce: F) -> Option<A>
    where
        T: Sync,
        A: Send,
        M: Fn(usize, &'a [T]) -> A + Sync,
        F: FnMut(A, A) -> A,
    {
        self.par_chunks_indexed(items, map)
            .into_iter()
            .reduce(reduce)
    }

    /// Maps `f` over `0..n` on the pool, returning the results in index
    /// order. For per-element work on index ranges (e.g. one ancestor row
    /// per concept); elements are processed in chunked batches internally.
    pub fn par_index_map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let cs = chunk_size(n);
        let n_chunks = n.div_ceil(cs);
        let batches: Vec<Vec<R>> = self.run_indexed(n_chunks, |ci| {
            let base = ci * cs;
            (base..n.min(base + cs)).map(&f).collect()
        });
        batches.into_iter().flatten().collect()
    }

    /// Evaluates `f(0..n)` with task granularity 1 — no chunking, and
    /// (unlike the chunked primitives) no tiny-input inlining: `n ≥ 2`
    /// tasks always dispatch to workers. Returns the results in index
    /// order. For a small number of coarse, possibly uneven tasks (one
    /// per client, one per worker); prefer [`Runtime::par_index_map`] for
    /// fine-grained per-element work.
    pub fn par_tasks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_indexed(n, f)
    }

    /// Classifies every item in parallel chunks (order-preserving), then
    /// splits the owned input: items whose verdict satisfies `keep`
    /// survive, in original order. Returns `(retained, verdicts)` — the
    /// full verdict list lets callers count removals per class.
    ///
    /// This is the one audited home of the "parallel keep-mask, serial
    /// stateful-iterator filter" idiom the verification strategies share;
    /// the mask is positional, so the retained sequence matches a serial
    /// `retain` exactly.
    pub fn par_classify_retain<T, V, C, K>(
        &self,
        items: Vec<T>,
        classify: C,
        keep: K,
    ) -> (Vec<T>, Vec<V>)
    where
        T: Sync + Send,
        V: Send,
        C: Fn(&T) -> V + Sync,
        K: Fn(&V) -> bool,
    {
        let verdicts: Vec<V> = self
            .par_chunks_indexed(&items, |_, chunk| {
                chunk.iter().map(&classify).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let mut verdict_iter = verdicts.iter();
        let retained = items
            .into_iter()
            .filter(|_| keep(verdict_iter.next().expect("one verdict per item")))
            .collect();
        (retained, verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_depends_only_on_len() {
        assert_eq!(chunk_size(0), MIN_CHUNK);
        assert_eq!(chunk_size(10), MIN_CHUNK);
        assert_eq!(chunk_size(64 * MIN_CHUNK), MIN_CHUNK);
        // Large inputs split into at most MAX_PARTITIONS chunks.
        let len: usize = 1_000_000;
        assert!(len.div_ceil(chunk_size(len)) <= MAX_PARTITIONS);
    }

    #[test]
    fn par_chunks_match_serial_traversal_at_any_thread_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8] {
            let rt = Runtime::new(threads);
            let mapped: Vec<u64> = rt
                .par_chunks_indexed(&items, |_, chunk| {
                    chunk.iter().map(|x| x * 3).collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(mapped, serial, "threads={threads}");
        }
    }

    #[test]
    fn base_index_recovers_global_positions() {
        let items = vec![7u32; 500];
        let rt = Runtime::new(4);
        let indexed: Vec<usize> = rt
            .par_chunks_indexed(&items, |base, chunk| {
                (0..chunk.len()).map(|off| base + off).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(indexed, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn map_reduce_folds_in_chunk_order() {
        // String concatenation is order-sensitive: any out-of-order
        // reduction would scramble the digits.
        let items: Vec<usize> = (0..300).collect();
        let serial: String = items.iter().map(|i| i.to_string()).collect();
        for threads in [1, 4] {
            let rt = Runtime::new(threads);
            let folded = rt
                .par_map_reduce(
                    &items,
                    |_, chunk| chunk.iter().map(|i| i.to_string()).collect::<String>(),
                    |mut a, b| {
                        a.push_str(&b);
                        a
                    },
                )
                .unwrap();
            assert_eq!(folded, serial, "threads={threads}");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(Runtime::new(4)
            .par_map_reduce(&empty, |_, _| 0usize, |a, b| a + b)
            .is_none());
    }

    #[test]
    fn index_map_returns_results_in_index_order() {
        let rt = Runtime::new(8);
        let squares = rt.par_index_map(200, |i| i * i);
        assert_eq!(squares.len(), 200);
        for (i, &sq) in squares.iter().enumerate() {
            assert_eq!(sq, i * i);
        }
        assert!(rt.par_index_map(0, |i| i).is_empty());
    }

    #[test]
    fn tasks_actually_fan_out_to_workers() {
        // Tasks 0 and 1 rendezvous on a barrier: the test can only finish
        // if two workers run them concurrently (with 4 workers and a task
        // held hostage at the barrier, another worker must pull the
        // partner task). This cannot pass on a single worker.
        let barrier = std::sync::Barrier::new(2);
        let rt = Runtime::new(4);
        let ids = rt.par_tasks(4, |i| {
            if i < 2 {
                barrier.wait();
            }
            (i, std::thread::current().id())
        });
        assert_eq!(ids.len(), 4);
        for (want, (got, _)) in ids.iter().enumerate() {
            assert_eq!(*got, want);
        }
        assert_ne!(ids[0].1, ids[1].1, "barrier partners ran on one thread");
    }

    #[test]
    fn classify_retain_preserves_order_and_verdicts() {
        let items: Vec<u32> = (0..500).collect();
        for threads in [1, 4] {
            let rt = Runtime::new(threads);
            let (kept, verdicts) = rt.par_classify_retain(items.clone(), |&x| x % 3, |&v| v != 0);
            assert_eq!(verdicts.len(), items.len());
            assert_eq!(
                kept,
                items
                    .iter()
                    .copied()
                    .filter(|x| x % 3 != 0)
                    .collect::<Vec<_>>()
            );
            assert_eq!(verdicts.iter().filter(|&&v| v == 0).count(), 167);
        }
    }

    #[test]
    fn stable_hash_values_never_change_between_builds() {
        // FNV-1a with fixed constants: snapshot checksums, the mention
        // hash table and cursor fingerprints are persisted or held by
        // clients, so a changed value silently invalidates them.
        assert_eq!(stable_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash_str("演员"), stable_hash("演员".as_bytes()));
        assert_ne!(stable_hash_str("演员"), stable_hash_str("歌手"));
    }

    #[test]
    fn single_thread_runs_inline() {
        let rt = Runtime::serial();
        assert_eq!(rt.threads(), 1);
        let tid = std::thread::current().id();
        let ran_on: Vec<std::thread::ThreadId> =
            rt.par_index_map(100, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&t| t == tid));
    }

    #[test]
    fn zero_threads_clamp_to_one() {
        assert_eq!(Runtime::new(0).threads(), 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(Runtime::default().threads() >= 1);
    }
}
