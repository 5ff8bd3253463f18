//! Scoped-thread fan-out helpers.
//!
//! The workspace parallelizes its hot loops (blocked matmul, the crossbar
//! pulse pipeline) with `std::thread::scope` over contiguous chunks of a
//! mutable output buffer: no `unsafe`, no global thread pool, and — when
//! every chunk's result is a pure function of that chunk — bitwise
//! determinism for any thread count and any order of claims.

use std::sync::Mutex;

/// Number of worker threads for `items` units of work: at most
/// `max_threads`, at least 1, and never so many that a worker gets fewer
/// than `min_items_per_thread` items.
pub fn plan_threads(items: usize, max_threads: usize, min_items_per_thread: usize) -> usize {
    max_threads.min(items / min_items_per_thread.max(1)).max(1)
}

/// Splits `data` into contiguous chunks of at most `chunk_len` elements
/// and runs `f(start_index, chunk)` for each on `threads` workers, the
/// calling thread among them. Each worker claims the next unclaimed
/// chunk until none is left, so a worker on a core slowed by other load
/// ends up with fewer chunks. Results are returned in chunk order.
///
/// With a single chunk (or an empty `data`) or one thread every chunk
/// runs on the calling thread, and `chunk_len >= data.len()` spawns
/// nothing.
///
/// # Panics
///
/// Propagates worker panics.
pub fn scoped_chunks<T, R, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    if data.len() <= chunk_len {
        return vec![f(0, data)];
    }
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // the guard drops before the chunk runs
            let claimed = queue
                .lock()
                .expect("taking the next chunk cannot panic")
                .next();
            let Some((i, chunk)) = claimed else {
                return done;
            };
            done.push((i, f(i * chunk_len, chunk)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("scoped_chunks worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_threads_bounds() {
        assert_eq!(plan_threads(0, 8, 4), 1);
        assert_eq!(plan_threads(3, 8, 4), 1);
        assert_eq!(plan_threads(100, 8, 4), 8);
        assert_eq!(plan_threads(12, 8, 4), 3);
        assert_eq!(plan_threads(12, 8, 0), 8); // min clamped to 1
    }

    #[test]
    fn chunks_cover_data_in_order() {
        // fewer, as many and more workers than chunks; a partial last chunk
        for threads in [1, 2, 4, 8] {
            let mut data: Vec<u32> = vec![0; 10];
            let chunks = scoped_chunks(&mut data, 3, threads, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (start + i) as u32;
                }
                (start, chunk.len())
            });
            assert_eq!(
                chunks,
                [(0, 3), (3, 3), (6, 3), (9, 1)],
                "{threads} threads"
            );
            assert_eq!(data, (0..10).collect::<Vec<u32>>(), "{threads} threads");
        }
    }

    #[test]
    fn interleaved_claims_return_in_chunk_order() {
        // chunk 0 finishes only after chunk 1 and chunk 2 only after
        // chunk 3, so neither worker can run all four, and in every
        // schedule one worker's chunks are not all below the other's
        let finished = (std::sync::Mutex::new([false; 4]), std::sync::Condvar::new());
        let mut data = vec![0u8; 4];
        let order = scoped_chunks(&mut data, 1, 2, |start, _| {
            let (lock, cv) = &finished;
            let mut done = lock.lock().expect("no test worker panics");
            if start % 2 == 0 {
                done = cv
                    .wait_while(done, |d| !d[start + 1])
                    .expect("no test worker panics");
            }
            done[start] = true;
            cv.notify_all();
            start
        });
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn single_chunk_runs_inline() {
        let mut data = vec![1.0f32; 4];
        let caller = std::thread::current().id();
        let r = scoped_chunks(&mut data, 100, 4, |start, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            (start, chunk.len())
        });
        assert_eq!(r, vec![(0, 4)]);
        let r = scoped_chunks(&mut Vec::<f32>::new(), 4, 4, |start, chunk| {
            (start, chunk.len())
        });
        assert_eq!(r, vec![(0, 0)]);
    }

    #[test]
    fn results_identical_for_any_chunking() {
        // NB: the fill must not call a libm transcendental (`sin` etc.):
        // in `--release` the compiler auto-vectorizes those per chunk
        // length and the vector/scalar paths round 1 ULP apart, which is
        // exactly the cross-chunk divergence this test exists to forbid.
        // Integer-derived values are bit-identical in every build mode.
        let fill = |g: usize| -> f32 {
            let h = (g as u32).wrapping_mul(2_654_435_761);
            (h >> 16) as f32 / 65_536.0 - 0.5
        };
        let compute = |chunk_len: usize| -> (Vec<f32>, f64) {
            let mut data = vec![0.0f32; 37];
            let partials = scoped_chunks(&mut data, chunk_len, 3, |start, chunk| {
                let mut sum = 0.0f64;
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = fill(start + i);
                    sum += f64::from(*v);
                }
                sum
            });
            (data, partials.iter().sum())
        };
        let (d1, s1) = compute(37);
        for chunk in [1, 2, 5, 36] {
            let (d, s) = compute(chunk);
            assert_eq!(d1, d);
            assert!((s1 - s).abs() < 1e-9);
        }
    }
}
