//! Scoped-thread fan-out helpers.
//!
//! The workspace parallelizes its hot loops (blocked matmul, the crossbar
//! pulse pipeline) with `std::thread::scope` over contiguous chunks of a
//! mutable output buffer: no `unsafe`, no global thread pool, and — when
//! every worker's result is a pure function of its chunk — bitwise
//! determinism for any thread count.

/// Number of worker threads for `items` units of work: at most
/// `max_threads`, at least 1, and never so many that a worker gets fewer
/// than `min_items_per_thread` items.
pub fn plan_threads(items: usize, max_threads: usize, min_items_per_thread: usize) -> usize {
    max_threads.min(items / min_items_per_thread.max(1)).max(1)
}

/// Splits `data` into contiguous chunks of at most `chunk_len` elements
/// and runs `f(start_index, chunk)` for each, on scoped worker threads
/// when there is more than one chunk. Results are returned in chunk
/// order.
///
/// With a single chunk (or an empty `data`) the closure runs inline on
/// the calling thread, so `chunk_len >= data.len()` is the zero-overhead
/// serial path.
///
/// # Panics
///
/// Propagates worker panics.
pub fn scoped_chunks<T, R, F>(data: &mut [T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    if data.len() <= chunk_len {
        return vec![f(0, data)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, chunk)| {
                let f = &f;
                scope.spawn(move || f(i * chunk_len, chunk))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scoped_chunks worker panicked"))
            .collect()
    })
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
        let mut data: Vec<u32> = vec![0; 10];
        let starts = scoped_chunks(&mut data, 3, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start + i) as u32;
            }
            start
        });
        assert_eq!(starts, vec![0, 3, 6, 9]);
        assert_eq!(data, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn single_chunk_runs_inline() {
        let mut data = vec![1.0f32; 4];
        let r = scoped_chunks(&mut data, 100, |start, chunk| (start, chunk.len()));
        assert_eq!(r, vec![(0, 4)]);
        let r = scoped_chunks(&mut Vec::<f32>::new(), 4, |start, chunk| {
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
            let partials = scoped_chunks(&mut data, chunk_len, |start, chunk| {
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
