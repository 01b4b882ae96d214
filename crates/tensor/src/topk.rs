//! Deterministic partial top-k selection for retrieval serving.
//!
//! [`top_k_slice`] selects the indices of a score row's `k` largest
//! entries in descending score order. It is the partial-select
//! counterpart of [`crate::Tensor::top_k_row`] (which sorts the whole
//! row): a bounded binary min-heap keeps only the current best `k`
//! candidates, so a row costs `O(n log k)` instead of `O(n log n)` —
//! the difference matters when `n` is a full item catalog and `k` is 10.
//!
//! **Determinism.** Ties are broken by the stable rule "lower index
//! wins" (the same order the full-sort reference produces via a stable
//! descending sort), and values compare via `f32::total_cmp`, so the
//! output is a pure function of the input — no float-comparison
//! ambiguity — and the scan is sequential, so it is the same at any
//! thread count.

use std::cmp::Ordering;

/// Returns `true` when candidate `a` ranks strictly above `b`:
/// higher score wins, equal scores go to the lower index.
#[inline]
fn ranks_above(a: (f32, usize), b: (f32, usize)) -> bool {
    match a.0.total_cmp(&b.0) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a.1 < b.1,
    }
}

/// Restores the min-heap property (root = worst-ranked element) after
/// the root was replaced.
fn sift_down(heap: &mut [(f32, usize)], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut worst = i;
        if l < heap.len() && ranks_above(heap[worst], heap[l]) {
            worst = l;
        }
        if r < heap.len() && ranks_above(heap[worst], heap[r]) {
            worst = r;
        }
        if worst == i {
            return;
        }
        heap.swap(i, worst);
        i = worst;
    }
}

/// Indices of the `k` largest values in `row`, descending by value with
/// ties broken toward the lower index. `k` is clamped to `row.len()`;
/// `k == 0` yields an empty vector.
///
/// Matches [`crate::Tensor::top_k_row`]'s stable full-sort reference exactly
/// (including on rows with repeated values).
pub fn top_k_slice(row: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(row.len());
    if k == 0 {
        return Vec::new();
    }
    let mut heap: Vec<(f32, usize)> = Vec::with_capacity(k);
    for (i, &v) in row.iter().enumerate().take(k) {
        heap.push((v, i));
    }
    // Bottom-up heapify: root ends up at the worst-ranked candidate.
    for i in (0..k / 2).rev() {
        sift_down(&mut heap, i);
    }
    for (i, &v) in row.iter().enumerate().skip(k) {
        if ranks_above((v, i), heap[0]) {
            heap[0] = (v, i);
            sift_down(&mut heap, 0);
        }
    }
    // Descending by rank; k is small, a final sort is cheapest.
    heap.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    heap.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;
    use crate::Tensor;

    fn reference(t: &Tensor, r: usize, k: usize) -> Vec<usize> {
        t.top_k_row(r, k)
    }

    #[test]
    fn matches_full_sort_reference_on_random_rows() {
        let mut rng = Pcg32::new(0x70b1, 1);
        for &n in &[1usize, 2, 7, 33, 257] {
            for &k in &[0usize, 1, 3, n / 2, n, n + 5] {
                let t = Tensor::from_fn(4, n, |_, _| rng.uniform_range(-4.0, 4.0));
                for r in 0..4 {
                    assert_eq!(
                        top_k_slice(t.row(r), k),
                        reference(&t, r, k.min(n)),
                        "n={n} k={k} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn ties_break_toward_lower_index_like_stable_sort() {
        // Heavy duplication: quantize random scores to a handful of levels.
        let mut rng = Pcg32::new(0x7135, 1);
        for trial in 0..50 {
            let n = 40;
            let t = Tensor::from_fn(1, n, |_, _| (rng.uniform() * 4.0).floor());
            for k in [1usize, 5, 17, n] {
                assert_eq!(
                    top_k_slice(t.row(0), k),
                    reference(&t, 0, k),
                    "trial={trial} k={k}"
                );
            }
        }
    }

    #[test]
    fn edge_cases_k_zero_and_k_beyond_n() {
        let t = Tensor::from_vec(1, 3, vec![2.0, 9.0, 4.0]).unwrap();
        assert!(top_k_slice(t.row(0), 0).is_empty());
        assert_eq!(top_k_slice(t.row(0), 3), vec![1, 2, 0]);
        assert_eq!(top_k_slice(t.row(0), 99), vec![1, 2, 0]);
        let empty: &[f32] = &[];
        assert!(top_k_slice(empty, 5).is_empty());
    }
}
