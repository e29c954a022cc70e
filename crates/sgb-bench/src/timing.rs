//! Wall-clock timing helpers.

use std::fmt::Debug;
use std::time::Instant;

/// Runs `f`, returning its result and the elapsed wall-clock seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The interleaved rounds [`time_paths`] runs.
pub const ROUNDS: usize = 5;

/// Times `run` on each of `paths` in [`ROUNDS`] interleaved rounds (every
/// path once per round, in order), so a slow spell of the machine, or the
/// cache state a path leaves behind, falls on every path alike instead of
/// on the rows that happen to follow it. Asserts that every round of a
/// path returns what its first round did. Returns, per path, the first
/// round's result and the median seconds of its rounds.
pub fn time_paths<P, T: PartialEq + Debug>(
    paths: &[P],
    mut run: impl FnMut(&P) -> T,
) -> Vec<(T, f64)> {
    let mut firsts: Vec<T> = Vec::with_capacity(paths.len());
    let mut seconds = vec![Vec::with_capacity(ROUNDS); paths.len()];
    for round in 0..ROUNDS {
        for (i, path) in paths.iter().enumerate() {
            let (out, secs) = time(|| run(path));
            seconds[i].push(secs);
            if round == 0 {
                firsts.push(out);
            } else {
                assert_eq!(
                    out, firsts[i],
                    "path {i} changed its answer in round {round}"
                );
            }
        }
    }
    firsts
        .into_iter()
        .zip(seconds)
        .map(|(out, mut secs)| {
            secs.sort_by(f64::total_cmp);
            (out, secs[ROUNDS / 2])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_elapsed_time() {
        let ((), secs) = time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(secs >= 0.019, "got {secs}");
        assert!(secs < 1.0, "got {secs}");
    }

    #[test]
    fn passes_through_result() {
        let (v, _) = time(|| 21 * 2);
        assert_eq!(v, 42);
    }

    #[test]
    fn paths_run_in_interleaved_rounds_and_report_their_median() {
        let mut order = Vec::new();
        let timed = time_paths(&[3u64, 9], |&ms| {
            order.push(ms);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms * 2
        });
        assert_eq!(order, [3, 9].repeat(ROUNDS));
        assert_eq!(timed.len(), 2);
        for ((out, secs), ms) in timed.into_iter().zip([3u64, 9]) {
            assert_eq!(out, ms * 2);
            assert!(secs >= ms as f64 / 1e3, "{ms} ms path took {secs} s");
        }
    }

    #[test]
    #[should_panic(expected = "changed its answer")]
    fn a_path_that_changes_its_answer_fails() {
        let mut calls = 0;
        time_paths(&[()], |()| {
            calls += 1;
            calls
        });
    }
}
