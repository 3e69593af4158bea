//! One explorer for every trial kind.
//!
//! A fault campaign sweeps a grid of independent deterministic trials and
//! audits each one. What differs between campaigns is the grid, the trial
//! and what a sweep sums; a [`Trial`] names those three — the crash grid
//! ([`ExplorerConfig`](crate::ExplorerConfig)) and the failover grid
//! ([`FailoverExplorerConfig`](crate::FailoverExplorerConfig)) are its two
//! impls. Everything else lives here once: the walk over the grid, the
//! host-thread fan-out, the trial count, the counterexamples and their
//! replay.
//!
//! A clean sweep is evidence; a violation is a [`Counterexample`] that
//! replays exactly from its point, because every trial is a closed
//! deterministic simulation. It owns its `Sim`, its RNG and its devices and
//! shares nothing, so N OS threads can each run whole trials while
//! determinism is untouched: [`explore`] folds outcomes **in grid order**,
//! and an exploration on 8 threads is bit-identical to the same one on 1,
//! counterexample order included.

use std::fmt;
use std::sync::Mutex;

/// A kind of fault trial: its grid, one run, and the sums a sweep reports.
pub trait Trial: Sync {
    /// One grid coordinate. It replays its trial exactly, and its `Display`
    /// form is the coordinate part of [`Counterexample::replay_line`].
    type Point: Copy + Send + fmt::Display;
    /// What one trial returns.
    type Outcome: Send;
    /// The kind's own sums over a sweep.
    type Report: Default;

    /// Every grid point, in canonical order.
    fn grid(&self) -> Vec<Self::Point>;
    /// Runs the trial at `point`.
    fn run(&self, point: &Self::Point) -> Self::Outcome;
    /// What the trial's audit found (empty when every invariant held).
    fn violations(outcome: &Self::Outcome) -> &[String];
    /// Folds one trial's outcome into the kind's sums.
    fn fold(report: &mut Self::Report, point: &Self::Point, outcome: &Self::Outcome);
}

/// One grid point whose trial violated an invariant. Its point replays the
/// failure exactly.
#[derive(Debug, Clone)]
pub struct Counterexample<P> {
    /// The grid coordinate.
    pub point: P,
    /// What the audit found.
    pub violations: Vec<String>,
}

impl<P: fmt::Display> Counterexample<P> {
    /// A one-line replay recipe for reports and panic messages.
    pub fn replay_line(&self) -> String {
        format!(
            "replay: {} ({} violations: {})",
            self.point,
            self.violations.len(),
            self.violations.join("; "),
        )
    }
}

impl<P> Counterexample<P> {
    /// Runs the trial at this point again: the same config gives the same
    /// violations, in the same order, every time.
    pub fn replay<T: Trial<Point = P>>(&self, cfg: &T) -> T::Outcome {
        cfg.run(&self.point)
    }
}

/// What a sweep found.
pub struct Exploration<T: Trial> {
    /// Trials executed.
    pub trials: u64,
    /// Grid points that violated an invariant, in grid order.
    pub counterexamples: Vec<Counterexample<T::Point>>,
    /// The trial kind's own sums.
    pub report: T::Report,
}

impl<T: Trial> Exploration<T> {
    /// True iff no trial violated any invariant.
    pub fn clean(&self) -> bool {
        self.counterexamples.is_empty()
    }
}

/// Runs every point of `cfg`'s grid, one deterministic trial each, on up to
/// `threads` host threads (`1` is the sequential sweep), and folds the
/// verdicts in grid order.
pub fn explore<T: Trial>(cfg: &T, threads: usize) -> Exploration<T> {
    let mut found = Exploration {
        trials: 0,
        counterexamples: Vec::new(),
        report: T::Report::default(),
    };
    for (point, outcome) in run_parallel(cfg.grid(), threads, |p| (p, cfg.run(&p))) {
        found.trials += 1;
        T::fold(&mut found.report, &point, &outcome);
        let violations = T::violations(&outcome);
        if !violations.is_empty() {
            found.counterexamples.push(Counterexample {
                point,
                violations: violations.to_vec(),
            });
        }
    }
    found
}

/// Runs `jobs` on up to `threads` OS threads and returns the results **in
/// job order** (result `i` came from job `i`, regardless of which thread
/// ran it or when it finished). With `threads <= 1` this degenerates to a
/// plain sequential map, which is also the reference ordering.
///
/// Workers take the next job from one shared queue, so a slow trial never
/// blocks the jobs behind it.
pub fn run_parallel<C, R, F>(jobs: Vec<C>, threads: usize, run: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    if threads == 1 {
        return jobs.into_iter().map(run).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let next = queue.lock().expect("job queue poisoned").next();
                        let Some((i, job)) = next else { return out };
                        out.push((i, run(job)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a job panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_parallel(jobs, 8, |j| j * 10);
        assert_eq!(out, (0..64).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_is_the_sequential_map() {
        let out = run_parallel(vec![1, 2, 3], 1, |j| j + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_jobs_are_fine() {
        let out: Vec<u32> = run_parallel(Vec::<u32>::new(), 4, |j| j);
        assert!(out.is_empty());
    }

    /// A trial kind with no simulation: point `i` fails iff it is odd.
    struct Parity(u64);

    impl Trial for Parity {
        type Point = u64;
        type Outcome = Vec<String>;
        type Report = u64;

        fn grid(&self) -> Vec<u64> {
            (0..self.0).collect()
        }
        fn run(&self, point: &u64) -> Vec<String> {
            if point % 2 == 1 {
                vec![format!("{point} is odd")]
            } else {
                Vec::new()
            }
        }
        fn violations(outcome: &Vec<String>) -> &[String] {
            outcome
        }
        fn fold(report: &mut u64, point: &u64, _: &Vec<String>) {
            *report += point;
        }
    }

    #[test]
    fn counterexamples_come_back_in_grid_order_at_any_thread_count() {
        for threads in [1, 3] {
            let found = explore(&Parity(6), threads);
            assert_eq!(found.trials, 6);
            assert_eq!(found.report, 15);
            assert!(!found.clean());
            let lines: Vec<String> = found
                .counterexamples
                .iter()
                .map(|c| c.replay_line())
                .collect();
            assert_eq!(
                lines,
                [
                    "replay: 1 (1 violations: 1 is odd)",
                    "replay: 3 (1 violations: 3 is odd)",
                    "replay: 5 (1 violations: 5 is odd)",
                ]
            );
            assert_eq!(found.counterexamples[1].replay(&Parity(6)), ["3 is odd"]);
        }
    }
}
