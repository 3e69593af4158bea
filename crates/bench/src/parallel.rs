//! How many host threads a bench fans its trials out over.
//!
//! Trials run on [`run_parallel`](rapilog_faultsim::run_parallel) and
//! sweeps on [`explore`](rapilog_faultsim::explore), which merge results in
//! job order, so the thread count changes only how fast a bench runs, never
//! what it prints. It comes from `RAPILOG_BENCH_THREADS` (default: all host
//! cores), so CI can pin it and laptops can be throttled.

/// Number of worker threads to use: `RAPILOG_BENCH_THREADS` if set to a
/// positive integer, otherwise the host's available parallelism.
pub fn thread_count() -> usize {
    threads_from(
        std::env::var("RAPILOG_BENCH_THREADS").ok().as_deref(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// The thread count `RAPILOG_BENCH_THREADS = var` asks for on a host with
/// `host` cores: the variable if it is a positive integer, else `host`.
fn threads_from(var: Option<&str>, host: usize) -> usize {
    var.and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(host)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_respects_the_env_override() {
        assert_eq!(threads_from(None, 6), 6, "unset: the host's cores");
        assert_eq!(threads_from(Some("0"), 6), 6, "zero threads is no answer");
        assert_eq!(threads_from(Some("abc"), 6), 6, "not a number");
        assert_eq!(threads_from(Some("3"), 6), 3);
    }
}
