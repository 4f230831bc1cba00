//! The two workloads, each driving in process the public functions one
//! kind of user reaches: the CLI `sweep --stream` and an embedding
//! `FleetState` caller. Their traced runs also measure the CLI
//! `sweep --out` path (`sweep`) and the `serve` front end (`served`).

pub(crate) mod resident_rw;
pub(crate) mod served;
pub(crate) mod stream_draws;
pub(crate) mod sweep;

/// Set-up samples of one run. A workload takes them at points spread
/// through its measurement window, not back to back before it, so they
/// see the same host conditions as the window does; `setup_s` is their
/// median.
#[derive(Default)]
pub(crate) struct Setups {
    secs: Vec<f64>,
}

impl Setups {
    /// Times one set-up and returns its product.
    pub(crate) fn sample<T>(
        &mut self,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let t = crate::clock::now();
        let product = crate::trace::op("setup", setup)?;
        self.secs.push(t.elapsed().as_secs_f64());
        Ok(product)
    }

    /// Times `n` set-ups, dropping each product.
    pub(crate) fn discard<T>(
        &mut self,
        n: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        for _ in 0..n {
            drop(self.sample(&mut setup)?);
        }
        Ok(())
    }

    pub(crate) fn len(&self) -> usize {
        self.secs.len()
    }

    pub(crate) fn median(&self) -> f64 {
        crate::stats::median(&self.secs)
    }
}

/// Trimmed jobs run before a batch window to read peak RSS; their times
/// are not counted.
const RSS_JOBS: usize = 2;

/// Per-job seconds of a batch window, split by whether the job was
/// traced, and the peak RSS of each RSS job.
#[derive(Default)]
pub(crate) struct Jobs {
    pub(crate) untraced: Vec<f64>,
    pub(crate) traced: Vec<f64>,
    pub(crate) peak_rss_mb: Vec<f64>,
}

impl Jobs {
    /// First runs `RSS_JOBS` jobs, each from a trimmed heap with the
    /// peak-RSS mark reset, so each peak counts what one job holds, as in
    /// a fresh CLI process. Then runs `job` back to back, untrimmed, until
    /// `seconds` have passed and at least `min_jobs` untraced jobs ran:
    /// timed jobs reuse the pages earlier jobs faulted in, because fresh
    /// page faults are what drifts most on a shared VM host.
    /// With `trace`, every other timed job is traced, so both halves see
    /// the same host conditions. `job` returns its own timed seconds
    /// (gating, set-up samples and drops happen outside them).
    pub(crate) fn run(
        seconds: f64,
        trace: bool,
        min_jobs: usize,
        mut job: impl FnMut() -> Result<f64, String>,
    ) -> Result<Jobs, String> {
        let mut jobs = Jobs::default();
        for _ in 0..RSS_JOBS {
            crate::stats::trim_heap();
            crate::stats::reset_peak_rss();
            job()?;
            jobs.peak_rss_mb.push(crate::stats::peak_rss_mb());
        }
        let start = crate::clock::now();
        let mut i = 0usize;
        while start.elapsed().as_secs_f64() < seconds || jobs.untraced.len() < min_jobs {
            let traced = trace && i % 2 == 1;
            crate::trace::enable(traced);
            let secs = job();
            crate::trace::enable(false);
            let secs = secs?;
            if traced {
                jobs.traced.push(secs);
            } else {
                jobs.untraced.push(secs);
            }
            i += 1;
        }
        Ok(jobs)
    }

    /// Units of work per second over the untraced jobs: the window's total
    /// work over its total job time. A mean, not a median job: on a
    /// shared host job times spread widely within one window, and over
    /// ten runs the mean moved least of the statistics tried.
    pub(crate) fn throughput(&self, work_per_job: f64) -> f64 {
        work_per_job / mean(&self.untraced)
    }

    /// Traced throughput over untraced throughput (1 without a trace).
    pub(crate) fn throughput_ratio(&self) -> f64 {
        if self.traced.is_empty() {
            return 1.0;
        }
        mean(&self.untraced) / mean(&self.traced)
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}
