//! The benchmark's one clock: every timestamp it takes comes from here.

use std::time::Instant;

pub(crate) fn now() -> Instant {
    Instant::now() // audit: allow(wall-clock) — measuring elapsed time is what the benchmark is for
}
