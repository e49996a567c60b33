//! One monotonic nanosecond clock shared by every harness thread.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until `now_ns()` reaches `deadline_ns`.
pub fn sleep_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(std::time::Duration::from_nanos(deadline_ns - now));
    }
}
