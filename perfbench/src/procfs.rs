//! `/proc` readers: kernel UDP drops per local port, per-thread on-CPU time
//! and the process's peak resident set.

use std::collections::HashMap;
use std::fs;

/// Kernel receive drops of every IPv4 UDP socket, summed per local port
/// (the `drops` column of `/proc/net/udp`).
pub fn udp_drops_by_port() -> HashMap<u16, u64> {
    fs::read_to_string("/proc/net/udp")
        .map(|table| parse_udp_drops(&table))
        .unwrap_or_default()
}

fn parse_udp_drops(table: &str) -> HashMap<u16, u64> {
    let mut drops = HashMap::new();
    for line in table.lines().skip(1) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(local), Some(count)) = (fields.get(1), fields.last()) else {
            continue;
        };
        let Some((_, port)) = local.split_once(':') else {
            continue;
        };
        let (Ok(port), Ok(count)) = (u16::from_str_radix(port, 16), count.parse::<u64>()) else {
            continue;
        };
        *drops.entry(port).or_insert(0) += count;
    }
    drops
}

/// Kernel receive drops summed over the sockets bound to `ports`.
pub fn udp_drops(ports: &[u16]) -> u64 {
    let table = udp_drops_by_port();
    ports.iter().filter_map(|port| table.get(port)).sum()
}

/// One thread of this process and the time it has spent on a CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// On-CPU nanoseconds (first field of `schedstat`).
    pub on_cpu_ns: u64,
}

/// Every live thread of this process with its on-CPU time, read from
/// `/proc/self/task/*/schedstat` (nanoseconds, not the 10 ms `stat` ticks).
pub fn threads() -> Vec<ThreadCpu> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut threads = Vec::new();
    for task in tasks.flatten() {
        let dir = task.path();
        let (Ok(name), Ok(schedstat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let Some(on_cpu_ns) = schedstat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse().ok())
        else {
            continue;
        };
        threads.push(ThreadCpu {
            name: name.trim_end().to_string(),
            on_cpu_ns,
        });
    }
    threads
}

/// On-CPU nanoseconds of the proxy's threads, in total and by role.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSplit {
    /// Every thread not named in [`HARNESS_THREADS`].
    pub proxy_ns: u64,
    /// Threads named like a pool worker.
    pub worker_ns: u64,
    /// The reactor thread.
    pub reactor_ns: u64,
}

/// Thread names that belong to the load generator, not the proxy.
pub const HARNESS_THREADS: &[&str] = &["perfbench", "bench-rx"];

/// Splits this process's on-CPU time by who spent it.
pub fn cpu_split() -> CpuSplit {
    let mut split = CpuSplit::default();
    for thread in threads() {
        if HARNESS_THREADS.contains(&thread.name.as_str()) {
            continue;
        }
        split.proxy_ns += thread.on_cpu_ns;
        if thread.name.starts_with("rapidware-shard") {
            split.worker_ns += thread.on_cpu_ns;
        } else if thread.name.starts_with("rapidware-react") {
            split.reactor_ns += thread.on_cpu_ns;
        }
    }
    split
}

/// Host-wide CPU time so far, in clock ticks: `(total, steal)` from the
/// first line of `/proc/stat`.  Steal is time the hypervisor ran something
/// else while a virtual CPU of this machine wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::time::{Duration, Instant};

    #[test]
    fn parses_the_drops_column_by_local_port() {
        let table = "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n\
   10: 0100007F:1F90 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 111 2 0000000000000000 17\n\
   11: 00000000:1F90 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 112 2 0000000000000000 3\n\
   12: 0100007F:0050 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 113 2 0000000000000000 0\n";
        let drops = parse_udp_drops(table);
        assert_eq!(drops.get(&0x1F90), Some(&20));
        assert_eq!(drops.get(&0x50), Some(&0));
        assert_eq!(drops.len(), 2);
    }

    #[test]
    fn kernel_drops_of_an_overflowed_socket_equal_sent_minus_received() {
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        crate::sys::set_recv_buffer(&sink, 4096).unwrap();
        let port = sink.local_addr().unwrap().port();
        let before = udp_drops(&[port]);
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sent = 2_000u64;
        for seq in 0..sent {
            sender
                .send_to(&seq.to_be_bytes().repeat(32), ("127.0.0.1", port))
                .unwrap();
        }
        // Only now is the socket read: whatever the kernel kept is received,
        // everything else must show up in the drops column.
        sink.set_nonblocking(true).unwrap();
        let mut received = 0u64;
        let mut buf = [0u8; 512];
        while sink.recv(&mut buf).is_ok() {
            received += 1;
        }
        assert!(received < sent, "the buffer should have overflowed");
        assert_eq!(udp_drops(&[port]) - before, sent - received);
    }

    #[test]
    fn schedstat_sees_a_named_busy_thread() {
        let handle = std::thread::Builder::new()
            .name("probe-busy".to_string())
            .spawn(|| {
                let start = Instant::now();
                let mut x = 0u64;
                while start.elapsed() < Duration::from_millis(30) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                let busy = threads()
                    .into_iter()
                    .find(|thread| thread.name == "probe-busy")
                    .expect("the thread lists itself");
                (x, busy.on_cpu_ns)
            })
            .unwrap();
        let (_, on_cpu_ns) = handle.join().unwrap();
        assert!(
            on_cpu_ns >= 10_000_000,
            "spun for 30 ms, on CPU {on_cpu_ns} ns"
        );
        assert!(cpu_split().proxy_ns > 0 || threads().len() == 1);
        assert!(peak_rss_kib() > 0);
    }
}
