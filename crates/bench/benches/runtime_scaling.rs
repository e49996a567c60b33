//! Session density: the sharded runtime vs thread-per-filter, hosting 256
//! concurrent streams.
//!
//! The claim under test: a pooled session costs **zero** dedicated OS
//! threads — the head chain, the fanout stage, and every lane run as
//! cooperative tasks on a fixed pool — so a machine hosts hundreds of
//! concurrent sessions on `WORKERS` threads, where the thread-per-filter
//! model (the paper's Fig. 4 [`ThreadedChain`]) needs a thread *per
//! filter* of every stream.
//!
//! The pooled mode hosts `SESSIONS` live fanout sessions (one filtered
//! head stage, one receiver lane each); the thread-per-filter baseline
//! hosts `SESSIONS` [`ThreadedChain`]s with the same null filter — one
//! thread each, the cheapest shape that model has.  Both push a burst of
//! packets through every stream and verify delivery.  Density is `sessions / threads used to host them`,
//! with the thread counts read from `/proc/self/status` (falling back to
//! the analytic per-runtime thread accounting off Linux).  The bench
//! asserts the pooled runtime reaches at least **4x** the thread-per-filter
//! session density at 256 sessions on 8 workers.
//!
//! Each mode runs `REPETITIONS` times (sessions are single-use: `drive`
//! closes every input, so a repetition rebuilds them from scratch); the
//! median packets/second and the measured thread counts go to
//! `BENCH_runtime_scaling.json` at the workspace root.
//!
//! Run with `cargo bench -p rapidware-bench --bench runtime_scaling`.

use std::time::Instant;

use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::filters::NullFilter;
use rapidware::proxy::{FilterSpec, ThreadedChain};
use rapidware::runtime::{Runtime, RuntimeConfig};
use rapidware_bench::report::{median, BenchReport};

const SESSIONS: usize = 256;
const WORKERS: usize = 8;
const PACKETS_PER_SESSION: u64 = 100;
const PIPE_CAPACITY: usize = 256; // a whole burst fits: drains can be sequential
const BATCH_SIZE: usize = 16;
const REPETITIONS: usize = 3;

fn packet(seq: u64) -> Packet {
    Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![(seq % 251) as u8; 64])
}

/// Threads of the current process per `/proc/self/status`; `None` off
/// Linux.
fn current_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Thread cost of hosting the sessions, measured around `setup`; falls
/// back to `analytic` when `/proc` is unavailable.
fn hosting_threads<T>(analytic: usize, setup: impl FnOnce() -> T) -> (usize, T) {
    let before = current_threads();
    let hosted = setup();
    let threads = match (before, current_threads()) {
        (Some(before), Some(after)) if after > before => after - before,
        _ => analytic,
    };
    (threads, hosted)
}

/// Pushes one burst through every stream and drains every output,
/// returning source packets/second.  `inputs` and `lanes` supply, per
/// stream, the input endpoint and the delivery endpoint.
fn drive(
    inputs: &[rapidware::streams::DetachableSender<Packet>],
    lanes: &[rapidware::streams::DetachableReceiver<Packet>],
) -> f64 {
    let start = Instant::now();
    for input in inputs {
        for seq in 0..PACKETS_PER_SESSION {
            input.send(packet(seq)).expect("session inputs stay open");
        }
        input.close();
    }
    let mut delivered = 0usize;
    for lane in lanes {
        while let Ok(p) = lane.recv() {
            assert!(p.kind().is_payload());
            delivered += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        delivered,
        SESSIONS * PACKETS_PER_SESSION as usize,
        "every lane must deliver its session's whole burst"
    );
    (SESSIONS as u64 * PACKETS_PER_SESSION) as f64 / elapsed
}

/// One full thread-per-filter run: build the chains, push the burst,
/// tear everything down.  Returns (threads used to host, packets/second).
fn threaded_run() -> (usize, f64) {
    // Each chain spawns one stage worker for its null filter.
    let (threaded_threads, chains) = hosting_threads(SESSIONS, || {
        let chains: Vec<ThreadedChain> = (0..SESSIONS)
            .map(|_| {
                let chain = ThreadedChain::with_batch_size(PIPE_CAPACITY, BATCH_SIZE)
                    .expect("chains are constructible");
                chain.insert(0, Box::new(NullFilter::new())).expect("fresh chain");
                chain
            })
            .collect();
        chains
    });
    let inputs: Vec<_> = chains.iter().map(ThreadedChain::input).collect();
    let outputs: Vec<_> = chains.iter().map(ThreadedChain::output).collect();
    let threaded_pps = drive(&inputs, &outputs);
    for chain in &chains {
        chain.shutdown().expect("clean shutdown");
    }
    drop(chains);
    (threaded_threads, threaded_pps)
}

/// One full pooled run: 256 fanout sessions as tasks on `WORKERS` fixed
/// workers.  Returns (threads used to host, packets/second).
fn pooled_run() -> (usize, f64) {
    let runtime = Runtime::start(
        RuntimeConfig::new(WORKERS, BATCH_SIZE).with_pipe_capacity(PIPE_CAPACITY),
    );
    let (pooled_threads, pooled) = hosting_threads(WORKERS, || {
        let sessions: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let session = runtime.add_session(format!("pooled-{i}"));
                session
                    .insert_head_filter(0, &FilterSpec::new("null"))
                    .expect("null is a registered kind");
                let lane = session.add_lane("lane").expect("fresh session");
                let input = session.input();
                (session, input, lane)
            })
            .collect();
        sessions
    });
    // The workers were spawned before the measured setup: hosting 256 more
    // sessions must not have spawned a single thread.
    let pooled_threads = pooled_threads.max(WORKERS);
    let inputs: Vec<_> = pooled.iter().map(|(_, input, _)| input.clone()).collect();
    let lanes: Vec<_> = pooled.iter().map(|(_, _, lane)| lane.clone()).collect();
    let pooled_pps = drive(&inputs, &lanes);
    for (session, _, _) in &pooled {
        session.shutdown().expect("clean shutdown");
    }
    drop(pooled);
    assert_eq!(runtime.live_tasks(), 0, "no leaked tasks after the pooled run");
    runtime.shutdown().expect("worker pool joins cleanly");
    (pooled_threads, pooled_pps)
}

fn main() {
    println!(
        "runtime scaling: {SESSIONS} pooled fanout sessions (1 head filter + 1 lane) vs \
         {SESSIONS} threaded chains (1 filter), burst of {PACKETS_PER_SESSION} packets each, \
         {REPETITIONS} repetitions"
    );
    println!("{}", "-".repeat(72));

    // Thread counts come from the first repetition (they are a property of
    // the topology, not of load); throughput keeps every sample.
    let mut threaded_threads = 0usize;
    let mut threaded_samples = Vec::with_capacity(REPETITIONS);
    for rep in 0..REPETITIONS {
        let (threads, pps) = threaded_run();
        if rep == 0 {
            threaded_threads = threads;
        }
        threaded_samples.push(pps);
    }
    let mut pooled_threads = 0usize;
    let mut pooled_samples = Vec::with_capacity(REPETITIONS);
    for rep in 0..REPETITIONS {
        let (threads, pps) = pooled_run();
        if rep == 0 {
            pooled_threads = threads;
        }
        pooled_samples.push(pps);
    }
    let threaded_pps = median(&threaded_samples);
    let pooled_pps = median(&pooled_samples);

    let threaded_density = SESSIONS as f64 / threaded_threads as f64;
    let pooled_density = SESSIONS as f64 / pooled_threads as f64;
    println!(
        "thread-per-filter: {threaded_threads:>5} threads  {threaded_density:>8.2} sessions/thread  {threaded_pps:>12.0} pkts/s"
    );
    println!(
        "sharded pool:      {pooled_threads:>5} threads  {pooled_density:>8.2} sessions/thread  {pooled_pps:>12.0} pkts/s"
    );
    let density_gain = pooled_density / threaded_density;
    println!("session-density gain:            {density_gain:>8.2}x");

    // Write the report before the density assert: a machine that misses
    // the 4x bar still leaves its numbers behind for inspection.
    let mut report = BenchReport::new("runtime_scaling");
    report.record("thread-per-filter/throughput", "packets/s", &threaded_samples);
    report.record("pooled/throughput", "packets/s", &pooled_samples);
    report.record("thread-per-filter/hosting-threads", "threads", &[threaded_threads as f64]);
    report.record("pooled/hosting-threads", "threads", &[pooled_threads as f64]);
    report.record("thread-per-filter/density", "sessions/thread", &[threaded_density]);
    report.record("pooled/density", "sessions/thread", &[pooled_density]);
    report.record("density-gain", "x", &[density_gain]);
    let path = report.write().expect("writing the bench report");
    println!("report: {}", path.display());

    assert!(
        density_gain >= 4.0,
        "pooled runtime must host >= 4x the sessions per thread at {SESSIONS} sessions on \
         {WORKERS} workers, got {density_gain:.2}x"
    );
}
