//! Open-loop wireless-edge benchmark of the pooled shared-carrier proxy.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is the JSON result.  The exit
//! code is non-zero when a correctness check fails.  See `README.md`.

mod clock;
mod harness;
mod layers;
mod procfs;
mod rig;
mod rx;
mod sys;
mod workload;

use rapidware_telemetry::{HistogramSnapshot, TelemetrySnapshot};

use crate::harness::{median, percentile};
use crate::rig::{Faults, PhaseOutcome, Rig};
use crate::workload::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_BUILDS: usize = 25;
/// Unmeasured warm-up before the first measured phase, seconds.
const WARMUP_S: f64 = 0.5;
/// Share of `--seconds` spent on the fixed-rate phases; the ladder gets
/// the rest.
const FIXED_SHARE: f64 = 0.5;
/// Alternations of the low and high segments that are run …
const CYCLES_RUN: usize = 8;
/// … and the least-stolen of them that are measured.
const CYCLES_KEPT: usize = 4;
/// A failed ladder probe during which the hypervisor stole more than this
/// share of the host's CPU time is run again instead of counting.
const QUIET_STEAL: f64 = 0.03;
/// Ratio between consecutive rungs of the `max_rate_pps` ladder.
const LADDER_STEP: f64 = 1.02;
/// Rungs of the first bracketing move of the ladder search (≈ 37 %); the
/// next move in the same direction doubles it, up to [`LADDER_MAX_STRIDE`].
const LADDER_STRIDE: i64 = 16;
/// Longest bracketing move, in rungs (≈ 88 %).
const LADDER_MAX_STRIDE: i64 = 32;
/// A failed probe that delivered less than this share failed clearly and
/// needs no second probe to confirm it.
const LADDER_CLEAR_FAIL: f64 = 0.97;
/// The ladder starts this many rungs (≈ 2.6×) above the high rate, which
/// every workload sustains with room to spare.
const LADDER_HEADSTART: i64 = 48;
/// A ladder rung passes only if at least this share of deliveries arrive.
const LADDER_MIN_DELIVERED: f64 = 0.99;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The correctness checks: faults over the fixed-load phases, plus
/// datagrams the carriers could not route.
struct Checks {
    faults: Faults,
    unknown_stream: u64,
}

impl Checks {
    fn gather(rig: &Rig, phases: &[&PhaseOutcome]) -> Self {
        let mut faults = Faults::default();
        for phase in phases {
            faults.add(&phase.faults);
        }
        Self {
            faults,
            unknown_stream: rig.deployment.unknown_streams(),
        }
    }

    fn failures(&self) -> Vec<String> {
        let faults = &self.faults;
        [
            (faults.corrupt, "payloads that were not byte-exact"),
            (faults.duplicate, "duplicate deliveries"),
            (
                faults.receiver_errors,
                "undecodable datagrams, receiver filter or socket errors",
            ),
            (faults.secure_rejected, "secure.rejected"),
            (self.unknown_stream, "transport.unknown_stream"),
            (faults.harness_drops, "transport.harness_drops"),
        ]
        .into_iter()
        .filter(|(count, _)| *count > 0)
        .map(|(count, what)| format!("{count} {what}"))
        .collect()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    clock::now_ns();
    let (metrics, ungated, attempted, failed, checks) = if args.trace {
        let (metrics, attempted, failed, checks) = traced_run(&args);
        (metrics, Vec::new(), attempted, failed, checks)
    } else {
        end_to_end_run(&args)
    };
    let failures = checks.failures();
    for failure in &failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    report(
        &args,
        &metrics,
        &ungated,
        failures.is_empty(),
        attempted,
        failed,
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Prints every metric by name with its unit, then the JSON result line
/// (which carries `metrics` only; `ungated` ones are printed for reading).
fn report(
    args: &Args,
    metrics: &[Metric],
    ungated: &[Metric],
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for metric in metrics {
        println!(
            "  {:<34} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for metric in ungated {
        println!(
            "  {:<34} {:>16.4} {} (not gated)",
            metric.name, metric.value, metric.unit
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

/// The untraced run: set-up, the low and high phases, then the ladder.
fn end_to_end_run(args: &Args) -> (Vec<Metric>, Vec<Metric>, u64, u64, Checks) {
    let workload = &args.workload;
    let lanes = workload.lanes.len();
    let started = clock::now_ns();
    let deadline = started + (args.seconds * 1e9) as u64;
    let mut rig = Rig::start(workload, args.seed, false, false, SETUP_BUILDS);
    rig.run_phase(workload.low_pps, WARMUP_S, true);
    let (low, high) = low_and_high(&mut rig, FIXED_SHARE * args.seconds);
    let peak_rss_mib = procfs::peak_rss_kib() as f64 / 1024.0;
    let max_rate = max_rate_pps(&mut rig, deadline);
    let checks = Checks::gather(&rig, &[&low, &high]);
    let setup_s = median(&rig.setups_s);
    rig.shutdown();

    let attempted = low.attempted + high.attempted;
    let delivered = low.delivered + high.delivered;
    let failed = low.lost_other + high.lost_other + checks.faults.corrupt + checks.faults.duplicate;
    eprintln!(
        "perfbench: low {:.0} pps delivered {}/{} in {} windows, high {:.0} pps delivered {}/{} in {} windows (link-lost {}, other-lost {}, stragglers {}, kernel drops {}, shed {})",
        low.rate,
        low.delivered,
        low.attempted,
        low.window_p50_us.len(),
        high.rate,
        high.delivered,
        high.attempted,
        high.window_p50_us.len(),
        low.lost_to_link + high.lost_to_link,
        low.lost_other + high.lost_other,
        low.stragglers + high.stragglers,
        low.kernel_drops + high.kernel_drops,
        low.shed + high.shed,
    );
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("low.e2e_p50_us", low.p50_us(), "us"),
        metric("high.e2e_p50_us", high.p50_us(), "us"),
        metric(
            "low.proxy_cpu_us_per_pkt",
            low.proxy_cpu_us_per_pkt(lanes),
            "us",
        ),
        metric(
            "high.proxy_cpu_us_per_pkt",
            high.proxy_cpu_us_per_pkt(lanes),
            "us",
        ),
        metric(
            "delivered_ratio",
            delivered as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    // Too noisy to gate on a shared 2-vCPU host (README, "End-to-end
    // metrics"), but part of the picture.
    let ungated = vec![
        metric("low.e2e_p99_us", low.p99_us(), "us"),
        metric("high.e2e_p99_us", high.p99_us(), "us"),
        metric("max_rate_pps", max_rate, "pkt/s"),
        metric(
            "loss_ratio",
            1.0 - delivered as f64 / attempted.max(1) as f64,
            "fraction",
        ),
    ];
    (metrics, ungated, attempted, failed, checks)
}

/// The fixed-rate phases: [`CYCLES_RUN`] alternating low and high
/// segments spread over `seconds`, so both rates sample the same spells of
/// host noise.  The [`CYCLES_KEPT`] cycles in which the hypervisor stole
/// the least CPU time are measured; the others are dropped.  The choice
/// rests on `/proc/stat`, not on the metrics themselves.
fn low_and_high(rig: &mut Rig, seconds: f64) -> (PhaseOutcome, PhaseOutcome) {
    let workload = rig.workload.clone();
    let segment_s = seconds / (2 * CYCLES_RUN) as f64;
    let steal = |(low, high): &(PhaseOutcome, PhaseOutcome)| {
        (low.steal_ticks + high.steal_ticks) as f64
            / (low.host_ticks + high.host_ticks).max(1) as f64
    };
    let mut cycles: Vec<(PhaseOutcome, PhaseOutcome)> = (0..CYCLES_RUN)
        .map(|_| {
            let low = rig.run_phase(workload.low_pps, segment_s, true);
            (low, rig.run_phase(workload.high_pps, segment_s, true))
        })
        .collect();
    cycles.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    let shares: Vec<String> = cycles
        .iter()
        .map(|cycle| format!("{:.1}", 100.0 * steal(cycle)))
        .collect();
    eprintln!(
        "perfbench: host steal per cycle, kept first: {} %",
        shares.join(" ")
    );
    let mut low = PhaseOutcome::default();
    let mut high = PhaseOutcome::default();
    for (low_part, high_part) in cycles.into_iter().take(CYCLES_KEPT) {
        low.absorb(low_part);
        high.absorb(high_part);
    }
    low.rate = workload.low_pps;
    high.rate = workload.high_pps;
    (low, high)
}

/// Whether a ladder probe held: no backlog growth, at most 1 % of
/// deliveries missing, p99 within the limit, and a valid measurement (a
/// clean harness, no corrupt payload, no AEAD reject).  Duplicates and
/// receiver decode errors past saturation are reported, not gated: they
/// follow from carrier kernel drops (see README).
fn rung_holds(workload: &Workload, probe: &PhaseOutcome) -> bool {
    let backlog_grew = probe.last_quarter_us > probe.first_quarter_us + workload.p99_limit_us / 4.0;
    !backlog_grew
        && probe.delivered_ratio() >= LADDER_MIN_DELIVERED
        && probe.p99_us() <= workload.p99_limit_us
        && probe.faults.harness_drops == 0
        && probe.faults.corrupt == 0
        && probe.faults.secure_rejected == 0
}

/// Highest rung of the geometric ladder `low_pps × 1.02^k` that holds:
/// bracket from above the high rate in growing strides, then bisect.
fn max_rate_pps(rig: &mut Rig, deadline: u64) -> f64 {
    let workload = rig.workload.clone();
    let rung = |k: i64| workload.low_pps * LADDER_STEP.powi(k as i32);
    let start = ((workload.high_pps / workload.low_pps).ln() / LADDER_STEP.ln()).round() as i64
        + LADDER_HEADSTART;
    let (mut held, mut broke): (Option<i64>, Option<i64>) = (None, None);
    let mut k = start;
    let mut stride = LADDER_STRIDE;
    let probe_s = 1.2;
    loop {
        let probe_cost = ((probe_s + 2.0 * workload.p99_limit_us / 1e6 + 0.2) * 1e9) as u64;
        if clock::now_ns() + probe_cost > deadline {
            eprintln!("perfbench: ladder cut short by --seconds");
            break;
        }
        // A marginal failure counts only when a second probe confirms it,
        // so one stall of the host does not end the climb; a failure while
        // the host stole much CPU time is not counted at all.
        let mut holds = false;
        let mut failures = 0;
        for _ in 0..4 {
            let probe = rig.run_phase(rung(k), probe_s, false);
            holds = rung_holds(&workload, &probe);
            if !holds && probe.steal_ratio() <= QUIET_STEAL {
                let clear = probe.delivered_ratio() < LADDER_CLEAR_FAIL
                    || probe.p99_us() > 4.0 * workload.p99_limit_us;
                failures += if clear { 2 } else { 1 };
            }
            eprintln!(
                "perfbench: ladder {:>9.0} pps {} (steal {:.1} %, delivered {:.4}, p99 {:.0} us, quarters {:.0}/{:.0} us, kernel drops {}, shed {}, {:?})",
                probe.rate,
                if holds { "holds" } else { "fails" },
                100.0 * probe.steal_ratio(),
                probe.delivered_ratio(),
                probe.p99_us(),
                probe.first_quarter_us,
                probe.last_quarter_us,
                probe.kernel_drops,
                probe.shed,
                probe.faults
            );
            // Let a broken rung's backlog drain before the next probe.
            clock::sleep_until(clock::now_ns() + 150_000_000);
            if holds || failures >= 2 || clock::now_ns() + probe_cost > deadline {
                break;
            }
        }
        if holds {
            held = Some(held.map_or(k, |h| h.max(k)));
        } else {
            broke = Some(broke.map_or(k, |b| b.min(k)));
        }
        k = match (held, broke) {
            (Some(h), None) => {
                let next = h + stride;
                stride = (2 * stride).min(LADDER_MAX_STRIDE);
                next
            }
            (None, Some(0)) => break,
            (None, Some(b)) => {
                let next = (b - stride).max(0);
                stride = (2 * stride).min(LADDER_MAX_STRIDE);
                next
            }
            (Some(h), Some(b)) if b - h <= 1 => break,
            (Some(h), Some(b)) => (h + b) / 2,
            (None, None) => unreachable!("every probe either holds or breaks"),
        };
    }
    held.map_or_else(|| rung(broke.unwrap_or(0) - 1), rung)
}

/// Histogram of everything recorded between two snapshots, over every
/// histogram whose name `select` accepts.
fn histogram_delta(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    select: impl Fn(&str) -> bool,
) -> HistogramSnapshot {
    let mut delta = HistogramSnapshot::default();
    for (name, hist) in &after.histograms {
        if !select(name) {
            continue;
        }
        let mut part = hist.clone();
        if let Some(old) = before.histogram(name) {
            for (bucket, old) in part.buckets.iter_mut().zip(old.buckets.iter()) {
                *bucket -= old;
            }
            part.sum -= old.sum;
        }
        delta.merge(&part);
    }
    delta
}

/// Quantile `p` of a log2 histogram, interpolated linearly inside the
/// bucket that holds it (bucket `b` spans `[2^(b-1), 2^b)`).
fn interpolated_percentile(hist: &HistogramSnapshot, p: f64) -> f64 {
    let count = hist.count();
    if count == 0 {
        return 0.0;
    }
    let target = p * count as f64;
    let mut below = 0u64;
    for (index, &bucket) in hist.buckets.iter().enumerate() {
        if bucket == 0 {
            continue;
        }
        if (below + bucket) as f64 >= target {
            if index == 0 {
                return 0.0;
            }
            let low = (1u64 << (index - 1)) as f64;
            let high = low * 2.0;
            return low + (high - low) * ((target - below as f64) / bucket as f64).clamp(0.0, 1.0);
        }
        below += bucket;
    }
    hist.max as f64
}

fn telemetry(rig: &Rig) -> TelemetrySnapshot {
    rig.deployment
        .proxy
        .telemetry()
        .expect("telemetry enabled on the traced proxy")
}

/// Quantile `p` of raw samples; 0 when there are none.
fn quantile(samples: impl IntoIterator<Item = f64>, p: f64) -> f64 {
    let mut values: Vec<f64> = samples.into_iter().collect();
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        0.0
    } else {
        percentile(&values, p)
    }
}

/// The traced run: per-layer replays, then an untraced and a traced pass
/// of the low and high phases.
fn traced_run(args: &Args) -> (Vec<Metric>, u64, u64, Checks) {
    let workload = &args.workload;
    let lanes = workload.lanes.len();
    let costs = layers::measure(workload, args.seed);

    let mut reference = Rig::start(workload, args.seed, false, false, 1);
    reference.run_phase(workload.low_pps, WARMUP_S, true);
    let untraced_high = reference.run_phase(workload.high_pps, 0.25 * args.seconds, true);
    reference.shutdown();

    let mut rig = Rig::start(workload, args.seed, true, true, 1);
    rig.run_phase(workload.low_pps, WARMUP_S, true);
    let before_low = telemetry(&rig);
    let low = rig.run_phase(workload.low_pps, 0.2 * args.seconds, true);
    let before_high = telemetry(&rig);
    let high = rig.run_phase(workload.high_pps, 0.3 * args.seconds, true);
    let after_high = telemetry(&rig);
    let checks = Checks::gather(&rig, &[&low, &high]);
    let status = rig.deployment.proxy.status();

    let counters = rig
        .receiver
        .shared
        .counters
        .lock()
        .expect("counters lock")
        .clone();
    let recovered: u64 = rig
        .receiver
        .decoders
        .iter()
        .map(|stats| stats.recovered())
        .sum();
    let high_packets = high.delivered_packets(lanes).max(1.0);
    let drain = histogram_delta(&before_high, &after_high, |name| {
        name.starts_with("udp.") && name.ends_with(".drain_batch")
    });
    let poll = histogram_delta(&before_high, &after_high, |name| name == "runtime.poll_ns");
    let queue_wait = histogram_delta(&before_high, &after_high, |name| {
        name == "runtime.queue_wait_ns"
    });
    let scan = histogram_delta(&before_low, &before_high, |name| {
        name == "runtime.reactor.scan_ns"
    });
    let chain_batch = histogram_delta(&before_high, &after_high, |name| {
        name.ends_with(".batch_ns")
    });
    let mut splices = rig.deployment.splice_us.clone();
    splices.extend(&rig.splice_us);
    let send_ns = quantile(rig.send_ns.iter().map(|&ns| f64::from(ns)), 0.5);
    let recv_ns = quantile(counters.recv_ns.iter().map(|&ns| f64::from(ns)), 0.5);

    // The blocking path of one delivery, layer by layer: app encode+send,
    // carrier recv+decode, the pipe hops, the lane's proxy filters,
    // encode+send, receiver recv+decode and receiver filters.
    let hops = if workload.session { 4.0 } else { 2.0 };
    let lane_filters: f64 = workload
        .lanes
        .iter()
        .map(|lane| {
            let proxy: f64 = lane
                .filters
                .iter()
                .map(|spec| costs.filter_ns[spec.kind.as_str()])
                .sum();
            let receiver = if lane.wireless {
                costs.filter_ns["fec-decoder"]
                    + if lane.encrypted() {
                        costs.filter_ns["decrypt"]
                    } else {
                        0.0
                    }
            } else {
                0.0
            };
            proxy + receiver
        })
        .sum::<f64>()
        / lanes as f64;
    let path_ns = 2.0 * (costs.encode_ns + send_ns)
        + 2.0 * (recv_ns + costs.decode_ns)
        + hops * costs.hop_ns
        + lane_filters;

    let cpu_traced = high.proxy_cpu_us_per_pkt(lanes);
    let cpu_untraced = untraced_high.proxy_cpu_us_per_pkt(lanes);
    let mut metrics = vec![
        metric("packet.encode_ns_per_pkt", costs.encode_ns, "ns"),
        metric("packet.decode_ns_per_pkt", costs.decode_ns, "ns"),
        metric("streams.hop_ns_per_pkt", costs.hop_ns, "ns"),
        metric("transport.send_ns", send_ns, "ns"),
        metric("transport.recv_ns", recv_ns, "ns"),
        metric(
            "transport.drain_batch_mean",
            drain.sum as f64 / drain.count().max(1) as f64,
            "datagrams",
        ),
        metric(
            "transport.kernel_drops",
            (low.kernel_drops + high.kernel_drops) as f64,
            "count",
        ),
        metric(
            "transport.unknown_stream",
            checks.unknown_stream as f64,
            "count",
        ),
        metric(
            "transport.harness_drops",
            checks.faults.harness_drops as f64,
            "count",
        ),
        metric(
            "runtime.worker_busy_ratio",
            high.cpu.worker_ns as f64 / high.wall_ns as f64,
            "ratio",
        ),
        metric(
            "runtime.polls_per_pkt",
            high.polls as f64 / high_packets,
            "polls/pkt",
        ),
        metric(
            "runtime.reactor_busy_ratio",
            low.cpu.reactor_ns as f64 / low.wall_ns as f64,
            "ratio",
        ),
        metric(
            "runtime.reactor_scan_ns.p50",
            interpolated_percentile(&scan, 0.5),
            "ns",
        ),
        metric(
            "runtime.poll_ns.p50",
            interpolated_percentile(&poll, 0.5),
            "ns",
        ),
        metric(
            "runtime.poll_ns.p99",
            interpolated_percentile(&poll, 0.99),
            "ns",
        ),
        metric(
            "runtime.queue_wait_ns.p50",
            interpolated_percentile(&queue_wait, 0.5),
            "ns",
        ),
        metric(
            "runtime.queue_wait_ns.p99",
            interpolated_percentile(&queue_wait, 0.99),
            "ns",
        ),
        metric(
            "runtime.steals_per_kpkt",
            high.steals as f64 * 1_000.0 / high_packets,
            "steals/kpkt",
        ),
    ];
    for kind in layers::FILTER_KINDS {
        metrics.push(metric(
            format!("filters.{kind}.ns_per_pkt"),
            costs.filter_ns[kind],
            "ns",
        ));
    }
    metrics.extend([
        metric(
            "filters.chain_batch_ns.p50",
            interpolated_percentile(&chain_batch, 0.5),
            "ns",
        ),
        metric("fec.encode_ns_per_block", costs.fec_encode_block_ns, "ns"),
        metric("fec.decode_ns_per_block", costs.fec_decode_block_ns, "ns"),
        metric(
            "fec.recovered_ratio",
            recovered as f64 / counters.link_dropped_sources.max(1) as f64,
            "ratio",
        ),
        metric(
            "fec.parity_per_source",
            counters.fec_parities as f64 / counters.fec_sources.max(1) as f64,
            "ratio",
        ),
        metric(
            "secure.rejected",
            checks.faults.secure_rejected as f64,
            "count",
        ),
        metric("secure.rekeys", status.secure.rekeys as f64, "count"),
        metric("proxy.add_stream_us", median(&rig.deployment.add_us), "us"),
        metric(
            "proxy.splice_us.p50",
            quantile(splices.iter().copied(), 0.5),
            "us",
        ),
        metric(
            "proxy.splice_us.p99",
            quantile(splices.iter().copied(), 0.99),
            "us",
        ),
        metric(
            "proxy.status_us.p50",
            quantile(rig.status_us.iter().copied(), 0.5),
            "us",
        ),
        metric(
            "telemetry.overhead_ratio",
            cpu_traced / cpu_untraced,
            "ratio",
        ),
        metric(
            "harness.send_lag_us.p50",
            quantile(high.send_lag_us.iter().map(|&us| f64::from(us)), 0.5),
            "us",
        ),
        metric(
            "harness.send_lag_us.p99",
            quantile(high.send_lag_us.iter().map(|&us| f64::from(us)), 0.99),
            "us",
        ),
        metric(
            "ledger.unattributed_ns_per_pkt",
            high.p50_us() * 1_000.0 - path_ns,
            "ns",
        ),
    ]);
    rig.shutdown();
    let attempted = low.attempted + high.attempted;
    let failed = low.lost_other + high.lost_other + checks.faults.corrupt + checks.faults.duplicate;
    (metrics, attempted, failed, checks)
}
